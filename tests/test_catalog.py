from pathlib import Path

import pytest

from akhodge import catalog, reports
from akhodge.model import parse_spec, render_spec, validate

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"


def test_keys_and_unknown():
    assert set(catalog.keys()) == {"torus6_flat", "torus4_flat", "torus6_f",
                                   "torus6_g", "h12_t3", "iwasawa_ak", "kt4"}
    with pytest.raises(catalog.UnknownKeyError):
        catalog.get("nope")


def test_every_entry_validates(entries):
    for key, entry in entries.items():
        report = validate(entry.spec)
        assert report.ok, key


def test_iwasawa_scale_and_flags(entries):
    spec = entries["iwasawa_ak"].spec
    assert str(spec.unitary_scale) == "2"
    assert spec.almost_kahler and spec.constant_coefficient


def test_shipped_akspec_files_match_renderings(entries):
    for key, entry in entries.items():
        path = SPEC_DIR / f"{key}.akspec"
        text = path.read_text(encoding="utf-8")
        assert text == render_spec(entry.spec), key
        assert parse_spec(text) == entry.spec, key


def test_shipped_akspec_files_are_exactly_the_catalog():
    assert sorted(path.stem for path in SPEC_DIR.glob("*.akspec")) == \
        sorted(catalog.keys())


def test_real_presentations_rederive_structure(entries):
    from akhodge.model import complexify
    from akhodge.exterior import Form
    for key in ("iwasawa_ak", "h12_t3", "kt4"):
        entry = entries[key]
        derived = complexify(entry.real_presentation)
        for j in range(1, entry.spec.n + 1):
            assert derived.get(j, Form.zero()) == \
                entry.spec.structure.get(j, Form.zero()), (key, j)


def test_expected_items_all_executable(entries):
    for key, entry in entries.items():
        for item in entry.expected:
            row = reports.run_expected_item(entry, item)
            assert row["status"] in ("Holds", "Erratum"), (key, item, row)


def test_expected_errata_are_exactly_the_two_iwasawa_ones(entries):
    errata = []
    for key, entry in entries.items():
        for item in entry.expected:
            row = reports.run_expected_item(entry, item)
            if row["status"] == "Erratum":
                errata.append((key, row["check_id"]))
    assert sorted(errata) == [("iwasawa_ak", "paper_basis_21"),
                              ("iwasawa_ak", "paper_nonmembership")]


def test_h12_mubar_golden(entries):
    entry = entries["h12_t3"]
    rows = {item.get("id"): reports.run_expected_item(entry, item)
            for item in entry.expected if "id" in item}
    assert rows["mubar_image_ex43"]["status"] == "Holds"
    assert rows["laplacians_differ"]["status"] == "Holds"
    assert rows["kernels_coincide_11"]["status"] == "Holds"


def test_laplacian_diff_row_says_the_image_is_zero_when_it_fails(entries):
    # prop41: Delta_delbar = Delta_del on (1,1) in real dimension 4
    item = {"kind": "laplacian_diff_nonzero", "id": "laplacians_differ",
            "form": "phi{1,1}", "pq": [1, 1]}
    row = reports.run_expected_item(entries["kt4"], item)
    assert row["status"] == "Fails"
    assert row["detail"] == "(Delta_delbar - Delta_del)(phi{1,1}) = 0"
    assert row["witness"] == []


def test_flags_row_names_each_mismatch(entries):
    # kt4 has unitary scale 1 and is not integrable
    item = {"kind": "flags", "almost_kahler": True,
            "constant_coefficient": True, "unitary_scale": "2",
            "integrable": True}
    row = reports.run_expected_item(entries["kt4"], item)
    assert row["status"] == "Fails"
    assert row["detail"] == "flag mismatch: ['unitary_scale', 'integrable']"


def test_dsl_source_available():
    text = catalog.dsl_source("torus6_g")
    assert "V3g" in text
    assert parse_spec(text) == catalog.get("torus6_g").spec
