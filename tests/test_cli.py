import hashlib
import json
import time
from pathlib import Path

import pytest

from akhodge import model
from akhodge import operators as ops
from akhodge.cli import main

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_entry(capsys):
    code, out, _ = run(capsys, "validate", "--entry", "iwasawa_ak")
    assert code == 0
    assert "Verified" in out


def test_validate_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "validate", "--entry", "torus6_f", "--json")
    code2, out2, _ = run(capsys, "validate", "--entry", "torus6_f", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["spec_name"] == "torus6_f"
    assert {i["check_id"]: i["status"] for i in payload["items"]}["d2_phi1"] == \
        "SkippedOpaque"


def test_validate_spec_file(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", "--spec", "specs/kt4.akspec")
    assert code == 0


def test_validate_malformed_spec_exit_2(capsys, tmp_path):
    bad = tmp_path / "broken.akspec"
    bad.write_text("manifold broken\ndim 6\ncoframe phi1 phi2 phi3\n"
                   "d phi1 = phi{123,}\n"
                   "omega = 1/2*i*phi{1,1} + 1/2*i*phi{2,2} + "
                   "1/2*i*phi{3,3}\n")
    code, out, err = run(capsys, "validate", "--spec", str(bad))
    assert code == 2
    assert "line 4" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "validate", "--spec", "/nonexistent.akspec")
    assert code == 2


def test_operators_dump(capsys):
    code, out, _ = run(capsys, "operators", "--entry", "torus6_flat",
                       "--op", "Delta_delbar", "--pq", "1,1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["shape"] == [9, 9]
    assert all(v == "0" for row in payload["entries"] for v in row)


def test_operators_star_golden(capsys):
    code, out, _ = run(capsys, "operators", "--entry", "torus4_flat",
                       "--op", "star", "--pq", "0,0", "--json")
    payload = json.loads(out)
    assert payload["targets"] == [[2, 2]]
    assert payload["entries"] == [["1/4"]]  # vol = omega^2/2 = (1/4) phi{12,12}


def test_operators_symbolic_entry_exit_2(capsys):
    code, _, err = run(capsys, "operators", "--entry", "torus6_g",
                       "--op", "delbar", "--pq", "1,1")
    assert code == 2
    assert "symbolic" in err


def test_harmonic_with_certificate(capsys):
    code, out, _ = run(capsys, "harmonic", "--entry", "iwasawa_ak",
                       "--op", "delbar", "--pq", "2,1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 3
    assert payload["scope"] == "invariant forms only"
    bases = {c["id"]: c for c in payload["reference_bases"]}
    assert bases["paper_basis_21"]["spans_space"] is False
    assert bases["corrected_basis_21"]["spans_space"] is True
    assert bases["corrected_basis_21"]["change_of_basis"] is not None


def test_harmonic_flat(capsys):
    code, out, _ = run(capsys, "harmonic", "--entry", "torus6_flat",
                       "--op", "del", "--pq", "1,1", "--json")
    payload = json.loads(out)
    assert payload["dim"] == 9


def test_h12_kernel_match_via_cli(capsys):
    _, out1, _ = run(capsys, "harmonic", "--entry", "h12_t3", "--op",
                     "delbar", "--pq", "1,1", "--json")
    _, out2, _ = run(capsys, "harmonic", "--entry", "h12_t3", "--op",
                     "del", "--pq", "1,1", "--json")
    assert json.loads(out1)["basis"] == json.loads(out2)["basis"]


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "--entry", "iwasawa_ak",
                       "--form", "phi{13,2} + phi{23,1} - 2*i*phi{23,2}",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["reconstruction_exact"] is True
    assert payload["components"]["1"] == "phi{3,}"


def test_verify_single_check(capsys):
    code, out, _ = run(capsys, "verify", "--entry", "iwasawa_ak",
                       "--check", "inclusion21", "--json")
    assert code == 0
    payload = json.loads(out)
    result, = payload["results"]
    assert result["status"] == "Holds" and result["strict"] is True
    assert result["witnesses"] == ["phi{13,3} + i*phi{23,3}"]


def test_verify_all_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--entry", "kt4", "--all")
    assert code == 0
    code, out, _ = run(capsys, "verify", "--entry", "torus6_g",
                       "--check", "thm34")
    assert code == 0  # Inapplicable is not a failure
    assert "Inapplicable" in out


def test_table(capsys):
    code, out, _ = run(capsys, "table", "--entry", "iwasawa_ak",
                       "--op", "delbar", "--json")
    payload = json.loads(out)
    assert payload["table"][2][1] == 3


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog", "--json")
    payload = json.loads(out)
    assert [e["key"] for e in payload["entries"]] == list(
        ("torus6_flat", "torus4_flat", "torus6_f", "torus6_g", "h12_t3",
         "iwasawa_ak", "kt4"))


def test_report_end_to_end(capsys):
    code, out, _ = run(capsys, "report", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["fails"] == 0
    assert payload["summary"]["errata_flagged"] == 2
    iwasawa = next(s for s in payload["entries"]
                   if s["entry"] == "iwasawa_ak")
    ids = {r["check_id"]: r["status"] for r in iwasawa["expected_results"]}
    assert ids["paper_basis_21"] == "Erratum"
    assert ids["paper_nonmembership"] == "Erratum"
    assert ids["corrected_basis_21"] == "Holds"
    # the report carries the Ex. 4.3 and Ex. 4.5 separation facts
    h12 = next(s for s in payload["entries"] if s["entry"] == "h12_t3")
    assert {r["check_id"] for r in h12["expected_results"]} >= \
        {"laplacians_differ", "kernels_coincide_11"}
    t6g = next(s for s in payload["entries"] if s["entry"] == "torus6_g")
    assert {r["check_id"] for r in t6g["expected_results"]} >= \
        {"not_delbar_harmonic", "del_harmonic"}


def test_report_byte_identical(capsys):
    _, out1, _ = run(capsys, "report", "--json")
    _, out2, _ = run(capsys, "report", "--json")
    assert out1 == out2
    # the same digest the benchmark checks its catalog_report runs against
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    assert hashlib.sha256(out1.encode("utf-8")).hexdigest() == \
        expected["catalog_report_sha256"]


def test_human_output_subset_of_json_facts(capsys):
    # the human rendering contains the same status facts as the JSON
    _, json_out, _ = run(capsys, "verify", "--entry", "kt4", "--all",
                         "--json")
    _, human_out, _ = run(capsys, "verify", "--entry", "kt4", "--all")
    payload = json.loads(json_out)
    for result in payload["results"]:
        assert result["check_id"] in human_out
        assert result["status"] in human_out


@pytest.mark.parametrize("argv", [
    ("harmonic", "--entry", "kt4", "--op", "delbar", "--pq", "7,0"),
    ("harmonic", "--entry", "kt4", "--op", "delbar", "--pq=-1,0"),
    ("operators", "--entry", "kt4", "--op", "L", "--pq", "7,0"),
    ("operators", "--entry", "kt4", "--op", "star", "--pq", "0,3"),
])
def test_out_of_range_bidegree_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "0..2" in err


def test_validate_oversized_dimension_exit_2(capsys, tmp_path):
    big = tmp_path / "big.akspec"
    coframe = " ".join(f"phi{j}" for j in range(1, 13))
    big.write_text(f"manifold big\ndim 24\ncoframe {coframe}\n"
                   "omega = 1/2*i*phi{1,1}\n")
    code, out, err = run(capsys, "validate", "--spec", str(big))
    assert code == 2
    assert "line 2" in err and "limit 18" in err


def flat_spec_text(dim):
    n = dim // 2
    return (f"manifold flat{dim}\ndim {dim}\n"
            f"coframe {' '.join(f'phi{j}' for j in range(1, n + 1))}\n"
            "omega = " + " + ".join(f"1/2*i*phi{{{j},{j}}}"
                                    for j in range(1, n + 1)) + "\n")


@pytest.mark.parametrize("argv", [
    ("table", "--op", "delbar"),
    ("operators", "--op", "Delta_delbar", "--pq", "3,3"),
    ("harmonic", "--op", "del", "--pq", "1,1"),
    ("verify", "--all"),
    ("decompose", "--form", "phi{1,1}"),
])
def test_matrix_commands_refuse_dim_14(capsys, tmp_path, argv):
    path = tmp_path / "flat14.akspec"
    path.write_text(flat_spec_text(14))
    started = time.monotonic()
    code, out, err = run(capsys, argv[0], "--spec", str(path), *argv[1:])
    assert time.monotonic() - started < 1.0
    assert code == 2
    assert out == ""
    assert str(path) in err and "dim 14" in err
    assert f"MAX_BIDEGREE_DIM = {ops.MAX_BIDEGREE_DIM}" in err


def test_work_bound_admits_dim_12():
    assert ops.MAX_BIDEGREE_DIM == 400
    ops.require_work_bound(model.parse_spec(flat_spec_text(12)))
    with pytest.raises(ops.OperatorError, match="dimension 1225"):
        ops.require_work_bound(model.parse_spec(flat_spec_text(14)))


SPEC_HEAD = "manifold t\ndim 4\ncoframe phi1 phi2\n"
UNITARY_OMEGA = "omega = 1/2*i*phi{1,1} + 1/2*i*phi{2,2}\n"


@pytest.mark.parametrize("body, line, message", [
    ("symbol F conj G\n", 4, "undeclared 'G'"),
    ("symbol F conj i\n", 4, "undeclared 'i'"),
    ("symbol F real\nsymbol F real\n", 5, "declared twice"),
    ("d phi1 = 1/0*phi{2,2}\n", 4, "zero denominator"),
])
def test_malformed_symbols_and_coefficients_exit_2(capsys, tmp_path, body,
                                                   line, message):
    path = tmp_path / "bad.akspec"
    path.write_text(SPEC_HEAD + body + UNITARY_OMEGA)
    code, out, err = run(capsys, "validate", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: line {line}") and message in err


def test_non_utf8_spec_file_exit_2(capsys, tmp_path):
    path = tmp_path / "latin1.akspec"
    path.write_bytes((SPEC_HEAD + UNITARY_OMEGA).encode() + b"# caf\xe9\n")
    code, out, err = run(capsys, "validate", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: not UTF-8")


def test_spec_path_that_is_a_directory_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "validate", "--spec", str(tmp_path))
    assert code == 2
    assert err.startswith(f"error: {tmp_path}: ")


@pytest.mark.parametrize("argv", [
    ("decompose", "--form", "phi{1,1}"),
    ("harmonic", "--op", "delbar", "--pq", "1,1"),
])
def test_theorem_mode_errors_name_the_condition(capsys, tmp_path, argv):
    code, _, err = run(capsys, argv[0], "--entry", "torus6_g", *argv[1:])
    assert code == 2
    assert "symbolic coefficients" in err
    path = tmp_path / "nonunitary.akspec"
    path.write_text(SPEC_HEAD + "omega = i*phi{1,1} + 1/2*i*phi{2,2}\n")
    code, _, err = run(capsys, argv[0], "--spec", str(path), *argv[1:])
    assert code == 2
    assert "not in unitary mode" in err


def test_decompose_of_a_symbolic_form_exit_2(capsys, tmp_path):
    path = tmp_path / "symbol.akspec"
    path.write_text(SPEC_HEAD + "symbol F real d = opaque\n" + UNITARY_OMEGA)
    code, out, err = run(capsys, "decompose", "--spec", str(path),
                         "--form", "F*phi{1,1}")
    assert code == 2
    assert out == ""
    assert "symbolic coefficients" in err


@pytest.mark.parametrize("argv", [
    ("operators", "--op", "L", "--pq", "0,0"),
    ("harmonic", "--op", "delbar", "--pq", "1,1"),
    ("verify", "--all"),
    ("table", "--op", "delbar"),
    ("decompose", "--form", "phi{1,1}"),
])
def test_commands_refuse_a_spec_that_validate_rejects(capsys, tmp_path, argv):
    path = tmp_path / "dsquared.akspec"
    path.write_text(SPEC_HEAD + "d phi1 = phi{2,1}\nd phi2 = phi{1,1}\n"
                    + UNITARY_OMEGA)
    assert run(capsys, "validate", "--spec", str(path))[0] == 2
    code, out, err = run(capsys, argv[0], "--spec", str(path), *argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: d^2(phi1)")


def test_adjoint_operators_on_a_non_unitary_spec_exit_2(capsys, tmp_path):
    path = tmp_path / "skewed.akspec"
    path.write_text("manifold flat_skewed\n"
                    "dim 4\n"
                    "coframe phi1 phi2\n"
                    "omega = 1/2*i*phi{1,1} + i*phi{2,2}\n", encoding="utf-8")
    for op in ("del_star", "Lambda", "Delta_delbar"):
        code, out, err = run(capsys, "operators", "--spec", str(path),
                             "--op", op, "--pq", "1,1")
        assert code == 2 and out == ""
        assert err == ("error: spec 'flat_skewed' is not in unitary mode "
                       "(omega != (i c/2) sum phi^{j jbar})\n")
