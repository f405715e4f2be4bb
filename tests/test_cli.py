import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from akhodge import catalog, hodge, model, reports
from akhodge import operators as ops
from akhodge.cli import main

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = ROOT / "perfbench" / "expected.json"
HARMONIC_DIGESTS = (Path(__file__).resolve().parent / "data"
                    / "harmonic_basis_digests.json")
CLI_DIGESTS = Path(__file__).resolve().parent / "data" / "cli_json_digests.json"


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


def test_validate_spec_file(capsys):
    # every shipped spec file validates and verifies, and a constant one
    # decomposes a form exactly
    paths = sorted((ROOT / "specs").glob("*.akspec"))
    assert paths
    for path in paths:
        source = ("--spec", str(path))
        code, out, _ = run(capsys, "validate", *source, "--json")
        assert code == 0, path
        assert run(capsys, "verify", *source, "--all", "--json")[0] == 0, path
        if json.loads(out)["flags"]["constant_coefficient"]:
            code, out, _ = run(capsys, "decompose", *source, "--form",
                               "phi{1,1} + 2*i*phi{2,1}", "--json")
            assert code == 0, path
            assert json.loads(out)["reconstruction_exact"] is True, path


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


def test_harmonic_certificates_agree_with_the_report_rows(capsys, entries):
    # each harmonic_span item: `harmonic --entry` and the report row read the
    # same span test and change of basis
    items = [(key, item) for key, entry in entries.items()
             for item in entry.expected if item["kind"] == "harmonic_span"]
    assert len(items) == 2
    for key, item in items:
        code, out, _ = run(capsys, "harmonic", "--entry", key, "--op",
                           item["op"], "--pq", "{},{}".format(*item["pq"]),
                           "--json")
        assert code == 0
        certificate, = [c for c in json.loads(out)["reference_bases"]
                        if c["id"] == item["id"]]
        row = reports.run_expected_item(entries[key], item)
        assert certificate["spans_space"] == (row["status"] == "Holds")
        assert certificate["generators"] == item["generators"]
        assert certificate["change_of_basis"] == row.get("change_of_basis")


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


def test_harmonic_bases_at_the_papers_bidegrees(capsys, tmp_path,
                                                cc_entries, ladder_dsl):
    # the canonical bases of H^{1,1} and H^{n-1,n-1} of del and delbar,
    # byte for byte as recorded, on each constant catalog entry and the
    # n = 4 ladder
    golden = json.loads(HARMONIC_DIGESTS.read_text(encoding="utf-8"))
    ladder = tmp_path / "ladder_n4.akspec"
    ladder.write_text(ladder_dsl(4), encoding="utf-8")
    sources = {key: (("--entry", key), entry.spec.n)
               for key, entry in cc_entries.items()}
    sources["ladder_n4"] = (("--spec", str(ladder)), 4)
    digests = {}
    for name, (source, n) in sources.items():
        for op in ("del", "delbar"):
            for p in sorted({1, n - 1}):
                code, out, _ = run(capsys, "harmonic", *source, "--op", op,
                                   "--pq", f"{p},{p}", "--json")
                assert code == 0
                digests[f"{name} {op} {p},{p}"] = hashlib.sha256(
                    out.encode("utf-8")).hexdigest()
    assert digests == golden["sha256"]


def test_catalog_and_validate_json_golden_digests(capsys):
    # the JSON that renders spec flags, byte for byte as recorded: the
    # catalog, and validate on every entry and every shipped spec file
    golden = json.loads(CLI_DIGESTS.read_text(encoding="utf-8"))
    commands = {"catalog": ("catalog",)}
    for key in catalog.keys():
        commands[f"validate --entry {key}"] = ("validate", "--entry", key)
    for path in sorted((ROOT / "specs").glob("*.akspec")):
        commands[f"validate --spec specs/{path.name}"] = (
            "validate", "--spec", str(path))
    digests = {}
    for name, argv in commands.items():
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0, name
        digests[name] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digests == golden["sha256"]


def test_printed_forms_parse_back_and_print_identically(capsys, cc_entries):
    # a form that harmonic, verify or decompose prints on a constant catalog
    # entry is --form text: decompose reads it back and prints it the same
    grouped = 0
    for key, entry in cc_entries.items():
        spec = entry.spec
        printed = []
        for op in ("del", "delbar"):
            for p in sorted({1, spec.n - 1}):
                code, out, _ = run(capsys, "harmonic", "--entry", key,
                                   "--op", op, "--pq", f"{p},{p}", "--json")
                assert code == 0
                printed += json.loads(out)["basis"]
        code, out, _ = run(capsys, "verify", "--entry", key, "--all",
                           "--json")
        assert code == 0
        printed += [w for r in json.loads(out)["results"]
                    for w in r.get("witnesses", [])]
        inputs = printed + ["phi{1,1} + i*phi{1,1} + 1/2*phi{2,2}", "0"]
        for form in inputs:
            code, out, _ = run(capsys, "decompose", "--entry", key,
                               "--form", form, "--json")
            assert code == 0
            payload = json.loads(out)
            printed += [payload["input"], *payload["components"].values()]
        for text in printed:  # a printed form may start with `-`
            code, out, _ = run(capsys, "decompose", "--entry", key,
                               "--form", text, "--json")
            assert code == 0 and json.loads(out)["input"] == text, key
        grouped += sum("(" in text for text in printed)
    assert grouped


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "--entry", "iwasawa_ak",
                       "--form", "phi{13,2} + phi{23,1} - 2*i*phi{23,2}",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["reconstruction_exact"] is True
    assert payload["components"]["1"] == "phi{3,}"
    # reducible literals read as their lowest terms
    code, out, _ = run(capsys, "decompose", "--entry", "kt4", "--form",
                       "6/4*phi{1,1} - 10/20*i*phi{2,2}", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["input"] == "3/2*phi{1,1} - 1/2*i*phi{2,2}"
    assert payload["components"] == {
        "0": "(3/4+1/4*i)*phi{1,1} + (-3/4-1/4*i)*phi{2,2}",
        "1": "(-1/2-3/2*i)*phi{,}"}
    # a printed form that starts with `-`, given as the word after --form
    for entry, text in (("kt4", "-phi{1,1}"),
                        ("iwasawa_ak", "-1/2*i*phi{1,}")):
        code, out, _ = run(capsys, "decompose", "--entry", entry, "--form",
                           text, "--json")
        assert code == 0
        assert json.loads(out)["input"] == text


def test_verify_single_check(capsys):
    code, out, _ = run(capsys, "verify", "--entry", "iwasawa_ak",
                       "--check", "inclusion21", "--json")
    assert code == 0
    payload = json.loads(out)
    result, = payload["results"]
    assert result["status"] == "Holds" and result["strict"] is True
    assert result["witnesses"] == ["phi{13,3} + i*phi{23,3}"]


def test_verify_all_exit_codes(capsys, tmp_path, ladder_dsl):
    code, out, _ = run(capsys, "verify", "--entry", "kt4", "--all")
    assert code == 0
    code, out, _ = run(capsys, "verify", "--entry", "torus6_g",
                       "--check", "thm34")
    assert code == 0  # Inapplicable is not a failure
    assert "Inapplicable" in out
    # the n = 6 ladder, the largest the work bound admits
    ladder = tmp_path / "ladder_n6.akspec"
    ladder.write_text(ladder_dsl(6), encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--spec", str(ladder), "--all",
                       "--json")
    statuses = [r["status"] for r in json.loads(out)["results"]]
    assert code == 0 and statuses and "Fails" not in statuses


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


def test_module_runs_as_a_program_outside_the_checkout(tmp_path):
    # the one run through a process: `python -m akhodge.cli` from another
    # directory, as the installed console script runs
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def akhodge(*argv):
        return subprocess.run([sys.executable, "-m", "akhodge.cli", *argv],
                              cwd=tmp_path, env=env, capture_output=True)

    done = akhodge("report", "--json")
    assert done.returncode == 0
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    assert hashlib.sha256(done.stdout).hexdigest() == \
        expected["catalog_report_sha256"]
    done = akhodge("validate", "--spec", str(tmp_path / "missing.akspec"))
    assert done.returncode == 2
    assert done.stderr.startswith(b"error: ")
    assert b"Traceback" not in done.stderr


def test_report_verbose_logs_one_line_per_entry_on_stderr(capsys,
                                                          monkeypatch):
    # AKHODGE_VERBOSE adds timing lines on stderr and leaves stdout alone
    monkeypatch.setenv("AKHODGE_VERBOSE", "1")
    code, out, err = run(capsys, "report", "--json")
    assert code == 0
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        expected["catalog_report_sha256"]
    lines = err.splitlines()
    assert all(re.fullmatch(r"\[report\] \S+: \d+\.\d\ds", line)
               for line in lines), lines
    assert [line.split()[1].rstrip(":") for line in lines] == \
        list(catalog.keys())


def test_human_output_subset_of_json_facts(capsys):
    # the human rendering contains the same status facts as the JSON
    _, json_out, _ = run(capsys, "verify", "--entry", "kt4", "--all",
                         "--json")
    _, human_out, _ = run(capsys, "verify", "--entry", "kt4", "--all")
    payload = json.loads(json_out)
    for result in payload["results"]:
        assert result["check_id"] in human_out
        assert result["status"] in human_out


def words(text):
    return " ".join(text.split())


def report_facts(p):
    for section in p["entries"]:
        yield f"== {section['entry']}:"
        for r in section["theorem_checks"] + section["expected_results"]:
            yield f"{r['check_id']} {r['status']}"
    yield "summary: 0 failing checks, 2 paper errata flagged"


# each command's text output on a catalog entry, and the facts of its JSON
# payload that the text must state
TEXT_FACTS = {
    "operators": (("--entry", "kt4", "--op", "L", "--pq", "1,0"),
                  lambda p: [f"shape {tuple(p['shape'])}"]
                  + ["[" + ", ".join(row) + "]" for row in p["entries"]]),
    "harmonic": (("--entry", "iwasawa_ak", "--op", "delbar", "--pq", "2,1"),
                 lambda p: [f"dim {p['dim']}", *p["basis"]]
                 + [f"reference basis {c['id']}: spans_space = "
                    f"{c['spans_space']}" for c in p["reference_bases"]]),
    "decompose": (("--entry", "iwasawa_ak",
                   "--form", "phi{13,2} + phi{23,1} - 2*i*phi{23,2}"),
                  lambda p: ["reconstruction exact: True"]
                  + [f"r = {r}: (1/{r}!) L^{r} applied to {beta}"
                     for r, beta in p["components"].items()]),
    "table": (("--entry", "iwasawa_ak", "--op", "delbar"),
              lambda p: [" ".join(map(str, row)) for row in p["table"]]),
    "catalog": ((), lambda p: [f"{row['key']} n={row['n']}"
                               for row in p["entries"]]),
    "report": ((), report_facts),
}


@pytest.mark.parametrize("command", sorted(TEXT_FACTS))
def test_text_output_states_the_json_facts(capsys, command):
    args, facts = TEXT_FACTS[command]
    json_code, json_out, _ = run(capsys, command, *args, "--json")
    code, out, err = run(capsys, command, *args)
    assert code == json_code == 0
    assert err == ""
    text = words(out)
    missing = [fact for fact in facts(json.loads(json_out))
               if words(fact) not in text]
    assert missing == []
    if command == "catalog":
        assert len(out.splitlines()) == len(catalog.keys())


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


@pytest.mark.parametrize("pq", [
    "٠,٠", " 0 , 0 ", "0_0,0", "+0,0", "0,0,0", "1", "-,0",
    "9" * 5000 + ",0"])
def test_malformed_bidegree_exit_2(capsys, pq):
    # only an optional '-' and ASCII digits on each side of the comma
    code, out, err = run(capsys, "operators", "--entry", "kt4", "--op", "L",
                         f"--pq={pq}")
    assert (code, out) == (2, "")
    assert f"--pq expects 'p,q', got {pq!r}" in err


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
    ("symbol F conj G\nsymbol G real\n", 4, "not involutive"),
    ("manifold u\n", 4, "duplicate manifold line"),
    ("dim 6\n", 4, "duplicate dim line"),
    ("coframe phi3 phi4\n", 4, "duplicate coframe line"),
    (UNITARY_OMEGA, 5, "duplicate omega line"),
    ("d phi1 = (1+i*phi{2,2}\n", 4, "col 10: unclosed '('"),
])
def test_malformed_symbols_and_coefficients_exit_2(capsys, tmp_path, body,
                                                   line, message):
    path = tmp_path / "bad.akspec"
    path.write_text(SPEC_HEAD + body + UNITARY_OMEGA)
    code, out, err = run(capsys, "validate", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: line {line}") and message in err


@pytest.mark.parametrize("text, error", [
    # ARABIC-INDIC DIGITS FOUR and ONE, once read as 4 and 1
    ("manifold t\ndim \u0664\ncoframe phi1 phi2\n" + UNITARY_OMEGA,
     "line 2: expected: dim <2n>"),
    (SPEC_HEAD + "omega = \u0661/2*i*phi{1,1} + 1/2*i*phi{2,2}\n",
     "line 4, col 9: unexpected character '\u0661'"),
    (SPEC_HEAD + "omega = 1/2*i*phi{\u0661,\u0661} + 1/2*i*phi{2,2}\n",
     "line 4, col 18: unexpected character '{'"),
])
def test_validate_reads_ascii_digits_only(capsys, tmp_path, text, error):
    path = tmp_path / "digits.akspec"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "validate", "--spec", str(path))
    assert (code, out, err) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("omega", [
    "omega = 0",
    "omega = 1/2*i*phi{1,1}",  # rank 1
    "omega = i*phi{1,1} + phi{1,2} - phi{2,1} + 1/2*i*phi{2,2}",  # det -2
    # H22 = -1 whatever the value of F
    "symbol F real d = 0\nomega = 1/2*i*F*phi{1,1} - 1/2*i*phi{2,2}",
])
def test_validate_fails_a_closed_omega_that_is_not_positive(capsys, tmp_path,
                                                            omega):
    path = tmp_path / "z.akspec"
    path.write_text("manifold z\ndim 4\ncoframe phi1 phi2\n" + omega + "\n")
    code, out, _ = run(capsys, "validate", "--spec", str(path), "--json")
    payload = json.loads(out)
    items = {i["check_id"]: (i["status"], i["detail"])
             for i in payload["items"]}
    assert code == 1 and not payload["ok"]
    assert payload["flags"]["almost_kahler"] is False
    assert items["omega_closed"] == ("Verified", "almost_kahler = false")
    assert items["omega_positive"][0] == "Failed"


def test_validate_verifies_a_positive_non_unitary_omega(capsys, tmp_path):
    path = tmp_path / "z.akspec"
    path.write_text("manifold z\ndim 4\ncoframe phi1 phi2\nomega = "
                    "i*phi{1,1} + 1/4*phi{1,2} - 1/4*phi{2,1} + "
                    "1/2*i*phi{2,2}\n")  # det 7/4
    code, out, _ = run(capsys, "validate", "--spec", str(path), "--json")
    payload = json.loads(out)
    items = {i["check_id"]: (i["status"], i["detail"])
             for i in payload["items"]}
    assert code == 0 and payload["ok"]
    assert payload["flags"]["almost_kahler"] is True
    assert payload["flags"]["unitary_scale"] is None
    assert items["omega_closed"] == ("Verified", "almost_kahler = true")
    assert items["omega_positive"][0] == "Verified"


def test_validate_parenthesizes_a_multi_term_coefficient(capsys, tmp_path):
    # d^2(phi1) = (dF + dG) ^ phi{23,} = (G + F) phi{123,}, which must not
    # read as the different form F + G*phi{123,}
    path = tmp_path / "d2_multi.akspec"
    path.write_text("manifold d2_multi\ndim 6\ncoframe phi1 phi2 phi3\n"
                    "symbol F real d = G*phi{1,}\n"
                    "symbol G real d = F*phi{1,}\n"
                    "d phi1 = F*phi{23,} + G*phi{23,}\n"
                    "omega = 1/2*i*phi{1,1} + 1/2*i*phi{2,2} + "
                    "1/2*i*phi{3,3}\n")
    code, out, err = run(capsys, "validate", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err == ("error: d^2(phi1) = (F + G)*phi{123,} != 0 with all "
                   "derivatives known\n")


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


@pytest.mark.parametrize("form,message", [
    ("phi{1,}*phi{2,}", "--form, col 9: two monomials in one term"),
    ("phi{1,}+", "--form: dangling operator"),
    ("(1/2*phi{1,}", "--form, col 1: unclosed '('"),
    ("1/2)*phi{1,}", "--form, col 4: unmatched ')'"),
    ("()*phi{1,}", "--form, col 1: empty parentheses"),
    ("(phi{1,})*phi{2,}",
     "--form, col 1: a basis monomial inside parentheses"),
    pytest.param("(" * 101 + "1" + ")" * 101 + "*phi{1,}",
                 "--form, col 101: parentheses nested deeper than 100",
                 id="nested_101_deep"),
])
def test_decompose_malformed_form_is_located_at_the_option(capsys, form,
                                                           message):
    code, out, err = run(capsys, "decompose", "--entry", "kt4",
                         "--form", form)
    assert (code, out, err) == (2, "", f"error: {message}\n")


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


# aff(R) x aff(R): Kahler and not unimodular, so it has no compact quotient
AFF2 = (SPEC_HEAD + "d phi1 = -1/2*phi{1,1}\nd phi2 = -1/2*phi{2,2}\n"
        + UNITARY_OMEGA)


def test_non_unimodular_spec_is_inapplicable_and_refused(capsys, tmp_path):
    path = tmp_path / "aff2.akspec"
    path.write_text(AFF2, encoding="utf-8")
    source = ("--spec", str(path))
    assert run(capsys, "validate", *source)[0] == 0
    code, out, err = run(capsys, "verify", *source, "--all", "--json")
    assert (code, err) == (0, "")
    results = json.loads(out)["results"]
    assert [r["check_id"] for r in results] == list(hodge.CHECK_IDS)
    assert {(r["status"], r["detail"]) for r in results} == {
        ("Inapplicable", "not unimodular")}
    # the adjoints of d and its components would not be -*d*
    for argv in (("table", "--op", "d"), ("table", "--op", "delbar"),
                 ("harmonic", "--op", "del", "--pq", "1,1"),
                 ("operators", "--op", "d_star", "--pq", "1,1"),
                 ("operators", "--op", "Delta_d", "--pq", "2,2")):
        code, out, err = run(capsys, argv[0], *source, *argv[1:])
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: spec 't' is not unimodular"), argv
    # decompose and Lambda need no adjoint of d
    code, out, _ = run(capsys, "decompose", *source, "--form", "phi{1,1}",
                       "--json")
    assert code == 0 and json.loads(out)["reconstruction_exact"] is True
    assert run(capsys, "operators", *source, "--op", "Lambda",
               "--pq", "1,1")[0] == 0


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


# Longer than CPython's default 4300-digit limit for converting a string to
# an int; an interpreter without the limit may parse it and give a result.
BIG = "7" * 5000


@pytest.mark.parametrize("body, location", [
    (f"d phi1 = {BIG}*phi{{2,2}}\n", "line 4, col 10"),
    (f"d phi1 = 1/{BIG}*phi{{2,2}}\n", "line 4, col 10"),
    (f"symbol F real d = 0\nd phi1 = F^{BIG}*phi{{2,2}}\n", "line 5, col 11"),
    (None, "line 2, col 5"),
], ids=["coefficient", "denominator", "exponent", "dim"])
def test_validate_oversized_number_exit_2(capsys, tmp_path, body, location):
    path = tmp_path / "big.akspec"
    text = SPEC_HEAD + (body or "") + UNITARY_OMEGA
    path.write_text(text.replace("dim 4", f"dim 4{BIG}") if body is None
                    else text)
    code, out, err = run(capsys, "validate", "--spec", str(path))
    if code == 2:
        assert out == ""
        # without the limit, the dim is merely above MAX_DIM
        assert err.startswith(f"error: {location}: number literal of") or \
            body is None and "exceeds the limit 18" in err
    else:
        assert code in (0, 1) and err == ""


@pytest.mark.parametrize("form", [f"{BIG}*phi{{1,1}}", f"1/{BIG}*phi{{1,1}}"],
                         ids=["coefficient", "denominator"])
def test_decompose_oversized_number_is_located_at_the_option(capsys, form):
    code, out, err = run(capsys, "decompose", "--entry", "kt4",
                         "--form", form)
    if code == 2:
        assert out == ""
        assert err.startswith("error: --form, col 1: number literal of")
    else:
        assert code == 0 and err == ""


# each product of two legal literals, or power of one, has about 4,500 to
# 8,000 digits: beyond CPython's default limit of 4300 for decimal text
LONG = "7" * 4000
UNITARY_N3 = "omega = " + " + ".join(
    f"{'7' * 1500}/2*i*phi{{{j},{j}}}" for j in (1, 2, 3)) + "\n"


@pytest.mark.parametrize("spec_text, argv", [
    (None, ("decompose", "--entry", "kt4",
            "--form", f"{LONG}*{LONG}*phi{{1,1}}")),
    (SPEC_HEAD + f"d phi1 = {LONG}*{LONG}*phi{{2,2}}\n" + UNITARY_OMEGA,
     ("operators", "--op", "d", "--pq", "1,0")),
    ("manifold t\ndim 6\ncoframe phi1 phi2 phi3\n" + UNITARY_N3,
     ("operators", "--op", "star", "--pq", "0,0")),
    (SPEC_HEAD + f"omega = {LONG}*{LONG}/2*i*phi{{1,1}} + "
     f"{LONG}*{LONG}/2*i*phi{{2,2}}\n", ("validate",)),
], ids=["decompose_product", "operators_d_product", "operators_star_cube",
        "validate_scale"])
def test_number_too_long_to_print_exit_2(capsys, tmp_path, spec_text, argv):
    source = "--form"  # decompose_product's number comes from the option
    if spec_text is not None:
        source = str(tmp_path / "long.akspec")
        Path(source).write_text(spec_text)
        argv += ("--spec", source)
    code, out, err = run(capsys, *argv)
    if code == 2:
        assert out == ""
        assert err == (f"error: {source}: a number of more than "
                       f"{sys.get_int_max_str_digits()} digits is too long "
                       "to print\n")
    else:  # an interpreter without the limit prints the number
        assert code in (0, 1) and err == ""


@pytest.mark.parametrize("body, location", [
    ("d phi1 = 1/2*phi{2,2} + q*phi{1,}\n" + UNITARY_OMEGA, "line 4, col 25"),
    ("  d phi1 = q*phi{1,2}\n" + UNITARY_OMEGA, "line 4, col 12"),
    ("omega = 1/2*i*phi{1,1} + q*phi{2,2}\n", "line 4, col 26"),
    ("symbol F real d = q*phi{1,}\n" + UNITARY_OMEGA, "line 4, col 19"),
], ids=["d", "indented_d", "omega", "symbol_derivative"])
def test_unknown_symbol_column_counts_from_line_start(capsys, tmp_path, body,
                                                      location):
    path = tmp_path / "bad.akspec"
    path.write_text(SPEC_HEAD + body)
    code, out, err = run(capsys, "validate", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {location}: unknown symbol 'q'\n"
