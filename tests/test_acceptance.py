"""Acceptance suite: one test per criterion, exact arithmetic throughout
(zero tolerance), printing one PASS line per criterion.

Two sub-assertions of criteria 1 and 2 freeze values from the worked
example that exact arithmetic refutes (see notes in the strict-xfail tests
below: a missing factor i in the third harmonic generator, and a
non-membership claim whose form actually decomposes).  Those are implemented
faithfully as stated and marked xfail(strict=True), so the suite stays
honest: they run, they must keep failing, and the corrected content is
asserted green alongside.  Everything else passes as written.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import random

import pytest

from akhodge import catalog, hodge, operators as ops
from akhodge.cli import main as cli_main
from akhodge.model import (RealFramePresentation, complexify, parse_form,
                           parse_spec, real_two_form, render_spec)
from akhodge.scalars import Nonzeroness

import properties_util as props


def F(text, spec):
    return parse_form(text, spec.n, spec.symbols)


def _ok(criterion: str, message: str) -> None:
    print(f"[acceptance] criterion {criterion}: PASS - {message}")


# -- criterion 1 -----------------------------------------------------------------

def test_criterion_1_iwasawa_21_space(entries):
    spec = entries["iwasawa_ak"].spec
    space = hodge.harmonic_space(spec, "delbar", (2, 1))
    assert space.dim == 3
    g1 = F("phi{13,1} + phi{23,2}", spec)
    eta = F("phi{13,2} + phi{23,1} - 2*i*phi{23,2}", spec)
    w = F("phi{13,3} + i*phi{23,3}", spec)
    assert space.member(g1) and space.member(eta) and space.member(w)
    assert space == hodge.Subspace.from_forms(3, (2, 1), [g1, eta, w])
    _ok("1", "invariant H^{2,1}_delbar has dim 3; span matches the printed "
        "basis up to the erratum in the third generator (needs a factor i)")


@pytest.mark.xfail(strict=True, reason=(
    "paper erratum (see decisions ledger): the printed third generator "
    "phi{13,3} + phi{23,3} is not delbar-harmonic under any diagonal metric; "
    "exact arithmetic from the printed structure equations forces "
    "phi{13,3} + i*phi{23,3}.  Confirmed by an independent sympy oracle."))
def test_criterion_1_paper_literal_span(entries):
    spec = entries["iwasawa_ak"].spec
    space = hodge.harmonic_space(spec, "delbar", (2, 1))
    paper_span = hodge.Subspace.from_forms(3, (2, 1), [
        F("phi{13,1} + phi{23,2}", spec),
        F("phi{13,2} + phi{23,1} - 2*i*phi{23,2}", spec),
        F("phi{13,3} + phi{23,3}", spec)])
    assert space == paper_span


# -- criterion 2 -----------------------------------------------------------------

def test_criterion_2_L_line_and_strictness(entries):
    spec = entries["iwasawa_ak"].spec
    lifted = hodge.L_power_image(
        spec, hodge.harmonic_space(spec, "delbar", (1, 0)), 1)
    assert lifted == hodge.line_of(spec, F("phi{13,1} + phi{23,2}", spec))
    H = hodge.harmonic_space(spec, "delbar", (2, 1))
    prim = H.intersect(hodge.primitive_subspace(spec, (2, 1)))
    total = prim.sum(lifted)
    # the decomposable part is a proper 2-dimensional subspace; the witness
    # outside it is the (corrected) third generator
    assert total.dim == 2 < H.dim
    assert not total.member(F("phi{13,3} + i*phi{23,3}", spec))
    _ok("2", "L(H^{1,0}_delbar) is exactly the printed line; the inclusion "
        "into H^{2,1}_delbar is strict (witness phi{13,3} + i*phi{23,3})")


@pytest.mark.xfail(strict=True, reason=(
    "paper erratum (see decisions ledger): eta = (eta + i g1) + L(phi3) with "
    "eta + i g1 primitive and harmonic and phi3 delbar-harmonic, so eta IS "
    "a member of (H^{2,1} cap P^{2,1}) + L(H^{1,0}); the paper's one-line "
    "non-membership inference overlooks the L(H^{1,0}) freedom.  The "
    "strictness proposition itself survives with a different witness."))
def test_criterion_2_paper_literal_membership(entries):
    spec = entries["iwasawa_ak"].spec
    H = hodge.harmonic_space(spec, "delbar", (2, 1))
    prim = H.intersect(hodge.primitive_subspace(spec, (2, 1)))
    lifted = hodge.L_power_image(
        spec, hodge.harmonic_space(spec, "delbar", (1, 0)), 1)
    total = prim.sum(lifted)
    eta = F("phi{13,2} + phi{23,1} - 2*i*phi{23,2}", spec)
    assert not total.member(eta)


# -- criterion 3 -----------------------------------------------------------------

def test_criterion_3_iwasawa_complexification():
    real = RealFramePresentation(
        n=3,
        de={5: real_two_form([(-1, 1, 3), (1, 2, 4)]),
            6: real_two_form([(-1, 1, 4), (-1, 2, 3)])},
        pairing=((1, 6), (2, 5), (3, 4)))
    derived = complexify(real)
    # 4 d(phi1) and 4 d(phi2) exactly as printed
    printed_4dphi1 = parse_form(
        "-phi{13,} - i*phi{23,} + phi{1,3} + phi{3,1} - i*phi{2,3} "
        "+ i*phi{3,2} + phi{,13} - i*phi{,23}", 3)
    printed_4dphi2 = parse_form(
        "-i*phi{13,} + phi{23,} - i*phi{1,3} + i*phi{3,1} - phi{2,3} "
        "- phi{3,2} - i*phi{,13} - phi{,23}", 3)
    assert derived[1] * 4 == printed_4dphi1
    assert derived[2] * 4 == printed_4dphi2
    assert 3 not in derived
    _ok("3", "complexify reproduces 4*d(phi1), 4*d(phi2) exactly as printed "
        "and d(phi3) = 0")


# -- criterion 4 -----------------------------------------------------------------

def test_criterion_4_ex42_identities(entries):
    spec = entries["torus6_f"].spec
    source = F("phi{1,3}", spec)
    mubar = ops.component(spec, "mubar", source)
    assert mubar == F("1/4*F*phi{,123}", spec)
    assert ops.component(spec, "mu", source).is_zero()
    ((_, coeff),) = mubar.terms()
    assert coeff.classify(spec.symbols) is Nonzeroness.NONZERO_DECLARED
    _ok("4", "mubar(Phi^{1 3bar}) = (1/4) f' Phi^{1bar 2bar 3bar} with "
        "NonzeroDeclared coefficient and mu(Phi^{1 3bar}) = 0")


# -- criterion 5 -----------------------------------------------------------------

def test_criterion_5_ex43_identities(entries):
    spec = entries["h12_t3"].spec
    source = F("phi{1,4}", spec)
    assert ops.component(spec, "mubar", source) == \
        F("-1/4*i*phi{,234}", spec)
    assert ops.component(spec, "mu", source).is_zero()
    row = hodge.forms_to_rows([source], (1, 1), spec.n)
    diff = ops.laplacian_matrix(spec, "delbar", (1, 1)) - \
        ops.laplacian_matrix(spec, "del", (1, 1))
    assert not diff.apply(row).is_zero()
    assert hodge.harmonic_space(spec, "delbar", (1, 1)) == \
        hodge.harmonic_space(spec, "del", (1, 1))
    _ok("5", "mubar(psi^{1 4bar}) = -(i/4) psi^{2bar 3bar 4bar}, "
        "mu = 0, (Delta_delbar - Delta_del)(psi^{1 4bar}) != 0, and the "
        "invariant (1,1) kernels coincide")


# -- criterion 6 -----------------------------------------------------------------

def test_criterion_6_ex45_separation(entries):
    spec = entries["torus6_g"].spec
    form = F("phi{1,2}", spec)
    # the star route the example computes explicitly
    assert ops.hodge_star(spec, form) == -(spec.omega.wedge(form))
    harmonic = hodge.harmonic_membership(spec, "del", form)
    assert harmonic.status == "Harmonic"
    not_harmonic = hodge.harmonic_membership(spec, "delbar", form)
    assert not_harmonic.status == "NotHarmonic"
    assert not_harmonic.witness == F("V3g*phi{3,12}", spec)
    assert not_harmonic.witness_class is Nonzeroness.NONZERO_DECLARED
    _ok("6", "phi^{1 2bar} is Delta_del-harmonic but not "
        "Delta_delbar-harmonic, witness V3(g) phi^{3 1bar 2bar}")


# -- criterion 7 -----------------------------------------------------------------

def test_criterion_7_theorem_suite(cc_entries):
    main_checks = ("prop31", "prop32", "cor33", "thm34", "cor35", "lemma44",
                   "lemma46", "lemma47", "lemma48", "cw_identity",
                   "hd_lefschetz", "h10_identity")
    for key in ("iwasawa_ak", "h12_t3", "torus6_flat", "kt4"):
        spec = cc_entries[key].spec
        for check in main_checks:
            report = hodge.verify(spec, check)
            assert report.status == "Holds", (key, check, report.detail)
    for key in ("kt4", "torus4_flat"):
        assert hodge.verify(cc_entries[key].spec, "prop41").status == "Holds"
    strict = hodge.verify(cc_entries["iwasawa_ak"].spec, "inclusion21")
    assert strict.status == "Holds" and strict.strict is True
    equal = hodge.verify(cc_entries["torus6_flat"].spec, "inclusion21")
    assert equal.status == "Holds" and equal.strict is False
    _ok("7", "all twelve decomposition checks Hold on the four "
        "constant-coefficient almost-Kahler entries; prop41 Holds in "
        "dimension 4; inclusion21 strict exactly on iwasawa_ak")


# -- criterion 8 -----------------------------------------------------------------

def test_criterion_8_property_suites(cc_entries):
    specs = [entry.spec for entry in cc_entries.values()]
    counts = {}
    counts["seven_relations"] = sum(props.seven_relations_cases(s)
                                    for s in specs)
    counts["double_star"] = sum(props.double_star_cases(s) for s in specs)
    counts["lambda_star_formula"] = sum(props.lambda_star_formula_cases(s)
                                        for s in specs)
    counts["primitive_kernel_equiv"] = sum(
        props.primitive_kernel_equivalence_cases(s) for s in specs)
    counts["star_primitive_eq"] = sum(props.star_primitive_formula_cases(s)
                                      for s in specs)
    counts["adjoint_gram"] = sum(props.adjoint_gram_cases(s) for s in specs)
    rng = random.Random(2024)
    counts["laplacian_psd_random"] = sum(
        props.laplacian_psd_cases(s, rng, per_matrix=4) for s in specs)
    counts["decompose_roundtrip"] = sum(
        props.decomposition_roundtrip_cases(s, rng, count=1000)
        for s in specs)
    counts["L_Lambda_commutator"] = sum(props.commutator_cases(s)
                                        for s in specs)
    counts["harmonic_dualities"] = sum(props.duality_cases(s) for s in specs)
    # randomized suites carry >= 1000 cases; the rest are exhaustive over
    # bases/matrices of every entry
    assert counts["laplacian_psd_random"] >= 1000
    assert counts["decompose_roundtrip"] == 1000 * len(specs)
    for name, value in counts.items():
        assert value > 0, name
    _ok("8", "property suites verified exhaustively/randomized: " +
        ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))


# -- criterion 9 -----------------------------------------------------------------

def test_criterion_9_roundtrip_and_errors(tmp_path, capsys):
    for key in catalog.keys():
        spec = catalog.get(key).spec
        assert parse_spec(render_spec(spec)) == spec, key
    bad = tmp_path / "broken.akspec"
    bad.write_text("manifold broken\ndim 6\ncoframe phi1 phi2 phi3\n"
                   "d phi1 = phi{123,}\n"
                   "omega = 1/2*i*phi{1,1} + 1/2*i*phi{2,2} + "
                   "1/2*i*phi{3,3}\n")
    code = cli_main(["validate", "--spec", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert "line 4" in captured.err
    worse = tmp_path / "syntax.akspec"
    worse.write_text("manifold x\ndim 6\ncoframe phi1 phi2 phi3\n"
                     "omega = 1/2*i*phi{1,1} + $\n")
    code = cli_main(["validate", "--spec", str(worse)])
    captured = capsys.readouterr()
    assert code == 2
    assert "line 4" in captured.err
    _ok("9", "parse(render(spec)) = spec for all seven entries; malformed "
        "inputs give position-annotated errors and exit code 2")
