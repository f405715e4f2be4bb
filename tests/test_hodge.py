import dataclasses
import json
import random
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
import sympy

from akhodge import catalog, hodge, operators as ops, reports
from akhodge.exterior import BasisMonomial, Form, basis_of
from akhodge.linalg import Matrix
from akhodge.model import parse_form, parse_spec
from akhodge.scalars import GaussianRational, Nonzeroness, SymScalar

from oracles import (brute_component_matrix, letter_basis, matrix_to_sympy,
                     same_row_space)


def F(text, spec):
    return parse_form(text, spec.n, spec.symbols)


def all_bidegrees(n):
    return [(p, q) for p in range(n + 1) for q in range(n + 1)]


# -- harmonic spaces ------------------------------------------------------------

def test_iwasawa_21_harmonic_space(entries):
    spec = entries["iwasawa_ak"].spec
    space = hodge.harmonic_space(spec, "delbar", (2, 1))
    assert space.dim == 3
    # the two generators the paper prints correctly
    assert space.member(F("phi{13,1} + phi{23,2}", spec))
    assert space.member(F("phi{13,2} + phi{23,1} - 2*i*phi{23,2}", spec))
    # the engine's third generator (paper erratum: printed without the i)
    assert space.member(F("phi{13,3} + i*phi{23,3}", spec))
    assert not space.member(F("phi{13,3} + phi{23,3}", spec))


def test_iwasawa_21_against_sympy_oracle(entries):
    # independent route: brute-force delbar matrices + sympy nullspace;
    # with scale 2 the Gram is the identity, so the harmonic space is
    # ker(delbar) cap ker(delbar-from-(2,0) conjugate-transposed)
    spec = entries["iwasawa_ak"].spec
    A = brute_component_matrix(spec, "delbar", 2, 1)
    B = brute_component_matrix(spec, "delbar", 2, 0)
    stacked = A.col_join(B.conjugate().T)
    kernel = stacked.nullspace()
    assert len(kernel) == 3
    mine = hodge.harmonic_space(spec, "delbar", (2, 1))
    rows = sympy.Matrix.hstack(*kernel).T
    engine_rows = matrix_to_sympy(mine.basis)
    assert same_row_space(rows, engine_rows)


def test_flat_torus_everything_harmonic(cc_entries):
    spec = cc_entries["torus6_flat"].spec
    for pq in all_bidegrees(3):
        space = hodge.harmonic_space(spec, "delbar", pq)
        assert space.dim == comb(3, pq[0]) * comb(3, pq[1])


def test_h12_kernels_coincide(cc_entries):
    spec = cc_entries["h12_t3"].spec
    a = hodge.harmonic_space(spec, "delbar", (1, 1))
    b = hodge.harmonic_space(spec, "del", (1, 1))
    assert a == b


def test_harmonic_guards(entries):
    with pytest.raises(ops.NotConstantCoefficientError):
        hodge.harmonic_space(entries["torus6_g"].spec, "delbar", (1, 1))
    # constant-coefficient but the metric is not a uniform unitary rescaling
    lopsided = parse_spec("""
manifold lopsided
dim 4
coframe phi1 phi2
omega = i*phi{1,1} + 1/2*i*phi{2,2}
""")
    with pytest.raises(ops.NotUnitaryModeError):
        hodge.harmonic_space(lopsided, "delbar", (1, 1))


# -- membership (symbolic mode) ---------------------------------------------------

def test_ex45_membership(entries):
    spec = entries["torus6_g"].spec
    f = F("phi{1,2}", spec)
    not_harm = hodge.harmonic_membership(spec, "delbar", f)
    assert not_harm.status == "NotHarmonic"
    assert not_harm.witness == F("V3g*phi{3,12}", spec)
    assert not_harm.witness_class is Nonzeroness.NONZERO_DECLARED
    harm = hodge.harmonic_membership(spec, "del", f)
    assert harm.status == "Harmonic"


def test_omega_always_delbar_harmonic(entries):
    for key in ("torus6_g", "iwasawa_ak", "h12_t3"):
        spec = entries[key].spec
        assert spec.almost_kahler
        result = hodge.harmonic_membership(spec, "delbar", spec.omega)
        assert result.status == "Harmonic"


def test_membership_unknown_on_opaque(entries):
    spec = parse_spec("""
manifold opaque_test
dim 4
coframe phi1 phi2
symbol W real d = opaque
omega = 1/2*i*phi{1,1} + 1/2*i*phi{2,2}
""")
    f = Form.generator(1) * SymScalar.symbol("W")
    result = hodge.harmonic_membership(spec, "delbar", f)
    assert result.status == "Unknown"
    assert "W" in result.reason


# -- primitive subspaces and decomposition -----------------------------------------

def test_primitive_dims_flat(cc_entries):
    spec = cc_entries["torus6_flat"].spec
    assert hodge.primitive_subspace(spec, (1, 1)).dim == 8
    assert hodge.primitive_subspace(spec, (2, 0)).dim == 3  # all of (2,0)
    assert hodge.primitive_subspace(spec, (2, 1)).dim == 6
    for p in range(4):
        assert hodge.primitive_subspace(spec, (p, 0)).dim == comb(3, p)


def test_primitive_subspace_cross_check_runs(cc_entries):
    # ker Lambda == ker L^{n-k+1} is asserted inside; run over everything
    for entry in cc_entries.values():
        spec = entry.spec
        for pq in all_bidegrees(spec.n):
            hodge.primitive_subspace(spec, pq)


def test_high_degree_primitives_vanish(cc_entries):
    for entry in cc_entries.values():
        spec = entry.spec
        n = spec.n
        for pq in all_bidegrees(n):
            if pq[0] + pq[1] > n:
                assert hodge.primitive_subspace(spec, pq).dim == 0


def test_decompose_omega(cc_entries):
    # L(beta_0) = omega forces beta_0 = 1, and the (1,1) primitive part is 0
    for entry in cc_entries.values():
        spec = entry.spec
        decomposition = hodge.primitive_decompose(spec, spec.omega)
        assert decomposition.components == {1: Form.one()}


def test_decompose_primitive_is_identity(cc_entries):
    spec = cc_entries["torus6_flat"].spec
    f = F("phi{1,2}", spec)
    decomposition = hodge.primitive_decompose(spec, f)
    assert decomposition.components == {0: f}


def test_decompose_iwasawa_eta(entries):
    # frozen from the sympy solve of the 2-block system: the primitive part
    # is eta + i*(phi{13,1} + phi{23,2}) and the L-part lifts phi3
    spec = entries["iwasawa_ak"].spec
    eta = F("phi{13,2} + phi{23,1} - 2*i*phi{23,2}", spec)
    decomposition = hodge.primitive_decompose(spec, eta)
    assert decomposition.components[1] == Form.generator(3)
    expected_beta = F(
        "i*phi{13,1} + phi{13,2} + phi{23,1} - i*phi{23,2}", spec)
    assert decomposition.components[0] == expected_beta
    assert not decomposition.components[0].is_zero()
    assert decomposition.reconstruct(spec) == eta
    assert ops.dual_Lambda(spec, expected_beta).is_zero()


def test_decompose_reconstruction_random(cc_entries):
    rng = random.Random(101)
    for entry in cc_entries.values():
        spec = entry.spec
        n = spec.n
        for _ in range(50):
            pq = (rng.randint(0, n), rng.randint(0, n))
            monos = basis_of(pq, n)
            picks = rng.sample(monos, k=min(len(monos), rng.randint(1, 3)))
            form = Form({m: SymScalar.const(GaussianRational(
                Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
                Fraction(rng.randint(-6, 6), rng.randint(1, 3))))
                for m in picks})
            decomposition = hodge.primitive_decompose(spec, form)
            assert decomposition.reconstruct(spec) == form
            for r, beta in decomposition.components.items():
                assert ops.dual_Lambda(spec, beta).is_zero()


# -- subspace algebra ----------------------------------------------------------

def test_subspace_intersect_self(cc_entries):
    spec = cc_entries["iwasawa_ak"].spec
    V = hodge.harmonic_space(spec, "delbar", (2, 1))
    assert V.intersect(V) == V
    assert V.sum(V) == V
    assert V.contains(V)


def test_subspace_intersect_matches_dimension_formula():
    # random subspaces of Lambda^{1,1} at n = 3 (dimension 9), with a shared
    # part so the intersection is nontrivial; dim(U ^ V) is checked against
    # sympy ranks and every basis vector must lie in both spaces
    rng = random.Random(5)
    for trial in range(12):
        def rows(k):
            return [[GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
                     for _ in range(9)] for _ in range(k)]
        shared = rows(trial % 3)
        U = hodge.Subspace((1, 1), 3, Matrix.from_rows(shared + rows(3), 9))
        V = hodge.Subspace((1, 1), 3, Matrix.from_rows(rows(4) + shared, 9))
        meet = U.intersect(V)
        both = matrix_to_sympy(U.basis).col_join(matrix_to_sympy(V.basis))
        assert meet.dim == U.dim + V.dim - both.rank()
        assert U.contains(meet) and V.contains(meet)
        assert meet == V.intersect(U)


def test_membership_criterion2_engine_value(entries):
    # The spec froze `member = false` from the paper; exact arithmetic shows
    # eta = (eta + i g1) + L(phi3) IS in the direct sum (paper erratum), and
    # the strictness witness is the third harmonic generator instead.
    spec = entries["iwasawa_ak"].spec
    H = hodge.harmonic_space(spec, "delbar", (2, 1))
    prim = H.intersect(hodge.primitive_subspace(spec, (2, 1)))
    lifted = hodge.L_power_image(
        spec, hodge.harmonic_space(spec, "delbar", (1, 0)), 1)
    total = prim.sum(lifted)
    eta = F("phi{13,2} + phi{23,1} - 2*i*phi{23,2}", spec)
    assert total.member(eta)
    assert not total.member(F("phi{13,3} + i*phi{23,3}", spec))
    assert total.dim == 2 < H.dim


def test_L_image_of_h10(entries):
    spec = entries["iwasawa_ak"].spec
    h10 = hodge.harmonic_space(spec, "delbar", (1, 0))
    assert h10.dim == 1
    assert h10.member(Form.generator(3))
    lifted = hodge.L_power_image(spec, h10, 1)
    assert lifted.dim == 1
    assert lifted == hodge.line_of(spec, F("phi{13,1} + phi{23,2}", spec))


def test_L_power_image_out_of_range_is_zero_at_the_final_bidegree(entries):
    spec = entries["iwasawa_ak"].spec
    h10 = hodge.harmonic_space(spec, "delbar", (1, 0))
    assert hodge.L_power_image(spec, h10, 0) == h10
    assert hodge.L_power_image(spec, h10, 2).dim == 1
    beyond = hodge.L_power_image(spec, h10, 3)
    assert beyond.ambient == (4, 3) and beyond.dim == 0
    assert beyond == hodge.Subspace.zero(3, (4, 3))


def test_primitive_harmonic_is_the_cached_intersection(cc_entries):
    for entry in cc_entries.values():
        spec = entry.spec
        for D in ("delbar", "del", "d"):
            for pq in all_bidegrees(spec.n):
                space = hodge.primitive_harmonic(spec, D, pq)
                assert space == hodge.harmonic_space(spec, D, pq).intersect(
                    hodge.primitive_subspace(spec, pq))
                assert hodge.primitive_harmonic(spec, D, pq) is space


def test_coordinates_of_matches_sympy():
    # random subspaces of Lambda^{2,0} at n = 4 (dimension 6); members are
    # random combinations of the spanning rows, non-members random vectors
    rng = random.Random(17)

    def vector():
        return [GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                                 rng.randint(-2, 2)) for _ in range(6)]

    members = non_members = 0
    for _ in range(30):
        rows = [vector() for _ in range(rng.randint(0, 5))]
        space = hodge.Subspace((2, 0), 4, Matrix.from_rows(rows, 6))
        basis = matrix_to_sympy(space.basis)
        assert basis.rank() == space.dim == \
            matrix_to_sympy(Matrix.from_rows(rows, 6)).rank()
        weights = [GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
                   for _ in rows]
        member = [sum((w * row[j] for w, row in zip(weights, rows)),
                      GaussianRational(0)) for j in range(6)]
        for vec in (member, vector()):
            target = matrix_to_sympy(Matrix.from_rows([vec], 6))
            inside = basis.col_join(target).rank() == space.dim
            coords = space.coordinates_of(vec)
            assert space.member(vec) == inside == (coords is not None)
            if inside:
                members += 1
                combo = matrix_to_sympy(Matrix.from_rows([coords], space.dim))
                product = combo * basis if space.dim else sympy.zeros(1, 6)
                assert (product - target).expand().is_zero_matrix
            else:
                non_members += 1
    assert members >= 30 and non_members >= 20


def test_ambient_mismatch():
    spec = catalog.get("torus6_flat").spec
    a = hodge.Subspace.full(3, (1, 1))
    b = hodge.Subspace.full(3, (2, 1))
    with pytest.raises(hodge.AmbientMismatchError):
        a.intersect(b)


def test_nullspace_correctness_property(cc_entries):
    # for V = ker M: M v = 0 for all basis v and rank M + dim V = dim source
    for entry in cc_entries.values():
        spec = entry.spec
        for pq in all_bidegrees(spec.n):
            M = ops.laplacian_matrix(spec, "delbar", pq)
            V = hodge.harmonic_space(spec, "delbar", pq)
            for row in V.basis.data:
                assert all(not a for a in M.apply(row))
            assert M.rank() + V.dim == M.cols


# -- dualities -------------------------------------------------------------------

def test_conjugation_duality(cc_entries):
    for entry in cc_entries.values():
        spec = entry.spec
        n = spec.n
        for pq in all_bidegrees(n):
            delbar_space = hodge.harmonic_space(spec, "delbar", pq)
            conj_forms = [f.conj(spec.symbols) for f in delbar_space.forms()]
            image = hodge.Subspace.from_forms(n, (pq[1], pq[0]), conj_forms)
            del_space = hodge.harmonic_space(spec, "del", (pq[1], pq[0]))
            assert image == del_space


def test_star_duality(cc_entries):
    # star maps H^{1,1}_del onto H^{n-1,n-1}_delbar
    for entry in cc_entries.values():
        spec = entry.spec
        n = spec.n
        src = hodge.harmonic_space(spec, "del", (1, 1))
        image = hodge.Subspace.from_forms(
            n, (n - 1, n - 1),
            [ops.hodge_star(spec, f) for f in src.forms()])
        target = hodge.harmonic_space(spec, "delbar", (n - 1, n - 1))
        assert image == target


def test_hodge_table(cc_entries):
    flat = cc_entries["torus6_flat"].spec
    table = hodge.hodge_table(flat, "delbar")
    assert table == [[comb(3, p) * comb(3, q) for q in range(4)]
                     for p in range(4)]
    iw = cc_entries["iwasawa_ak"].spec
    assert hodge.hodge_table(iw, "delbar")[2][1] == 3
    # conjugation symmetry between the two tables
    t_delbar = hodge.hodge_table(iw, "delbar")
    t_del = hodge.hodge_table(iw, "del")
    for p in range(4):
        for q in range(4):
            assert t_delbar[p][q] == t_del[q][p]
    assert t_del[1][2] == 3


# -- verification suite -----------------------------------------------------------

def test_verify_statuses_match_criterion7(cc_entries):
    main_checks = ["prop31", "prop32", "cor33", "thm34", "cor35", "lemma44",
                   "lemma46", "lemma47", "lemma48", "cw_identity",
                   "hd_lefschetz", "h10_identity"]
    for key in ("iwasawa_ak", "h12_t3", "torus6_flat", "kt4"):
        spec = cc_entries[key].spec
        for check in main_checks:
            assert hodge.verify(spec, check).status == "Holds", (key, check)
    for key in ("kt4", "torus4_flat"):
        assert hodge.verify(cc_entries[key].spec, "prop41").status == "Holds"
    iw = hodge.verify(cc_entries["iwasawa_ak"].spec, "inclusion21")
    assert iw.status == "Holds" and iw.strict is True
    assert iw.witnesses == ["phi{13,3} + i*phi{23,3}"]
    flat = hodge.verify(cc_entries["torus6_flat"].spec, "inclusion21")
    assert flat.status == "Holds" and flat.strict is False


def test_verify_inapplicable_on_symbolic(entries):
    report = hodge.verify(entries["torus6_g"].spec, "thm34")
    assert report.status == "Inapplicable"


def test_verify_prop41_inapplicable_high_dim(cc_entries):
    assert hodge.verify(cc_entries["iwasawa_ak"].spec, "prop41").status == \
        "Inapplicable"


def test_verify_unknown_check(cc_entries):
    with pytest.raises(ValueError):
        hodge.verify(cc_entries["kt4"].spec, "nonsense")


def test_failing_check_carries_witness():
    # a non-almost-Kahler constant spec: d(phi1) = phi{23,} keeps d^2 = 0 but
    # omega is no longer closed, so almost-Kahler checks are Inapplicable
    spec = parse_spec("""
manifold not_ak
dim 6
coframe phi1 phi2 phi3
d phi1 = phi{23,}
omega = 1/2*i*phi{1,1} + 1/2*i*phi{2,2} + 1/2*i*phi{3,3}
""")
    assert not spec.almost_kahler
    assert hodge.verify(spec, "thm34").status == "Inapplicable"
    assert hodge.verify(spec, "cor33").status in ("Holds", "Fails")


def test_report_runs_each_theorem_check_once_per_spec(monkeypatch):
    # a fresh spec, so the session-wide catalog.get entries stay untouched
    spec = parse_spec(catalog.dsl_source("kt4"))
    entry = dataclasses.replace(catalog.get("kt4"), spec=spec)
    calls = {check_id: 0 for check_id in hodge.CHECK_IDS}

    def counted(check_id, fn):
        def run(spec):
            calls[check_id] += 1
            return fn(spec)
        return run

    for check_id, (fn, needs_ak) in list(hodge._CHECKS.items()):
        monkeypatch.setitem(hodge._CHECKS, check_id,
                            (counted(check_id, fn), needs_ak))
    hodge.verify_all(spec)
    rows = reports.run_entry_expectations(entry)
    assert any(row["check_id"].startswith("verify:") for row in rows)
    assert sum(calls.values()) > 0
    assert max(calls.values()) == 1, calls


@pytest.mark.parametrize("call", [
    lambda spec, pq: ops.operator_block(spec, "d", pq),
    lambda spec, pq: ops.operator_matrix(spec, "delbar", pq),
    lambda spec, pq: ops.operator_matrix(spec, "Delta_d", pq),
    lambda spec, pq: ops.operator_matrix(spec, "Delta_del", pq),
    lambda spec, pq: hodge.harmonic_space(spec, "delbar", pq),
    lambda spec, pq: hodge.harmonic_space(spec, "d", pq),
    lambda spec, pq: hodge.primitive_subspace(spec, pq),
], ids=["operator_block", "operator_matrix", "Delta_d", "Delta_del",
        "harmonic_space", "harmonic_space_d", "primitive_subspace"])
@pytest.mark.parametrize("pq", [(7, 0), (-1, 0), (0, 3), (2, -1)])
def test_out_of_range_bidegree_raises(cc_entries, call, pq):
    spec = cc_entries["kt4"].spec
    with pytest.raises(ValueError, match=r"outside 0\.\.2"):
        call(spec, pq)


# -- the benchmark's H(1,2)-type ladder ------------------------------------------

RECORDED = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                       / "expected.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("n", [3, 4])
def test_ladder_delbar_tables_match_recorded(ladder, n):
    assert hodge.hodge_table(ladder(n), "delbar") == \
        RECORDED["ladder_table"][str(n)]


def test_ladder_n4_verify_all_has_no_fails(ladder):
    statuses = {r.check_id: r.status for r in hodge.verify_all(ladder(4))}
    assert "Fails" not in statuses.values()
    assert statuses["prop41"] == "Inapplicable"  # needs n = 2
    assert list(statuses.values()).count("Holds") == len(statuses) - 1
