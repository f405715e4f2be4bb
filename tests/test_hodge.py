import dataclasses
import hashlib
import json
import random
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
import sympy

from akhodge import catalog, hodge, operators as ops, reports
from akhodge.exterior import (BasisMonomial, Form, basis_of, bidegree_dim,
                              bidegrees_of_degree)
from akhodge.cli import main
from akhodge.linalg import Matrix, kernel_of_reduced
from akhodge.model import parse_form, parse_spec
from akhodge.scalars import (GaussianRational, Nonzeroness, NotConstantError,
                             SymScalar)

from oracles import (brute_component_matrix, dense, dual_Lambda,
                     full_subspace, matrix_to_sympy, one_form,
                     pointwise_membership, same_row_space,
                     transposed_stack_intersect)


def F(text, spec):
    return parse_form(text, spec.n, spec.symbols)


def all_bidegrees(n):
    return [(p, q) for p in range(n + 1) for q in range(n + 1)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_forms_to_rows_round_trip(n):
    rng = random.Random(n)

    def value():
        return GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 8)),
                                Fraction(rng.randint(-9, 9), rng.randint(1, 8)))

    for pq in all_bidegrees(n):
        monos = basis_of(pq, n)
        forms = [Form({m: SymScalar.const(value())
                       for m in rng.sample(monos, rng.randint(0, len(monos)))})
                 for _ in range(4)]
        rows = hodge.forms_to_rows(forms, pq, n)
        assert hodge.rows_to_forms(rows, pq, n) == forms


@pytest.mark.parametrize("n", [2, 3, 4])
def test_component_rows_match_forms_to_rows_per_component(n):
    # seeded mixed-bidegree forms, the zero form included: one (pq, row)
    # per pure component, ascending, each row that of forms_to_rows
    rng = random.Random(40 + n)
    monos = [m for pq in all_bidegrees(n) for m in basis_of(pq, n)]
    for size in [0] + [rng.randint(1, 12) for _ in range(30)]:
        form = Form({m: GaussianRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 8)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 8)))
            for m in rng.sample(monos, size)})
        assert hodge.component_rows(form, n) == [
            (pq, hodge.forms_to_rows([comp], pq, n))
            for pq, comp in form.components().items()]
    symbolic = Form.monomial(monos[-1]) + Form.monomial(
        monos[0], SymScalar.symbol("F"))
    with pytest.raises(NotConstantError):
        hodge.component_rows(symbolic, n)


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


# -- membership ------------------------------------------------------------------

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


def test_membership_names_the_first_opaque_symbol_in_term_order(entries):
    # ext_d reads terms by (I, J): phi{1,} before phi{2,}, whatever order
    # the form was written in
    spec = entries["torus6_g"].spec
    result = hodge.harmonic_membership(
        spec, "delbar", F("V3g*phi{2,} + V3g_bar*phi{1,}", spec))
    assert (result.status, result.reason) == (
        "Unknown", "needs d(V3g_bar), declared opaque")
    # over the whole form, not component by component: phi{12,...} comes
    # before phi{2,...} whichever bidegree is lower
    for text in ("V3g*phi{2,} + V3g_bar*phi{12,1}",
                 "V3g_bar*phi{12,} + V3g*phi{2,1}"):
        for D in ("del", "delbar"):
            result = hodge.harmonic_membership(spec, D, F(text, spec))
            assert (result.status, result.reason) == (
                "Unknown", "needs d(V3g_bar), declared opaque"), (text, D)


class _Unread:
    """A block that fails the test when anything reads it."""

    def __getattr__(self, name):
        raise AssertionError(f"E.{name} read after A alpha != 0")


def test_membership_failing_A_never_reads_E(entries, monkeypatch):
    spec = entries["kt4"].spec
    form = F("phi{2,}", spec)
    A, _ = hodge.harmonic_equations(spec, "del", (1, 0))
    assert not A.apply(hodge.forms_to_rows([form], (1, 0), spec.n)).is_zero()
    equations = hodge.harmonic_equations
    monkeypatch.setattr(hodge, "harmonic_equations",
                        lambda *args: (equations(*args)[0], _Unread()))
    result = hodge.harmonic_membership(spec, "del", form)
    assert (result.status, result.reason) == ("NotHarmonic", "del(form) != 0")


def test_membership_failing_D_never_takes_the_star(entries, monkeypatch):
    def refuse(spec, form):
        raise AssertionError("hodge_star taken after D alpha != 0")

    spec = entries["torus6_g"].spec
    monkeypatch.setattr(ops, "hodge_star", refuse)
    result = hodge.harmonic_membership(spec, "delbar", F("phi{1,2}", spec))
    assert (result.status, result.reason) == ("NotHarmonic",
                                              "delbar(form) != 0")


def test_membership_failing_D_on_a_non_unitary_spec_still_raises(entries):
    # the star of the second equation needs the metric, so the first
    # equation failing does not answer NotHarmonic on torus6_f
    spec = entries["torus6_f"].spec
    form = F("phi{1,}", spec)
    assert not ops.component(spec, "del", form).is_zero()
    with pytest.raises(ops.NotUnitaryModeError,
                       match="is not in unitary mode"):
        hodge.harmonic_membership(spec, "del", form)


def test_membership_block_route_matches_pointwise_oracle(cc_entries, ladder,
                                                         monkeypatch):
    # every basis monomial, a seeded form per bidegree, their mixed sum, the
    # zero form and omega; the block route must not touch the pointwise one
    rng = random.Random(23)
    for spec in [e.spec for e in cc_entries.values()] + [ladder(3), ladder(4)]:
        n = spec.n
        pure = [Form({m: SymScalar.const(GaussianRational(
            rng.randint(-3, 3), rng.randint(-3, 3))) for m in basis_of(pq, n)})
            for pq in all_bidegrees(n)]
        forms = [Form.monomial(m) for pq in all_bidegrees(n)
                 for m in basis_of(pq, n)]
        forms += pure + [sum(pure, Form.zero()), Form.zero(), spec.omega]
        cases = [(D, form) for D in ("del", "delbar") for form in forms]
        want = [pointwise_membership(spec, D, form) for D, form in cases]
        with monkeypatch.context() as patch:
            for name in ("component", "hodge_star", "ext_d"):
                patch.setattr(ops, name, None)
            got = [hodge.harmonic_membership(spec, D, form)
                   for D, form in cases]
        for case, g, w in zip(cases, got, want):
            assert g == w, (spec.name, case)


def test_harmonic_equations_against_oracles(cc_entries, ladder):
    # column j of E is partner(*m_j) taken pointwise; the basis of
    # H_D = ker A cap ker E is Harmonic and every monomial outside it is not
    assert len(cc_entries) == 5
    for spec in [e.spec for e in cc_entries.values()] + [ladder(3), ladder(4)]:
        n = spec.n
        for D in ("del", "delbar"):
            partner = ops.STAR_PARTNERS[D]
            s, t = ops.COMPONENT_SHIFTS[partner]
            for p, q in all_bidegrees(n):
                A, E = hodge.harmonic_equations(spec, D, (p, q))
                assert A == ops.operator_block(spec, D, (p, q))
                target = (n - q + s, n - p + t)
                for j, m in enumerate(basis_of((p, q), n)):
                    want = ops.component(spec, partner, ops.hodge_star(
                        spec, Form.monomial(m)))
                    assert E.columns([j]) == hodge.forms_to_rows(
                        [want], target, n).transpose(), (spec.name, D, m)
                space = hodge.harmonic_space(spec, D, (p, q))
                for form in space.forms():
                    assert hodge.harmonic_membership(
                        spec, D, form).status == "Harmonic"
                for m in basis_of((p, q), n):
                    form = Form.monomial(m)
                    if not space.member(form):
                        assert hodge.harmonic_membership(
                            spec, D, form).status == "NotHarmonic"


def test_membership_symbolic_form_on_a_constant_spec_is_pointwise():
    # d W = phi1 + phibar1 reaches the witnesses only through the Leibniz
    # rule, which the blocks do not see
    spec = parse_spec("""
manifold declared_test
dim 4
coframe phi1 phi2
symbol W real d = phi{1,} + phi{,1}
omega = 1/2*i*phi{1,1} + 1/2*i*phi{2,2}
""")
    assert spec.constant_coefficient
    f = F("W*phi{1,}", spec)
    result = hodge.harmonic_membership(spec, "del", f)
    assert (result.status, result.reason) == ("NotHarmonic",
                                              "delbar(*form) != 0")
    assert result.witness == F("1/2*phi{12,12}", spec)
    result = hodge.harmonic_membership(spec, "delbar", f)
    assert (result.status, result.reason) == ("NotHarmonic",
                                              "delbar(form) != 0")
    assert result.witness == F("-phi{1,1}", spec)


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


def _fresh(key):
    return parse_spec(catalog.dsl_source(key))


def _same_pivots_other_kernel(block):
    """A matrix whose reduced form has block's pivots but another kernel:
    a pivot row of that form gains 1 at a free column after its pivot (or
    -1 where that would cancel the entry)."""
    reduced, pivots = block.rref()
    free = [c for c in range(block.cols) if c not in pivots]
    i, f = next((i, f) for i, pc in enumerate(pivots) for f in free
                if f > pc)
    den, row = reduced.sparse[i]
    rows = list(reduced.sparse[:len(pivots)])
    a, b = row.get(f, (0, 0))
    step = -den if (a + den, b) == (0, 0) else den
    rows[i] = (den, {**row, f: (a + step, b)})
    return Matrix(len(rows), block.cols, rows)


# (patched function, its arguments, the call under test and its arguments,
# the expected message): the Laplacian of harmonic_space, and the L^r block
# of primitive_subspace's cross-check
_CROSS_CHECKS = [
    ("laplacian_matrix", ("delbar", (1, 1)), "harmonic_space",
     ("delbar", (1, 1)),
     "kt4: ker Delta_delbar on (1, 1) disagrees with the "
     "closed-and-costar-closed characterization"),
    ("laplacian_matrix", ("del", (2, 1)), "harmonic_space", ("del", (2, 1)),
     "iwasawa_ak: ker Delta_del on (2, 1) disagrees with the "
     "closed-and-costar-closed characterization"),
    ("lefschetz_power_block", ((1, 1), 1), "primitive_subspace", ((1, 1),),
     "kt4: ker Lambda != ker L^1 on (1, 1)"),
    ("lefschetz_power_block", ((1, 1), 2), "primitive_subspace", ((1, 1),),
     "iwasawa_ak: ker Lambda != ker L^2 on (1, 1)"),
]


def _patched(monkeypatch, target, args, replace):
    original = getattr(ops, target)

    def patched(spec, *call):
        block = original(spec, *call)
        return replace(block) if call == args else block

    monkeypatch.setattr(ops, target, patched)


@pytest.mark.parametrize("target, args, call, call_args, message",
                         _CROSS_CHECKS)
@pytest.mark.parametrize("kind", ["other_pivots", "same_pivots"])
def test_cross_check_fires_on_another_kernel(monkeypatch, target, args, call,
                                             call_args, message, kind):
    # a matrix with another kernel in place of the Laplacian (or of L^r) at
    # one bidegree: with other pivots, or with the same pivots and a row
    # that differs
    key = message.split(":")[0]
    spec = _fresh(key)
    replace = {"other_pivots": lambda block: Matrix.identity(block.cols),
               "same_pivots": _same_pivots_other_kernel}[kind]
    _patched(monkeypatch, target, args, replace)
    with pytest.raises(hodge.CrossCheckMismatchError) as caught:
        getattr(hodge, call)(spec, *call_args)
    assert str(caught.value) == message


@pytest.mark.parametrize("target, args, call, call_args, message",
                         _CROSS_CHECKS)
@pytest.mark.parametrize("kind", ["repeated", "scaled"])
def test_cross_check_accepts_the_same_kernel(monkeypatch, target, args, call,
                                             call_args, message, kind):
    # no false alarm: the same kernel with more rows, or with every row
    # times 3, gives the unpatched space
    key = message.split(":")[0]
    want = getattr(hodge, call)(_fresh(key), *call_args)
    replace = {"repeated": lambda block: block.stack_below(block),
               "scaled": lambda block: block.scale(3)}[kind]
    _patched(monkeypatch, target, args, replace)
    assert getattr(hodge, call)(_fresh(key), *call_args) == want


def _record_kernel_forms(monkeypatch) -> list:
    """(space, reduced, pivots) of every kernel form built from here on."""
    built = []
    original = hodge.Subspace.kernel.__func__

    def kernel(cls, ambient, n, reduced, pivots):
        space = original(cls, ambient, n, reduced, pivots)
        built.append((space, reduced, pivots))
        return space

    monkeypatch.setattr(hodge.Subspace, "kernel", classmethod(kernel))
    return built


def _assert_kernel_forms_are_eager(built) -> None:
    for space, reduced, pivots in built:
        eager = hodge.Subspace(space.ambient, space.n,
                               kernel_of_reduced(reduced, pivots))
        assert space.dim == eager.dim  # before the basis is built
        assert (space.basis, space.pivots, space.dim) == \
            (eager.basis, eager.pivots, eager.dim)
        assert space == eager and eager == space
        equations = space.equations()
        assert equations.rows == bidegree_dim(space.ambient, space.n) - \
            space.dim
        assert hodge.Subspace(space.ambient, space.n,
                              equations.nullspace()) == eager


def test_kernel_forms_of_report_and_ladder_equal_the_eager_spaces(
        monkeypatch, capsys, ladder):
    # every kernel form that report, the n = 3..5 ladder verify_all and a
    # table per D build, on fresh specs, against the space of the same rref
    # pair built eagerly
    built = _record_kernel_forms(monkeypatch)
    monkeypatch.setattr(catalog, "get", catalog.get.__wrapped__)
    assert main(["report", "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")
                          ).hexdigest() == RECORDED["catalog_report_sha256"]
    for n in (3, 4, 5):
        hodge.verify_all(ladder(n))
    spec = ladder(4)
    for D in ("d", "mu", "del", "delbar", "mubar"):
        hodge.hodge_table(spec, D)
    assert len(built) > 1000
    _assert_kernel_forms_are_eager(built)


def test_kernel_form_equality_agrees_with_basis_equality():
    # seeded pairs on 9 columns: a row combination of the first matrix
    # (mostly the same kernel), the first with a row added, and another
    # random matrix of as many rows (mostly the same pivots, another
    # kernel); both outcomes must occur
    rng = random.Random(41)

    def rows(k):
        return [[GaussianRational(rng.randint(-2, 2), rng.randint(-1, 1))
                 if rng.random() < 0.6 else GaussianRational(0)
                 for _ in range(9)] for _ in range(k)]

    def combination(m):
        # the same kernel unless the mixing matrix is singular
        mix = [[GaussianRational(rng.randint(-2, 2)) for _ in m] for _ in m]
        return [[sum((c * row[j] for c, row in zip(coeffs, m)),
                     GaussianRational(0)) for j in range(9)]
                for coeffs in mix]

    seen = set()
    for trial in range(60):
        first = rows(rng.randint(0, 6))
        second = [lambda: combination(first), lambda: first + rows(1),
                  lambda: rows(len(first))][trial % 3]()
        U, V = (hodge.kernel_subspace(dense(m, 9), (1, 1), 3)
                for m in (first, second))
        same = (hodge.Subspace((1, 1), 3, dense(first, 9).nullspace())
                == hodge.Subspace((1, 1), 3, dense(second, 9).nullspace()))
        assert (U == V) == same
        assert (U == V) == (U.basis == V.basis)
        seen.add(same)
    assert seen == {True, False}


def test_delbar_table_builds_no_kernel_basis(monkeypatch, ladder):
    # a table reads dims off the reduced Laplacians: no kernel vector is
    # ever assembled
    def refuse(*args):
        raise AssertionError("kernel_of_reduced called")

    monkeypatch.setattr("akhodge.linalg.kernel_of_reduced", refuse)
    monkeypatch.setattr(hodge, "kernel_of_reduced", refuse)
    assert hodge.hodge_table(ladder(5), "delbar") == \
        RECORDED["ladder_table"]["5"]


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
        assert decomposition.components == {1: one_form()}


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
    assert dual_Lambda(spec, expected_beta).is_zero()


def test_decompose_reconstruction_random(cc_entries, ladder, ladder_dsl):
    # the catalog has 2/c = 1 or 2 and n <= 4; the n = 3 ladder with omega
    # halved (2/c = 4) and the n = 5 ladder (m - r >= 2) reach the rest
    half = parse_spec(ladder_dsl(3).replace("1/2*i*", "1/4*i*"))
    assert half.unitary_scale == Fraction(1, 2)
    specs = [entry.spec for entry in cc_entries.values()] + [half, ladder(5)]
    rng = random.Random(101)
    for spec in specs:
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
                assert dual_Lambda(spec, beta).is_zero()


def test_decompose_rejects_a_wrong_lefschetz_block(monkeypatch):
    # twice the true L block at (0,0) must not give a silent wrong answer
    spec = parse_spec(catalog.dsl_source("iwasawa_ak"))
    true_block = ops.lefschetz_power_block

    def doubled(memo_spec, pq, r):
        block = true_block(memo_spec, pq, r)
        return block.scale(2) if (pq, r) == ((0, 0), 1) else block

    monkeypatch.setattr(ops, "lefschetz_power_block", doubled)
    with pytest.raises(hodge.SolveFailureError):
        hodge.primitive_decompose(spec, F("phi{1,1} + phi{2,2}", spec))


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
        U = hodge.Subspace((1, 1), 3, dense(shared + rows(3), 9))
        V = hodge.Subspace((1, 1), 3, dense(rows(4) + shared, 9))
        meet = U.intersect(V)
        both = matrix_to_sympy(U.basis).col_join(matrix_to_sympy(V.basis))
        assert meet.dim == U.dim + V.dim - both.rank()
        assert U.contains(meet) and V.contains(meet)
        assert meet == V.intersect(U)


def _random_subspace(rng, dim, rows, ambient=(1, 1), n=3):
    return hodge.Subspace(ambient, n, dense(
        [[GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
          for _ in range(dim)] for _ in range(rows)], dim))


def test_equations_cut_out_the_subspace(cc_entries):
    # the common kernel of a subspace's equations is the subspace, for the
    # zero space, the full space, random ones and harmonic spaces
    rng = random.Random(29)
    spaces = [hodge.Subspace.zero(3, (1, 1)), full_subspace(3, (1, 1))]
    spaces += [_random_subspace(rng, 9, k) for k in range(1, 9)]
    spec = cc_entries["iwasawa_ak"].spec
    spaces += [hodge.harmonic_space(spec, D, pq) for D in ("delbar", "del")
               for pq in all_bidegrees(3)]
    for U in spaces:
        equations = U.equations()
        assert equations.rows == bidegree_dim(U.ambient, U.n) - U.dim
        assert equations.apply(U.basis).is_zero()
        assert hodge.kernel_subspace(equations, U.ambient, U.n) == U


def test_equations_run_no_elimination(monkeypatch):
    U = _random_subspace(random.Random(3), 9, 4)

    def refuse(self):
        raise AssertionError("rref called")

    monkeypatch.setattr(Matrix, "rref", refuse)
    assert U.equations().rows == 5


def test_intersect_matches_transposed_stack_oracle():
    # seeded random pairs in Lambda^{1,1} at n = 3 (dimension 9): dim U
    # above and below dim V, U inside V, U = V, and the zero and full spaces
    rng = random.Random(31)
    zero, full = hodge.Subspace.zero(3, (1, 1)), full_subspace(3, (1, 1))
    pairs = []
    for trial in range(10):
        a, b = rng.randint(1, 8), rng.randint(1, 8)
        shared = _random_subspace(rng, 9, trial % 4)
        U = shared.sum(_random_subspace(rng, 9, a))
        V = _random_subspace(rng, 9, b).sum(shared)
        pairs += [(U, V), (V, U), (U, U.sum(V)), (U, U), (U, zero),
                  (zero, U), (U, full), (full, U)]
    pairs += [(zero, zero), (zero, full), (full, full)]
    assert {(U.dim > V.dim, U.dim < V.dim) for U, V in pairs} == \
        {(True, False), (False, True), (False, False)}
    for U, V in pairs:
        assert U.intersect(V) == transposed_stack_intersect(U, V)


def test_intersect_matches_oracle_on_harmonic_primitive_pairs(cc_entries):
    for entry in cc_entries.values():
        spec = entry.spec
        for D in ("d", "mu", "del", "delbar", "mubar"):
            for pq in all_bidegrees(spec.n):
                H = hodge.harmonic_space(spec, D, pq)
                P = hodge.primitive_subspace(spec, pq)
                assert H.intersect(P) == transposed_stack_intersect(H, P)
                assert P.intersect(H) == H.intersect(P)


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
        space = hodge.Subspace((2, 0), 4, dense(rows, 6))
        basis = matrix_to_sympy(space.basis)
        assert basis.rank() == space.dim == \
            matrix_to_sympy(dense(rows, 6)).rank()
        weights = [GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
                   for _ in rows]
        member = [sum((w * row[j] for w, row in zip(weights, rows)),
                      GaussianRational(0)) for j in range(6)]
        for vec in (member, vector()):
            row = dense([vec], 6)
            target = matrix_to_sympy(row)
            inside = basis.col_join(target).rank() == space.dim
            coords = space.coordinates_of(row)
            assert space.member(row) == inside == (coords is not None)
            if inside:
                members += 1
                combo = matrix_to_sympy(coords)
                product = combo * basis if space.dim else sympy.zeros(1, 6)
                assert (product - target).expand().is_zero_matrix
            else:
                non_members += 1
    assert members >= 30 and non_members >= 20


def test_ambient_mismatch():
    spec = catalog.get("torus6_flat").spec
    a = full_subspace(3, (1, 1))
    b = full_subspace(3, (2, 1))
    with pytest.raises(hodge.AmbientMismatchError):
        a.intersect(b)
    with pytest.raises(hodge.AmbientMismatchError, match="not of bidegree"):
        a.member(b.forms()[0])


def test_an_index_above_n_is_an_ambient_mismatch(entries):
    # programmatic forms on kt4 (n = 2): a monomial whose bidegree exists
    # and one whose bidegree does not, each beside a valid term
    spec = entries["kt4"].spec
    for mono in (BasisMonomial((1, 3), ()), BasisMonomial((1, 2, 3), (1,))):
        form = Form.monomial(mono) + F("phi{1,1}", spec)
        calls = [lambda: hodge.primitive_decompose(spec, form),
                 lambda: hodge.component_rows(form, spec.n),
                 lambda: hodge.forms_to_rows([Form.monomial(mono)],
                                             mono.bidegree, spec.n)]
        calls += [lambda D=D: hodge.harmonic_membership(spec, D, form)
                  for D in ("del", "delbar")]
        for call in calls:
            with pytest.raises(hodge.AmbientMismatchError,
                               match=r"has an index outside 1\.\.2$"):
                call()


def test_an_index_above_n_is_an_ambient_mismatch_on_the_pointwise_route(
        entries):
    # the symbolic torus6_g (n = 3) answers every membership pointwise,
    # with constant and with symbolic coefficients
    spec = entries["torus6_g"].spec
    symbolic = SymScalar.symbol("V3g")
    for mono in (BasisMonomial((4,), ()), BasisMonomial((), (2, 5))):
        for coeff in (1, symbolic):
            form = Form.monomial(mono, coeff)
            for D in ("del", "delbar"):
                with pytest.raises(hodge.AmbientMismatchError,
                                   match=r"has an index outside 1\.\.3$"):
                    hodge.harmonic_membership(spec, D, form)


def test_nullspace_correctness_property(cc_entries):
    # for V = ker M: M v = 0 for all basis v and rank M + dim V = dim source
    for entry in cc_entries.values():
        spec = entry.spec
        for pq in all_bidegrees(spec.n):
            M = ops.laplacian_matrix(spec, "delbar", pq)
            V = hodge.harmonic_space(spec, "delbar", pq)
            assert M.apply(V.basis).is_zero()
            assert len(M.rref()[1]) + V.dim == M.cols


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


def test_delbar_table_builds_no_star_or_adjoint_block(ladder):
    # every Laplacian is one gram_sum of forward blocks and E = del * star
    # is written by _times_star: a cold table caches no star, Lambda or
    # adjoint block
    spec = ladder(4)
    assert hodge.hodge_table(spec, "delbar") == \
        [[1, 2, 2, 2, 1], [2, 8, 10, 5, 1], [1, 9, 16, 9, 1],
         [1, 5, 10, 8, 2], [1, 2, 2, 2, 1]]
    ops_built = {key[1] for key in spec._cache
                 if key[0] is ops.operator_block.__wrapped__}
    assert ops_built == {"d", "del", "delbar"}


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


def test_lemma46_space_is_ker_D_cap_P(cc_entries, ladder, monkeypatch):
    # the space each adjoint must vanish on, against ker D cap P by the
    # transposed-stack intersection of the two kernels: every bidegree with
    # k <= n and both D, on the constant-coefficient entries and the ladder
    seen = []
    original = hodge._not_annihilated
    monkeypatch.setattr(hodge, "_not_annihilated", lambda block, space: (
        seen.append(space), original(block, space))[1])
    specs = [_fresh(key) for key in cc_entries] + [ladder(n) for n in (3, 4, 5)]
    for spec in specs:
        seen.clear()
        assert hodge.verify(spec, "lemma46").status == "Holds", spec.name
        n = spec.n
        want = [transposed_stack_intersect(
            hodge.kernel_subspace(ops.operator_block(spec, D, pq), pq, n),
            hodge.primitive_subspace(spec, pq))
            for k in range(n + 1) for pq in bidegrees_of_degree(k, n)
            for D in ("delbar", "del")]
        assert seen == want, spec.name


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
    # the Fails branches: a fresh spec whose harmonic (or primitive) space
    # is wrong at one bidegree, with the whole report pinned
    for key, target, D, pq, kind, check_id, expected in _FAULTS:
        spec = parse_spec(catalog.dsl_source(key))
        original = getattr(hodge, target)

        def wrong(s, *args, original=original, D=D, pq=pq, kind=kind):
            if args[-1] == pq and D in (None, args[0]):
                return {"zero": hodge.Subspace.zero,
                        "full": full_subspace}[kind](s.n, pq)
            return original(s, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hodge, target, wrong)
            report = hodge.verify(spec, check_id)
        assert report.to_dict() == {"spec_name": key, "check_id": check_id,
                                    "status": "Fails", **expected}, \
            (key, target, D, pq, kind)


_FAULTS = [
    ("kt4", "primitive_subspace", None, (1, 0), "zero", "prop31",
     {"detail": "H^(1, 0)_delbar is not entirely primitive",
      "dimensions": {"h_delbar(0, 0)": 1, "h_delbar(1, 0)": 1},
      "witnesses": ["phi{1,}"]}),
    ("kt4", "harmonic_space", "del", (1, 0), "full", "prop32",
     {"detail": "H^(2,1)_delbar != L^1(H^(1,0)_del cap P)",
      "dimensions": {"delbar(n,1)": 1, "delbar(n,2)": 1}}),
    ("kt4", "harmonic_space", "delbar", (1, 1), "zero", "thm34",
     {"detail": "H^{1,1}_delbar = C.omega + (H^{1,1}_delbar cap P^{1,1}): "
                "the distinguished form is not harmonic",
      "dimensions": {}, "witnesses": ["1/2*i*phi{1,1} + 1/2*i*phi{2,2}"]}),
    ("kt4", "primitive_subspace", None, (1, 1), "zero", "thm34",
     {"detail": "H^{1,1}_delbar = C.omega + (H^{1,1}_delbar cap P^{1,1}): "
                "decomposition misses part of the harmonic space",
      "dimensions": {"harmonic": 3, "primitive_part": 0, "sum": 1},
      "witnesses": ["phi{1,1}", "phi{1,2} - phi{2,1}", "phi{2,2}"]}),
    ("kt4", "primitive_subspace", None, (1, 1), "full", "thm34",
     {"detail": "H^{1,1}_delbar = C.omega + (H^{1,1}_delbar cap P^{1,1}): "
                "sum is not direct",
      "dimensions": {"harmonic": 3, "primitive_part": 3, "sum": 3}}),
    ("kt4", "harmonic_space", "del", (1, 1), "full", "cor35",
     {"detail": "H^(n-1,n-1)_delbar != C.omega^(n-1) + L^(n-2)(...)",
      "dimensions": {"h(n-1,n-1)_delbar": 3, "harmonic": 4,
                     "primitive_part": 3, "sum": 4}}),
    ("iwasawa_ak", "harmonic_space", "del", (1, 1), "zero", "cor35",
     {"detail": "H^{1,1}_del = C.omega + (H^{1,1}_del cap P^{1,1}): "
                "the distinguished form is not harmonic",
      "dimensions": {}, "witnesses": ["i*phi{1,1} + i*phi{2,2} + i*phi{3,3}"]}),
    ("kt4", "harmonic_space", "d", (1, 0), "full", "hd_lefschetz",
     {"detail": "d-harmonic Lefschetz decomposition fails on (2, 1)",
      "dimensions": {"h_d(0,0)": 1, "h_d(0,1)": 1, "h_d(0,2)": 0,
                     "h_d(1,0)": 2, "h_d(1,1)": 3, "h_d(1,2)": 1,
                     "h_d(2,0)": 0, "h_d(2,1)": 1}}),
    ("kt4", "harmonic_space", "delbar", (1, 0), "full", "inclusion21",
     {"detail": "decomposable part is not harmonic",
      "dimensions": {"harmonic": 1, "lifted_line": 2, "primitive_part": 0,
                     "sum": 2},
      "witnesses": ["phi{12,1}"]}),
    ("iwasawa_ak", "primitive_subspace", None, (2, 1), "full", "inclusion21",
     {"detail": "sum is not direct",
      "dimensions": {"harmonic": 3, "lifted_line": 1, "primitive_part": 3,
                     "sum": 3}}),
    # every delbar- (or del-) closed form counts as primitive at one
    # bidegree; the delbar branch fails first there
    ("iwasawa_ak", "primitive_subspace", None, (1, 2), "full", "lemma46",
     {"detail": "delbar-closed primitive (1, 2)-form with del_star != 0",
      "dimensions": {}, "witnesses": ["phi{3,13}"]}),
    ("iwasawa_ak", "primitive_subspace", None, (2, 1), "full", "lemma46",
     {"detail": "delbar-closed primitive (2, 1)-form with del_star != 0",
      "dimensions": {}, "witnesses": ["phi{13,3}"]}),
    ("h12_t3", "primitive_subspace", None, (3, 1), "full", "lemma46",
     {"detail": "delbar-closed primitive (3, 1)-form with del_star != 0",
      "dimensions": {}, "witnesses": ["phi{123,3}"]}),
    # every (1,1)-form counts as delbar-harmonic
    ("kt4", "harmonic_space", "delbar", (1, 1), "full", "lemma47",
     {"detail": "d* does not vanish", "dimensions": {},
      "witnesses": ["phi{1,2}"]}),
    ("iwasawa_ak", "harmonic_space", "delbar", (1, 1), "full", "lemma47",
     {"detail": "d* does not vanish", "dimensions": {},
      "witnesses": ["phi{1,3}"]}),
    ("kt4", "harmonic_space", "delbar", (1, 1), "full", "lemma48",
     {"detail": "d(alpha) is not primitive", "dimensions": {},
      "witnesses": ["phi{1,2}"]}),
    ("iwasawa_ak", "harmonic_space", "delbar", (1, 1), "full", "lemma48",
     {"detail": "d(alpha) is not primitive", "dimensions": {},
      "witnesses": ["phi{1,3}"]}),
]


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


# -- the Lefschetz decomposition -------------------------------------------------

# H^{p,q}_delbar against sum_r L^r(H^{p-r,q-r}_delbar cap P): every cell not
# listed is Equal, which includes every edge, (1,1) and (n-1,n-1)
ATLAS_DELBAR = {
    "iwasawa_ak": {(1, 2): "NotContained", (1, 3): "NotContained",
                   (2, 3): "NotContained", (2, 1): "StrictInclusion",
                   (3, 1): "StrictInclusion", (3, 2): "StrictInclusion"},
    "h12_t3": {(1, 3): "NotContained", (1, 4): "NotContained",
               (2, 3): "NotContained", (2, 4): "NotContained",
               (3, 1): "StrictInclusion", (3, 2): "StrictInclusion",
               (4, 1): "StrictInclusion", (4, 2): "StrictInclusion"},
}


@pytest.mark.parametrize("key", sorted(ATLAS_DELBAR))
def test_lefschetz_atlas_optimality(entries, key):
    spec = entries[key].spec
    n = spec.n

    def atlas(D):
        return {pq: hodge.lefschetz_decomposition(spec, D, D, pq).status
                for pq in all_bidegrees(n)}

    delbar = {pq: ATLAS_DELBAR[key].get(pq, "Equal")
              for pq in all_bidegrees(n)}
    assert atlas("delbar") == delbar
    # del is the mirror image: conjugation swaps (p,q) and (q,p)
    assert atlas("del") == {(q, p): status for (p, q), status in delbar.items()}
    assert set(atlas("d").values()) == {"Equal"}
    # the edges and the paper's bidegrees (1,1) and (n-1,n-1) hold
    for pq in [(1, 1), (n - 1, n - 1)] + [(k, 0) for k in range(n + 1)] \
            + [(0, k) for k in range(n + 1)]:
        assert delbar[pq] == "Equal", pq
    # the atlas cell at (2,1) is inclusion21
    assert hodge.verify(spec, "inclusion21").strict == \
        (delbar[(2, 1)] == "StrictInclusion")


def _oracle_rank(*matrices):
    rows = [matrix_to_sympy(m) for m in matrices if m.rows]
    return sympy.Matrix.vstack(*rows).rank() if rows else 0


def _oracle_status(cell):
    """The status from sympy ranks of the bases the construction read."""
    parts = [part.basis for part in cell.parts.values()]
    if _oracle_rank(*parts) != sum(_oracle_rank(b) for b in parts):
        return "NotDirect"
    H, total = cell.harmonic.basis, cell.total.basis
    if _oracle_rank(H, total) != _oracle_rank(H):
        return "NotContained"
    return "Equal" if _oracle_rank(total) == _oracle_rank(H) \
        else "StrictInclusion"


def _oracle_member(space, form, pq, n):
    row = hodge.forms_to_rows([form], pq, n)
    return _oracle_rank(space.basis, row) == _oracle_rank(space.basis)


@pytest.mark.parametrize("key,D,D2,pq,rs", [
    ("iwasawa_ak", "delbar", "delbar", (2, 1), None),
    ("iwasawa_ak", "delbar", "delbar", (1, 2), None),
    ("iwasawa_ak", "del", "del", (2, 1), None),
    ("iwasawa_ak", "delbar", "delbar", (1, 1), None),
    ("iwasawa_ak", "del", "delbar", (2, 2), (1, 2)),
    ("iwasawa_ak", "d", "d", (2, 2), None),
    ("kt4", "delbar", "del", (2, 1), (1,)),
    ("h12_t3", "delbar", "delbar", (3, 1), None),
    ("h12_t3", "delbar", "delbar", (1, 3), None),
])
def test_lefschetz_decomposition_against_sympy_ranks(entries, key, D, D2, pq,
                                                      rs):
    spec = entries[key].spec
    cell = hodge.lefschetz_decomposition(spec, D, D2, pq, rs)
    assert cell.status == _oracle_status(cell)
    if cell.status == "StrictInclusion":
        inside, outside = cell.harmonic, cell.total
    elif cell.status == "NotContained":
        inside, outside = cell.total, cell.harmonic
    else:
        assert cell.witnesses == []
        return
    # every witness is a basis form of one side outside the other
    assert cell.witnesses
    for witness in cell.witnesses:
        assert _oracle_member(inside, witness, pq, spec.n)
        assert not _oracle_member(outside, witness, pq, spec.n)
    if (key, D, pq) == ("iwasawa_ak", "delbar", (2, 1)):
        assert cell.witnesses == [F("phi{13,3} + i*phi{23,3}", spec)]


def test_lefschetz_decomposition_not_direct_against_sympy_ranks(monkeypatch):
    # every (2,1)-form declared primitive: H cap P = H already holds L(H^{1,0})
    spec = parse_spec(catalog.dsl_source("iwasawa_ak"))
    original = hodge.primitive_subspace
    monkeypatch.setattr(
        hodge, "primitive_subspace",
        lambda s, pq: full_subspace(s.n, pq) if pq == (2, 1)
        else original(s, pq))
    cell = hodge.lefschetz_decomposition(spec, "delbar", "delbar", (2, 1))
    assert cell.status == _oracle_status(cell) == "NotDirect"
    assert cell.witnesses == []


def test_lefschetz_decomposition_parts_and_memo(entries):
    spec = entries["iwasawa_ak"].spec
    cell = hodge.lefschetz_decomposition(spec, "delbar", "delbar", (2, 1))
    assert hodge.lefschetz_decomposition(spec, "delbar", "delbar", (2, 1)) \
        is cell
    assert sorted(cell.parts) == [0, 1]
    assert cell.parts[0] is hodge.primitive_harmonic(spec, "delbar", (2, 1))
    assert cell.parts[1] == hodge.line_of(spec, F("phi{13,1} + phi{23,2}",
                                                  spec))
    assert cell.harmonic is hodge.harmonic_space(spec, "delbar", (2, 1))
    top = hodge.lefschetz_decomposition(spec, "delbar", "del", (3, 1), (1,))
    assert list(top.parts) == [1] and top.total is top.parts[1]


# -- the benchmark's H(1,2)-type ladder ------------------------------------------

RECORDED = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                       / "expected.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("n", [3, 4])
def test_ladder_delbar_tables_match_recorded(ladder, n):
    assert hodge.hodge_table(ladder(n), "delbar") == \
        RECORDED["ladder_table"][str(n)]


# computed before elimination became row-incremental; at n = 6 elimination
# sees heavy fill-in and clears many earlier basis rows
LADDER_N6_DELBAR_TABLE = [[1, 4, 7, 8, 7, 4, 1],
                          [4, 20, 42, 49, 35, 15, 3],
                          [6, 39, 98, 124, 84, 29, 4],
                          [5, 41, 119, 166, 119, 41, 5],
                          [4, 29, 84, 124, 98, 39, 6],
                          [3, 15, 35, 49, 42, 20, 4],
                          [1, 4, 7, 8, 7, 4, 1]]


def test_ladder_n6_delbar_table_matches_recorded(ladder):
    assert hodge.hodge_table(ladder(6), "delbar") == LADDER_N6_DELBAR_TABLE


LADDER_VERIFY_DIGESTS = json.loads(
    (Path(__file__).resolve().parent / "data"
     / "ladder_verify_digests.json").read_text(encoding="utf-8"))


def test_ladder_verify_all_golden_digests(ladder):
    # the whole verify_all JSON of the n = 5 and n = 6 ladder, whose kernels
    # are larger than any catalog entry's
    digests = {}
    for n in (5, 6):
        payload = [r.to_dict() for r in hodge.verify_all(ladder(n))]
        digests[str(n)] = hashlib.sha256(json.dumps(
            payload, sort_keys=True, separators=(",", ":")).encode(
                "utf-8")).hexdigest()
    assert digests == LADDER_VERIFY_DIGESTS["sha256"]


def test_ladder_n4_verify_all_has_no_fails(ladder):
    statuses = {r.check_id: r.status for r in hodge.verify_all(ladder(4))}
    assert "Fails" not in statuses.values()
    assert statuses["prop41"] == "Inapplicable"  # needs n = 2
    assert list(statuses.values()).count("Holds") == len(statuses) - 1
