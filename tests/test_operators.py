import random
from fractions import Fraction
from math import factorial

import pytest

from akhodge import catalog, operators as ops
from akhodge.exterior import (BasisMonomial, Form, basis_of,
                              bidegrees_of_degree)
from akhodge.linalg import Matrix
from akhodge.model import parse_form, parse_spec
from akhodge.scalars import GaussianRational, I, SymScalar, i_power

from oracles import (brute_component_matrix, full_degree_oracle,
                     matrix_to_sympy, real_frame_star)


def F(text, spec):
    return parse_form(text, spec.n, spec.symbols)


def all_bidegrees(n):
    return [(p, q) for p in range(n + 1) for q in range(n + 1)]


# -- exterior derivative -------------------------------------------------------

def test_d_phi3_iwasawa_vanishes(entries):
    spec = entries["iwasawa_ak"].spec
    assert ops.ext_d(spec, Form.generator(3)).is_zero()


def test_d_of_scaled_omega_vanishes(cc_entries):
    for entry in cc_entries.values():
        if entry.spec.almost_kahler:
            scaled = entry.spec.omega * GaussianRational(3, -2)
            assert ops.ext_d(entry.spec, scaled).is_zero()


def test_ex42_d_expansion(entries):
    spec = entries["torus6_f"].spec
    image = ops.ext_d(spec, F("phi{1,3}", spec))
    assert image.project((0, 3)) == F("1/4*F*phi{,123}", spec)
    assert ops.component(spec, "mubar", F("phi{1,3}", spec)) == \
        F("1/4*F*phi{,123}", spec)
    assert ops.component(spec, "mu", F("phi{1,3}", spec)).is_zero()


def test_ex42_d_phi1_projection(entries):
    spec = entries["torus6_f"].spec
    proj = spec.structure[1].project((0, 2))
    assert proj == F("1/4*F*phi{,12}", spec)


def test_ex43_mubar(entries):
    spec = entries["h12_t3"].spec
    assert ops.component(spec, "mubar", F("phi{1,4}", spec)) == \
        F("-1/4*i*phi{,234}", spec)
    assert ops.component(spec, "mu", F("phi{1,4}", spec)).is_zero()


def test_ex45_delbar(entries):
    spec = entries["torus6_g"].spec
    assert ops.component(spec, "delbar", F("phi{1,2}", spec)) == \
        F("V3g*phi{3,12}", spec)


def test_leibniz_rule(cc_entries):
    rng = random.Random(5)
    for entry in cc_entries.values():
        spec = entry.spec
        n = spec.n
        monos = [m for pq in all_bidegrees(n) for m in basis_of(pq, n)]
        for _ in range(20):
            a = Form.monomial(rng.choice(monos),
                              GaussianRational(rng.randint(-3, 3),
                                               rng.randint(-3, 3)))
            b = Form.monomial(rng.choice(monos))
            k = sum(next(iter(a.bidegrees()))) if a.bidegrees() else 0
            lhs = ops.ext_d(spec, a.wedge(b))
            rhs = ops.ext_d(spec, a).wedge(b)
            tail = a.wedge(ops.ext_d(spec, b))
            rhs = rhs + (tail if k % 2 == 0 else -tail)
            assert lhs == rhs


def test_opaque_derivative_raises(entries):
    spec = entries["torus6_f"].spec
    # F has an opaque derivative; differentiating F * phi3 needs it
    with pytest.raises(ops.OpaqueDerivativeError):
        ops.ext_d(spec, Form.generator(3) * SymScalar.symbol("F"))


def test_component_matrices_match_brute_force(cc_entries):
    for key in ("iwasawa_ak", "kt4"):
        spec = cc_entries[key].spec
        for pq in all_bidegrees(spec.n):
            for op in ("mu", "del", "delbar", "mubar"):
                mine = matrix_to_sympy(ops.operator_block(spec, op, pq))
                brute = brute_component_matrix(spec, op, *pq)
                if mine.rows == 0 or brute.rows == 0:
                    assert mine.rows == brute.rows == 0 or \
                        (mine.rows == brute.rows and mine.cols == brute.cols)
                    continue
                assert mine == brute


# -- star, L, Lambda, J ---------------------------------------------------------

def test_star_of_one_is_volume(cc_entries):
    for entry in cc_entries.values():
        spec = entry.spec
        n = spec.n
        omega_n = Form.one()
        for _ in range(n):
            omega_n = spec.omega.wedge(omega_n)
        assert ops.hodge_star(spec, Form.one()) == \
            omega_n * Fraction(1, factorial(n))


def test_star_of_omega(cc_entries):
    for entry in cc_entries.values():
        spec = entry.spec
        n = spec.n
        omega_pow = Form.one()
        for _ in range(n - 1):
            omega_pow = spec.omega.wedge(omega_pow)
        assert ops.hodge_star(spec, spec.omega) == \
            omega_pow * Fraction(1, factorial(n - 1))


def test_star_primitive_11_on_torus6_g(entries):
    spec = entries["torus6_g"].spec
    f = F("phi{1,2}", spec)
    assert ops.hodge_star(spec, f) == -(spec.omega.wedge(f))


def test_star_defining_property(cc_entries):
    # a ^ *(conj b) = <a, b> vol with the diagonal Gram (2/c)^k
    for entry in cc_entries.values():
        spec = entry.spec
        n = spec.n
        vol = ops.volume_form(spec)
        scale = Fraction(2) / spec.unitary_scale
        for pq in all_bidegrees(n):
            k = pq[0] + pq[1]
            gram = GaussianRational(scale ** k)
            monos = basis_of(pq, n)
            for a in monos:
                fa = Form.monomial(a)
                for b in monos:
                    fb = Form.monomial(b)
                    wedge = fa.wedge(ops.hodge_star(
                        spec, fb.conj(spec.symbols)))
                    expected = vol * gram if a == b else Form.zero()
                    assert wedge == expected


def test_double_star_sign(cc_entries):
    for entry in cc_entries.values():
        spec = entry.spec
        for pq in all_bidegrees(spec.n):
            k = pq[0] + pq[1]
            for m in basis_of(pq, spec.n):
                f = Form.monomial(m)
                ss = ops.hodge_star(spec, ops.hodge_star(spec, f))
                assert ss == (f if k % 2 == 0 else -f)


def test_star_bidegree_shift(cc_entries):
    for entry in cc_entries.values():
        spec = entry.spec
        n = spec.n
        for p, q in all_bidegrees(n):
            for m in basis_of((p, q), n):
                img = ops.hodge_star(spec, Form.monomial(m))
                assert img.pure_bidegree() == (n - q, n - p)


def flat_spec(n, scale):
    """Flat coframe of complex dimension n with omega = (i c/2) sum phi^{jj}."""
    half = Fraction(scale) / 2
    omega = " + ".join(f"{half}*i*phi{{{j},{j}}}" for j in range(1, n + 1))
    coframe = " ".join(f"phi{j}" for j in range(1, n + 1))
    return parse_spec(f"manifold flat{n}\ndim {2 * n}\ncoframe {coframe}\n"
                      f"omega = {omega}\n")


@pytest.mark.parametrize("scale", [Fraction(1), Fraction(1, 2)])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_star_matches_real_frame_oracle(n, scale):
    spec = flat_spec(n, scale)
    assert spec.unitary_scale == scale
    for pq in all_bidegrees(n):
        for m in basis_of(pq, n):
            assert ops._star_monomial(spec, m) == real_frame_star(spec, m)


def test_full_degree_matrix_matches_per_monomial_oracle(cc_entries):
    assert cc_entries
    for entry in cc_entries.values():
        spec = entry.spec
        for op in ("d", "d_star"):
            for k in range(2 * spec.n + 1):
                mine = ops.full_degree_matrix(spec, op, k)
                oracle = full_degree_oracle(spec, op, k)
                assert (mine.rows, mine.cols) == oracle.shape
                assert matrix_to_sympy(mine) == oracle


def test_lambda_of_omega_is_n(cc_entries):
    for entry in cc_entries.values():
        spec = entry.spec
        assert ops.dual_Lambda(spec, spec.omega) == \
            Form.one() * spec.n


def test_lambda_kills_offdiagonal(cc_entries):
    for entry in cc_entries.values():
        spec = entry.spec
        if spec.n >= 2:
            f = Form.monomial(BasisMonomial((1,), (2,)))
            assert ops.dual_Lambda(spec, f).is_zero()


def test_iwasawa_L_of_eta(entries):
    spec = entries["iwasawa_ak"].spec
    eta = F("phi{13,2} + phi{23,1} - 2*i*phi{23,2}", spec)
    expected = ops.lefschetz_L(spec, F("phi{23,2}", spec)) * \
        GaussianRational(0, -2)
    image = ops.lefschetz_L(spec, eta)
    assert image == expected and not image.is_zero()


def test_lefschetz_power_block_matches_repeated_L(cc_entries):
    # oracle: wedge each basis monomial with omega r times, one at a time
    cases = 0
    for entry in cc_entries.values():
        spec = entry.spec
        n = spec.n
        for p, q in all_bidegrees(n):
            for r in range(n - max(p, q) + 1):
                target = basis_of((p + r, q + r), n)
                index = {m: i for i, m in enumerate(target)}
                columns = []
                for mono in basis_of((p, q), n):
                    image = Form.monomial(mono)
                    for _ in range(r):
                        image = ops.lefschetz_L(spec, image)
                    column = [GaussianRational(0)] * len(target)
                    for m, c in image.terms():
                        column[index[m]] = c.constant_value()
                    columns.append(column)
                block = ops.lefschetz_power_block(spec, (p, q), r)
                assert block == Matrix.from_columns(columns, len(target))
                cases += 1
    assert cases == 2 * 14 + 2 * 30 + 55  # n = 2, 2, 3, 3, 4


def test_lefschetz_power_block_out_of_range_has_no_rows(cc_entries):
    spec = cc_entries["kt4"].spec
    assert ops.lefschetz_power_block(spec, (1, 0), 2) == Matrix.zeros(0, 2)
    assert ops.lefschetz_power_block(spec, (2, 2), 1) == Matrix.zeros(0, 1)


def test_lambda_parity_corrected_star_formula(cc_entries):
    # Lambda = (-1)^k * L * on k-forms (equals -*L* exactly on odd degrees)
    for entry in cc_entries.values():
        spec = entry.spec
        for pq in all_bidegrees(spec.n):
            k = pq[0] + pq[1]
            for m in basis_of(pq, spec.n):
                f = Form.monomial(m)
                raw = ops.hodge_star(
                    spec, ops.lefschetz_L(spec, ops.hodge_star(spec, f)))
                expected = raw if k % 2 == 0 else -raw
                assert ops.dual_Lambda(spec, f) == expected


def test_L_Lambda_commutator(cc_entries):
    for entry in cc_entries.values():
        spec = entry.spec
        n = spec.n
        for pq in all_bidegrees(n):
            k = pq[0] + pq[1]
            dim = len(basis_of(pq, n))
            if dim == 0:
                continue
            up = ops.operator_block(spec, "L", pq)
            down_after = ops.operator_block(
                spec, "Lambda", (pq[0] + 1, pq[1] + 1)) \
                if pq[0] + 1 <= n and pq[1] + 1 <= n else Matrix.zeros(dim, 0)
            lam = ops.operator_block(spec, "Lambda", pq)
            up_after = ops.operator_block(
                spec, "L", (pq[0] - 1, pq[1] - 1)) \
                if pq[0] >= 1 and pq[1] >= 1 else Matrix.zeros(dim, 0)
            commutator = up_after * lam - down_after * up
            expected = Matrix.identity(dim).scale(GaussianRational(k - n))
            assert commutator == expected


def test_j_action():
    assert ops.j_action(Form.monomial(BasisMonomial((1,), (1,)))) == \
        Form.monomial(BasisMonomial((1,), (1,)))
    assert ops.j_action(Form.monomial(BasisMonomial((1, 2), ()))) == \
        -Form.monomial(BasisMonomial((1, 2), ()))
    f = Form.monomial(BasisMonomial((1,), (2, 3)))
    assert ops.j_action(f) == f * GaussianRational(0, -1)


def test_star_primitive_formula_eq2(cc_entries):
    # *L^r beta = (-1)^{k(k+1)/2} r!/(n-k-r)! L^{n-k-r} J beta on a basis of
    # every primitive subspace with k <= n
    from akhodge import hodge
    for entry in cc_entries.values():
        spec = entry.spec
        n = spec.n
        for k in range(0, n + 1):
            for pq in bidegrees_of_degree(k, n):
                prim = hodge.primitive_subspace(spec, pq)
                for beta in prim.forms():
                    for r in range(0, n - k + 1):
                        lifted = beta
                        for _ in range(r):
                            lifted = ops.lefschetz_L(spec, lifted)
                        lhs = ops.hodge_star(spec, lifted)
                        sign = -1 if (k * (k + 1) // 2) % 2 else 1
                        coeff = GaussianRational(
                            Fraction(factorial(r), factorial(n - k - r))
                            * sign) * i_power(pq[0] - pq[1])
                        rhs = beta * coeff
                        for _ in range(n - k - r):
                            rhs = ops.lefschetz_L(spec, rhs)
                        assert lhs == rhs


def test_star_primitive_low_degree_formula(cc_entries):
    # for primitive (p,q) with k <= n:
    # *alpha = (-1)^{k(k+1)/2} i^{p-q}/(n-k)! alpha ^ omega^{n-k}
    from akhodge import hodge
    for entry in cc_entries.values():
        spec = entry.spec
        n = spec.n
        for k in range(0, n + 1):
            for pq in bidegrees_of_degree(k, n):
                for alpha in hodge.primitive_subspace(spec, pq).forms():
                    omega_pow = Form.one()
                    for _ in range(n - k):
                        omega_pow = spec.omega.wedge(omega_pow)
                    sign = -1 if (k * (k + 1) // 2) % 2 else 1
                    coeff = GaussianRational(Fraction(sign,
                                                      factorial(n - k))) * \
                        i_power(pq[0] - pq[1])
                    assert ops.hodge_star(spec, alpha) == \
                        alpha.wedge(omega_pow) * coeff


# -- adjoints, d^c, inner products ----------------------------------------------

def test_adjoint_examples(entries, cc_entries):
    t6g = entries["torus6_g"].spec
    assert ops.apply_adjoint(t6g, "del", F("phi{1,2}", t6g)).is_zero()
    for entry in cc_entries.values():
        spec = entry.spec
        assert ops.apply_adjoint(spec, "d", Form.one()).is_zero()
        if spec.almost_kahler:
            assert ops.apply_adjoint(spec, "delbar", spec.omega).is_zero()


def test_dc_examples(entries, cc_entries):
    # d^c of a real function symbol h with dh declared
    spec = parse_spec("""
manifold dc_test
dim 4
coframe phi1 phi2
symbol h real d = phi{1,} + phi{,1}
omega = 1/2*i*phi{1,1} + 1/2*i*phi{2,2}
""")
    h = Form.one() * SymScalar.symbol("h")
    dh = ops.ext_d(spec, h)
    dc_h = ops.dc(spec, h)
    expected = (dh.project((0, 1)) - dh.project((1, 0))) * I
    assert dc_h == expected
    iw = entries["iwasawa_ak"].spec
    assert ops.dc(iw, Form.generator(3)).is_zero()
    for entry in cc_entries.values():
        if entry.spec.almost_kahler:
            assert ops.dc(entry.spec, entry.spec.omega).is_zero()


def test_adjoint_vs_gram_conjugate_transpose(cc_entries):
    # [D*] = G_src^{-1} [D]^dagger G_tgt for D in {d, mu, del, delbar, mubar}
    for entry in cc_entries.values():
        spec = entry.spec
        n = spec.n
        for pq in all_bidegrees(n):
            src_gram = ops.gram_diagonal(spec, pq)
            for op in ("mu", "del", "delbar", "mubar"):
                s, t = ops.COMPONENT_SHIFTS[op]
                tgt = (pq[0] + s, pq[1] + t)
                if not (0 <= tgt[0] <= n and 0 <= tgt[1] <= n):
                    continue
                D = ops.operator_block(spec, op, pq)
                D_star = ops.operator_block(spec, op + "_star", tgt)
                tgt_gram = ops.gram_diagonal(spec, tgt)
                lhs = D_star
                dagger = D.conj_transpose()
                expect = Matrix(
                    D.cols, D.rows,
                    [[dagger.data[i][j] * tgt_gram[j] / src_gram[i]
                      for j in range(D.rows)] for i in range(D.cols)])
                assert lhs == expect


# -- derived blocks against per-monomial oracles ---------------------------------

def _per_monomial_block(spec, fn, op: str, pq) -> Matrix:
    """Columns: fn applied to each basis monomial of pq, in the coordinates
    of op's concatenated targets."""
    n = spec.n
    target = [m for t in ops.op_targets(op, pq, n) for m in basis_of(t, n)]
    index = {m: i for i, m in enumerate(target)}
    columns = []
    for mono in basis_of(pq, n):
        column = [GaussianRational(0)] * len(target)
        for m, c in fn(Form.monomial(mono)).terms():
            column[index[m]] = c.constant_value()
        columns.append(column)
    return Matrix.from_columns(columns, len(target))


@pytest.fixture(scope="module")
def block_specs(cc_entries, ladder):
    """Fresh specs of the constant-coefficient entries and the n = 3, 4
    ladder."""
    specs = [parse_spec(catalog.dsl_source(key)) for key in cc_entries]
    return specs + [ladder(3), ladder(4)]


def test_adjoint_and_lambda_blocks_match_per_monomial_oracles(block_specs):
    cases = 0
    for spec in block_specs:
        for pq in all_bidegrees(spec.n):
            for D in ("mu", "del", "delbar", "mubar", "d"):
                oracle = _per_monomial_block(
                    spec, lambda f: ops.apply_adjoint(spec, D, f),
                    D + "_star", pq)
                assert ops.operator_block(spec, D + "_star", pq) == oracle, \
                    (spec.name, D, pq)
            oracle = _per_monomial_block(
                spec, lambda f: ops.dual_Lambda(spec, f), "Lambda", pq)
            assert ops.operator_block(spec, "Lambda", pq) == oracle, \
                (spec.name, pq)
            cases += 1
    # bidegrees: 5 catalog entries (n = 3, 2, 4, 3, 2), ladder n = 3, 4
    assert cases == 16 + 9 + 25 + 16 + 9 + 16 + 25


def test_component_blocks_match_per_monomial_component(block_specs):
    for spec in block_specs:
        for pq in all_bidegrees(spec.n):
            for op in ops.COMPONENT_SHIFTS:
                oracle = _per_monomial_block(
                    spec, lambda f: ops.component(spec, op, f), op, pq)
                assert ops.operator_block(spec, op, pq) == oracle, \
                    (spec.name, op, pq)


def test_gram_diagonal_matches_inner_product(cc_entries, ladder_dsl):
    half = parse_spec(ladder_dsl(3).replace("1/2*i*", "1/4*i*"))
    assert half.unitary_scale == Fraction(1, 2)
    specs = [parse_spec(catalog.dsl_source(key)) for key in cc_entries]
    scales = set()
    for spec in specs + [half]:
        scales.add(spec.unitary_scale)
        for pq in all_bidegrees(spec.n):
            norms = [ops.inner_product(spec, Form.monomial(m),
                                       Form.monomial(m)).constant_value()
                     for m in basis_of(pq, spec.n)]
            assert ops.gram_diagonal(spec, pq) == norms, (spec.name, pq)
    assert {1, Fraction(1, 2)} <= scales


NON_UNITARY = ("manifold flat_skewed\n"
               "dim 4\n"
               "coframe phi1 phi2\n"
               "omega = 1/2*i*phi{1,1} + i*phi{2,2}\n")


def test_adjoint_blocks_refuse_a_non_unitary_spec():
    spec = parse_spec(NON_UNITARY)
    assert spec.constant_coefficient and spec.unitary_scale is None
    for op in ("del_star", "Lambda", "d_star", "mu_star"):
        for pq in ((0, 0), (1, 1), (2, 2)):
            with pytest.raises(ops.NotUnitaryModeError,
                               match="is not in unitary mode"):
                ops.operator_block(spec, op, pq)
    # the forward blocks need no metric
    assert ops.operator_block(spec, "del", (1, 1)).is_zero()


def test_inner_product_values(cc_entries):
    flat = cc_entries["torus6_flat"].spec
    f12 = F("phi{1,2}", flat)
    f21 = F("phi{2,1}", flat)
    # golden constant fixed once by brute-force expansion of a ^ *conj(a)
    assert ops.inner_product(flat, f12, f12) == SymScalar.const(4)
    assert ops.inner_product(flat, f12, f21).is_zero()
    assert ops.inner_product(flat, Form.zero(), f12).is_zero()
    iw = cc_entries["iwasawa_ak"].spec
    assert ops.inner_product(iw, Form.generator(1), Form.generator(1)) == \
        SymScalar.one()


def test_inner_product_hermitian_positive(cc_entries):
    rng = random.Random(23)
    for entry in cc_entries.values():
        spec = entry.spec
        n = spec.n
        for _ in range(10):
            pq = (rng.randint(0, n), rng.randint(0, n))
            monos = basis_of(pq, n)
            a = Form({m: SymScalar.const(GaussianRational(
                rng.randint(-3, 3), rng.randint(-3, 3))) for m in monos})
            b = Form({m: SymScalar.const(GaussianRational(
                rng.randint(-3, 3), rng.randint(-3, 3))) for m in monos})
            ab = ops.inner_product(spec, a, b).constant_value()
            ba = ops.inner_product(spec, b, a).constant_value()
            assert ab == ba.conj()
            aa = ops.inner_product(spec, a, a).constant_value()
            assert aa.im == 0 and aa.re >= 0
            assert (aa.re == 0) == a.is_zero()


# -- matrices and Laplacians ------------------------------------------------------

def test_seven_d_squared_relations(cc_entries):
    pairs = [(("mu", "mu"),),
             (("mu", "del"), ("del", "mu")),
             (("del", "del"), ("mu", "delbar"), ("delbar", "mu")),
             (("del", "delbar"), ("delbar", "del"), ("mu", "mubar"),
              ("mubar", "mu")),
             (("delbar", "delbar"), ("mubar", "del"), ("del", "mubar")),
             (("mubar", "delbar"), ("delbar", "mubar")),
             (("mubar", "mubar"),)]
    for entry in cc_entries.values():
        spec = entry.spec
        n = spec.n
        for pq in all_bidegrees(n):
            dim = len(basis_of(pq, n))
            if dim == 0:
                continue
            for relation in pairs:
                total = None
                for outer, inner in relation:
                    s, t = ops.COMPONENT_SHIFTS[inner]
                    mid = (pq[0] + s, pq[1] + t)
                    s2, t2 = ops.COMPONENT_SHIFTS[outer]
                    out = (mid[0] + s2, mid[1] + t2)
                    rows = len(basis_of(out, n))
                    if not (0 <= mid[0] <= n and 0 <= mid[1] <= n):
                        term = Matrix.zeros(rows, dim)
                    else:
                        term = ops.operator_block(spec, outer, mid) * \
                            ops.operator_block(spec, inner, pq)
                    total = term if total is None else total + term
                assert total.is_zero()


def test_flat_torus_laplacian_vanishes(cc_entries):
    flat = cc_entries["torus6_flat"].spec
    assert ops.laplacian_matrix(flat, "delbar", (1, 1)).is_zero()


def test_h12_laplacian_difference(cc_entries):
    spec = cc_entries["h12_t3"].spec
    from akhodge.hodge import form_to_vector
    vec = form_to_vector(F("phi{1,4}", spec), (1, 1), spec.n)
    diff = ops.laplacian_matrix(spec, "delbar", (1, 1)) - \
        ops.laplacian_matrix(spec, "del", (1, 1))
    image = diff.apply(vec)
    assert any(bool(a) for a in image)


def test_dim4_laplacian_equality(cc_entries):
    for key in ("kt4", "torus4_flat"):
        spec = cc_entries[key].spec
        assert ops.laplacian_matrix(spec, "delbar", (1, 1)) == \
            ops.laplacian_matrix(spec, "del", (1, 1))


def test_cw_identity_on_ak_entries(cc_entries):
    for entry in cc_entries.values():
        spec = entry.spec
        if not spec.almost_kahler:
            continue
        for pq in all_bidegrees(spec.n):
            lhs = ops.laplacian_matrix(spec, "delbar", pq) + \
                ops.laplacian_matrix(spec, "mu", pq)
            rhs = ops.laplacian_matrix(spec, "del", pq) + \
                ops.laplacian_matrix(spec, "mubar", pq)
            assert lhs == rhs


def test_integrability_detector(entries):
    expected = {"torus6_flat": True, "torus4_flat": True, "torus6_f": False,
                "torus6_g": False, "h12_t3": False, "iwasawa_ak": False,
                "kt4": False}
    for key, want in expected.items():
        spec = entries[key].spec
        assert ops.is_integrable(spec) == want


def test_integrability_matches_matrix_vanishing(cc_entries):
    for entry in cc_entries.values():
        spec = entry.spec
        matrices_vanish = all(
            ops.operator_block(spec, op, pq).is_zero()
            for op in ("mu", "mubar")
            for pq in all_bidegrees(spec.n))
        assert matrices_vanish == ops.is_integrable(spec)


def test_laplacian_gram_hermitian_psd(cc_entries):
    rng = random.Random(71)
    checked = 0
    for entry in cc_entries.values():
        spec = entry.spec
        n = spec.n
        for pq in all_bidegrees(n):
            dim = len(basis_of(pq, n))
            if dim == 0:
                continue
            gram = ops.gram_diagonal(spec, pq)
            for D in ("mu", "del", "delbar", "mubar"):
                lap = ops.laplacian_matrix(spec, D, pq)
                # G . Delta = Delta^dagger . G  (hermitian for the pairing)
                lhs = Matrix(dim, dim, [[lap.data[i][j] * gram[i]
                                         for j in range(dim)]
                                        for i in range(dim)])
                dag = lap.conj_transpose()
                rhs = Matrix(dim, dim, [[dag.data[i][j] * gram[j]
                                         for j in range(dim)]
                                        for i in range(dim)])
                assert lhs == rhs
                # random exact nonnegativity of <Delta x, x>
                for _ in range(3):
                    x = [GaussianRational(rng.randint(-2, 2),
                                          rng.randint(-2, 2))
                         for _ in range(dim)]
                    y = lap.apply(x)
                    val = GaussianRational(0)
                    for g, yi, xi in zip(gram, y, x):
                        val = val + yi * xi.conj() * g
                    assert val.im == 0 and val.re >= 0
                    checked += 1
    assert checked >= 500


def test_operator_matrix_shapes_and_json(cc_entries):
    spec = cc_entries["iwasawa_ak"].spec
    m = ops.operator_matrix(spec, "d", (1, 1))
    assert m.source == (1, 1)
    assert m.targets == ((0, 3), (1, 2), (2, 1), (3, 0))
    payload = m.to_dict()
    assert payload["shape"] == [m.matrix.rows, m.matrix.cols]
    lap = ops.operator_matrix(spec, "Delta_delbar", (1, 1))
    assert lap.matrix.rows == lap.matrix.cols == 9
    lap_d = ops.operator_matrix(spec, "Delta_d", (1, 1))
    assert lap_d.targets == ((0, 2), (1, 1), (2, 0))


def test_matrix_mode_guards(entries):
    symbolic = entries["torus6_g"].spec
    with pytest.raises(ops.NotConstantCoefficientError):
        ops.operator_matrix(symbolic, "delbar", (1, 1))
    non_unitary = entries["torus6_f"].spec
    with pytest.raises(ops.NotUnitaryModeError):
        ops.hodge_star(non_unitary, Form.generator(1))


def test_spec_memo_keys_by_function():
    spec = parse_spec(catalog.dsl_source("kt4"))
    first = ops.spec_memo(lambda spec, x: ("first", x))
    second = ops.spec_memo(lambda spec, x: ("second", x))
    before = len(spec._cache)
    assert first(spec, 1) == ("first", 1)
    assert second(spec, 1) == ("second", 1)
    assert first(spec, 1) == ("first", 1)
    assert len(spec._cache) == before + 2


def test_spec_memo_returns_the_cached_object():
    spec = parse_spec(catalog.dsl_source("kt4"))
    block = ops.operator_block(spec, "delbar", (1, 0))
    assert ops.operator_block(spec, "delbar", (1, 0)) is block
    assert ops.operator_block(spec, "del", (1, 0)) is not block


def test_spec_memo_stores_nothing_when_the_call_raises():
    spec = parse_spec(catalog.dsl_source("torus6_f"))
    mono = BasisMonomial((1,), ())
    before = dict(spec._cache)
    for _ in range(2):
        with pytest.raises(ops.NotUnitaryModeError):
            ops._star_monomial(spec, mono)
        assert spec._cache == before
