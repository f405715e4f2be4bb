import hashlib
import json
import random
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
import sympy

from akhodge import catalog, hodge, model, operators as ops
from akhodge.exterior import (BasisMonomial, Form, basis_of,
                              bidegrees_of_degree)
from akhodge.linalg import Matrix
from akhodge.model import parse_form, parse_spec
from akhodge.scalars import GaussianRational, I, SymScalar, i_power

import properties_util as props
from oracles import (apply_adjoint, brute_component_matrix,
                     component_by_projection, dc, dense, dual_Lambda,
                     from_dicts, full_degree_oracle,
                     harmonic_equations_by_product, inner_product, j_action,
                     laplacian_two_products, leibniz_d, matrix_to_sympy,
                     one_form, op_targets_chain, real_frame_norms,
                     real_frame_star, sort_sign, volume_form)


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


def test_closed_form_d_matches_leibniz_oracle(entries, ladder):
    # every monomial of every catalog entry (symbolic ones included) and of
    # the n = 3, 4 ladder, on fresh specs
    specs = [parse_spec(catalog.dsl_source(key)) for key in entries]
    specs += [ladder(3), ladder(4)]
    # the memo splits d(m) by target bidegree and keeps nonzero parts only
    symbolic = 0
    for spec in specs:
        for pq in all_bidegrees(spec.n):
            for m in basis_of(pq, spec.n):
                parts = ops._d_monomial(spec, m)
                want = leibniz_d(spec, m)
                assert parts == want.components(), (spec.name, m)
                symbolic += not want.is_constant_coefficient()
    assert len(specs) == 9 and symbolic > 0


# declared derivatives with both a (1,0) and a (0,1) part, and symbolic
# structure coefficients; parsed only, as d^2 = 0 plays no part here
DECLARED = """
manifold declared_mixed
dim 6
coframe phi1 phi2 phi3
symbol F real d = phi{3,} + phi{,3}
symbol G conj H d = 2*phi{1,} - i*F*phi{,2}
symbol H conj G d = 2*phi{,1} + i*F*phi{2,}
d phi1 = G*phi{2,3} + F*phi{,23} - 1/2*phi{3,2}
d phi2 = H^2*phi{13,} + i*phi{1,1}
omega = 1/2*i*phi{1,1} + 1/2*i*phi{2,2} + 1/2*i*phi{3,3}
"""


def test_component_matches_the_projection_oracle(entries, ladder):
    # the four components of seeded mixed-bidegree forms, symbolic
    # coefficients included, on every catalog entry, the n = 3, 4 ladder and
    # a spec with declared derivatives; an opaque derivative raises on both
    # routes, naming the same symbol when the form is pure
    rng = random.Random(31)
    specs = [e.spec for e in entries.values()] + [ladder(3), ladder(4),
                                                  parse_spec(DECLARED)]
    compared = {"constant": 0, "symbolic": 0, "opaque": 0}
    for spec in specs:
        n = spec.n
        monos = [m for pq in all_bidegrees(n) for m in basis_of(pq, n)]
        names = sorted(spec.symbols)

        def coeff():
            value = SymScalar.const(GaussianRational(
                Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                rng.randint(-2, 2)))
            if names and rng.random() < 0.4:
                value = value + SymScalar.symbol(
                    rng.choice(names), rng.choice((1, 2, -1)),
                    rng.choice((1, -2, I)))
            return value

        for _ in range(16):
            form = Form({rng.choice(monos): coeff()
                         for _ in range(rng.randint(1, 5))})
            for op in ops.COMPONENT_SHIFTS:
                try:
                    want = component_by_projection(spec, op, form)
                except ops.OpaqueDerivativeError as exc:
                    with pytest.raises(ops.OpaqueDerivativeError) as got:
                        ops.component(spec, op, form)
                    if form.pure_bidegree() is not None:
                        assert got.value.symbol == exc.symbol
                    compared["opaque"] += 1
                    continue
                assert ops.component(spec, op, form) == want, (spec.name,
                                                               op, form)
                compared["constant" if form.is_constant_coefficient()
                         else "symbolic"] += 1
    assert min(compared.values()) >= 20, compared


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
        omega_n = one_form()
        for _ in range(n):
            omega_n = spec.omega.wedge(omega_n)
        assert ops.hodge_star(spec, one_form()) == \
            omega_n * Fraction(1, factorial(n))


def test_star_of_omega(cc_entries):
    for entry in cc_entries.values():
        spec = entry.spec
        n = spec.n
        omega_pow = one_form()
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
        vol = volume_form(spec)
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


# c^{n-k} and (1/c)^{k-n} are int pairs per degree: scales with both parts
# other than 1 tell the numerator from the denominator
@pytest.mark.parametrize("scale", [Fraction(1), Fraction(1, 2),
                                   Fraction(2, 3), Fraction(3, 2)])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_star_matches_real_frame_oracle(n, scale):
    spec = flat_spec(n, scale)
    assert spec.unitary_scale == scale
    for pq in all_bidegrees(n):
        for m in basis_of(pq, n):
            assert ops._star_monomial(spec, m) == real_frame_star(spec, m)


@pytest.mark.parametrize("scale", [Fraction(1, 2), Fraction(1),
                                   Fraction(2), Fraction(3),
                                   Fraction(2, 3), Fraction(3, 2)])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_star_blocks_match_real_frame_oracle(n, scale):
    # column m of the star block at every bidegree, k > n included, is
    # real_frame_star(m) in the coordinates of basis_of((n-q, n-p))
    spec = flat_spec(n, scale)
    assert spec.unitary_scale == scale
    for p, q in all_bidegrees(n):
        index = {m: i for i, m in enumerate(basis_of((n - q, n - p), n))}
        rows = [{} for _ in index]
        for col, mono in enumerate(basis_of((p, q), n)):
            factor, target = real_frame_star(spec, mono)
            rows[index[target]][col] = factor
        assert ops.operator_block(spec, "star", (p, q)) == \
            from_dicts(rows, len(index)), (p, q)


@pytest.mark.parametrize("scale", [Fraction(1, 2), Fraction(1),
                                   Fraction(2), Fraction(3)])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_gram_diagonal_matches_real_frame_norms(n, scale):
    # <m, m> = m ^ *conj(m) / vol with the real-frame star, never the
    # engine's: (2/c)^{p+q} on every monomial
    spec = flat_spec(n, scale)
    assert spec.unitary_scale == scale
    norms = real_frame_norms(spec)
    for p, q in all_bidegrees(n):
        monos = basis_of((p, q), n)
        assert [norms[m] for m in monos] == \
            [GaussianRational(ops.norm(spec, p + q))] * len(monos)
        assert ops.norm(spec, p + q) == (2 / scale) ** (p + q)


def test_laplacian_d_full_matches_sympy_oracle(cc_entries, ladder):
    # Delta_d = d* d + d d* in sympy, with d from ext_d and d* from
    # apply_adjoint (-*d*) one monomial at a time: neither goes through the
    # operator blocks or the scaled-conjugate-transpose adjoint rule
    specs = [entry.spec for entry in cc_entries.values()] + [ladder(3)]
    for spec in specs:
        d = {k: full_degree_oracle(spec, "d", k)
             for k in range(-1, 2 * spec.n + 1)}
        d_star = {k: full_degree_oracle(spec, "d_star", k)
                  for k in range(2 * spec.n + 2)}
        for k in range(2 * spec.n + 1):
            oracle = d_star[k + 1] * d[k] + d[k - 1] * d_star[k]
            mine = ops.laplacian_d_full(spec, k)
            assert (mine.rows, mine.cols) == oracle.shape, (spec.name, k)
            assert matrix_to_sympy(mine) == oracle.applyfunc(sympy.expand), \
                (spec.name, k)


def test_lambda_of_omega_is_n(cc_entries):
    for entry in cc_entries.values():
        spec = entry.spec
        assert dual_Lambda(spec, spec.omega) == \
            one_form() * spec.n


def test_lambda_kills_offdiagonal(cc_entries):
    for entry in cc_entries.values():
        spec = entry.spec
        if spec.n >= 2:
            f = Form.monomial(BasisMonomial((1,), (2,)))
            assert dual_Lambda(spec, f).is_zero()


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
                assert block == \
                    dense(columns, len(target)).transpose()
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
                assert dual_Lambda(spec, f) == expected


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
    assert j_action(Form.monomial(BasisMonomial((1,), (1,)))) == \
        Form.monomial(BasisMonomial((1,), (1,)))
    assert j_action(Form.monomial(BasisMonomial((1, 2), ()))) == \
        -Form.monomial(BasisMonomial((1, 2), ()))
    f = Form.monomial(BasisMonomial((1,), (2, 3)))
    assert j_action(f) == f * GaussianRational(0, -1)


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
                    omega_pow = one_form()
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
    assert apply_adjoint(t6g, "del", F("phi{1,2}", t6g)).is_zero()
    for entry in cc_entries.values():
        spec = entry.spec
        assert apply_adjoint(spec, "d", one_form()).is_zero()
        if spec.almost_kahler:
            assert apply_adjoint(spec, "delbar", spec.omega).is_zero()


def test_dc_examples(entries, cc_entries):
    # d^c of a real function symbol h with dh declared
    spec = parse_spec("""
manifold dc_test
dim 4
coframe phi1 phi2
symbol h real d = phi{1,} + phi{,1}
omega = 1/2*i*phi{1,1} + 1/2*i*phi{2,2}
""")
    h = one_form() * SymScalar.symbol("h")
    dh = ops.ext_d(spec, h)
    dc_h = dc(spec, h)
    expected = (dh.project((0, 1)) - dh.project((1, 0))) * I
    assert dc_h == expected
    iw = entries["iwasawa_ak"].spec
    assert dc(iw, Form.generator(3)).is_zero()
    for entry in cc_entries.values():
        if entry.spec.almost_kahler:
            assert dc(entry.spec, entry.spec.omega).is_zero()


def test_adjoint_vs_gram_conjugate_transpose(cc_entries):
    # [D*] = G_src^{-1} [D]^dagger G_tgt for D in {mu, del, delbar, mubar},
    # the Gram matrix on k-forms being norm(k) times the identity
    for entry in cc_entries.values():
        props.adjoint_gram_cases(entry.spec)


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
    return dense(columns, len(target)).transpose()


@pytest.fixture(scope="module")
def block_specs(cc_entries, ladder, ladder_dsl):
    """Fresh specs of the constant-coefficient entries (iwasawa_ak at
    scale 2), the n = 3, 4 ladder, the n = 3 ladder with omega halved
    (scale 1/2), `mixed_ladder` and `swapped_ladder`."""
    specs = [parse_spec(catalog.dsl_source(key)) for key in cc_entries]
    half = parse_spec(ladder_dsl(3).replace("1/2*i*", "1/4*i*"))
    return specs + [ladder(3), ladder(4), half, mixed_ladder(ladder_dsl),
                    swapped_ladder(ladder_dsl)]


def mixed_ladder(ladder_dsl):
    """The n = 3 ladder with d(phi^1) scaled by 1/3, so that its 2-forms
    have the denominators 2, 4 and 12; d^2 = 0 still holds, but omega is no
    longer closed."""
    dsl = ladder_dsl(3).replace("manifold ladder_n3", "manifold mixed3")
    line = next(l for l in dsl.splitlines() if l.startswith("d phi1 = "))
    return parse_spec(dsl.replace(line, line.replace("1/4*", "1/12*")))


def swapped_ladder(ladder_dsl):
    """The n = 4 ladder with its lines relabelled, phi^1 <-> phi^3 and
    phi^2 <-> phi^4: d acts on phi^3 and phi^4 only, so every closed factor
    that `_d_hits` skips comes before a non-closed one and still counts in
    the sign."""
    swap = {1: 3, 2: 4, 3: 1, 4: 2}
    ladder = parse_spec(ladder_dsl(4))
    lines = ["manifold swapped4", "dim 8", "coframe phi1 phi2 phi3 phi4"]
    for j in (1, 2):
        terms = {}
        for mono, c in ladder.d_generator(j).terms():
            holo_sign, holo = sort_sign(swap[g] for g in mono.holo)
            anti_sign, anti = sort_sign(swap[g] for g in mono.anti)
            terms[BasisMonomial(holo, anti)] = c * (holo_sign * anti_sign)
        lines.append(f"d phi{swap[j]} = {Form(terms).render()}")
    lines.append(next(line for line in ladder_dsl(4).splitlines()
                      if line.startswith("omega = ")))
    return parse_spec("\n".join(lines) + "\n")


def test_swapped_ladder_is_the_ladder_relabelled(ladder, ladder_dsl):
    spec = swapped_ladder(ladder_dsl)
    checks = {item.check: item.status for item in model.validate(spec).items}
    assert [checks[f"d2_phi{j}"] for j in (1, 2, 3, 4)] == ["Verified"] * 4
    assert spec.unitary_scale == 1
    assert [spec.d_generator(j).is_zero() for j in (1, 2, 3, 4)] == \
        [True, True, False, False]
    assert spec.d_generator(3) == F("1/4*i*phi{14,} - 1/4*i*phi{4,1} "
                                    "+ 1/4*i*phi{1,4} + 1/4*i*phi{,14}", spec)
    assert hodge.hodge_table(spec, "delbar") == \
        hodge.hodge_table(ladder(4), "delbar")


def test_adjoint_and_lambda_blocks_match_per_monomial_oracles(block_specs):
    assert {spec.unitary_scale for spec in block_specs} == \
        {1, 2, Fraction(1, 2)}
    cases = 0
    for spec in block_specs:
        for pq in all_bidegrees(spec.n):
            for D in ("mu", "del", "delbar", "mubar", "d"):
                oracle = _per_monomial_block(
                    spec, lambda f: apply_adjoint(spec, D, f),
                    D + "_star", pq)
                assert ops.operator_block(spec, D + "_star", pq) == oracle, \
                    (spec.name, D, pq)
            oracle = _per_monomial_block(
                spec, lambda f: dual_Lambda(spec, f), "Lambda", pq)
            assert ops.operator_block(spec, "Lambda", pq) == oracle, \
                (spec.name, pq)
            cases += 1
    # bidegrees: 5 catalog entries (n = 3, 2, 4, 3, 2), ladder n = 3, 4, 3,
    # 3, 4
    assert cases == 16 + 9 + 25 + 16 + 9 + 16 + 25 + 16 + 16 + 25


def test_component_blocks_match_per_monomial_component(block_specs):
    for spec in block_specs:
        for pq in all_bidegrees(spec.n):
            for op in ops.COMPONENT_SHIFTS:
                oracle = _per_monomial_block(
                    spec, lambda f: ops.component(spec, op, f), op, pq)
                assert ops.operator_block(spec, op, pq) == oracle, \
                    (spec.name, op, pq)


def test_forward_blocks_match_per_monomial_forms(block_specs):
    # the "d", "L", "dc" and "J" blocks against leibniz_d, lefschetz_L, dc
    # and j_action applied to one basis monomial at a time
    appliers = {"d": lambda spec, f: leibniz_d(spec, f.terms()[0][0]),
                "L": ops.lefschetz_L, "dc": dc,
                "J": lambda spec, f: j_action(f)}
    for spec in block_specs:
        for pq in all_bidegrees(spec.n):
            for op, fn in appliers.items():
                oracle = _per_monomial_block(
                    spec, lambda f: fn(spec, f), op, pq)
                assert ops.operator_block(spec, op, pq) == oracle, \
                    (spec.name, op, pq)


def test_full_degree_matrix_matches_per_monomial_oracle(block_specs):
    # the block writer over whole degrees, from the 1 x 0 matrix at k = -1
    # to the 0 x 1 matrix at k = 2n
    for spec in block_specs:
        for k in range(-1, 2 * spec.n + 1):
            mine = ops.full_degree_matrix(spec, k)
            oracle = full_degree_oracle(spec, "d", k)
            assert (mine.rows, mine.cols) == oracle.shape, (spec.name, k)
            assert matrix_to_sympy(mine) == oracle, (spec.name, k)
        assert ops.full_degree_matrix(spec, -1).rows == 1
        assert ops.full_degree_matrix(spec, 2 * spec.n).cols == 1


def test_mixed_ladder_shares_one_denominator(ladder_dsl):
    # the blocks of `mixed_ladder` (checked with the other block specs) see
    # 2-forms over 4 and 12, and its "d" blocks have rows over both
    spec = mixed_ladder(ladder_dsl)
    checks = {item.check: item.status for item in model.validate(spec).items}
    assert [checks[f"d2_phi{j}"] for j in (1, 2, 3)] == ["Verified"] * 3
    assert {c.constant_value().im.denominator
            for j in (1, 2) for _, c in spec.d_generator(j).terms()} == {4, 12}
    assert {den for pq in all_bidegrees(spec.n)
            for den, row in ops.operator_block(spec, "d", pq).sparse
            if row} >= {4, 12}


def test_gram_diagonal_matches_inner_product(cc_entries, ladder_dsl):
    half = parse_spec(ladder_dsl(3).replace("1/2*i*", "1/4*i*"))
    assert half.unitary_scale == Fraction(1, 2)
    specs = [parse_spec(catalog.dsl_source(key)) for key in cc_entries]
    scales = set()
    for spec in specs + [half]:
        scales.add(spec.unitary_scale)
        for pq in all_bidegrees(spec.n):
            norms = [inner_product(spec, Form.monomial(m),
                                   Form.monomial(m)).constant_value()
                     for m in basis_of(pq, spec.n)]
            assert [GaussianRational(ops.norm(spec, sum(pq)))] * len(norms) \
                == norms, (spec.name, pq)
    assert {1, Fraction(1, 2)} <= scales


# aff(R) x aff(R), which has no compact quotient: d is nonzero on 3-forms
AFF2 = ("manifold aff2\ndim 4\ncoframe phi1 phi2\n"
        "d phi1 = -1/2*phi{1,1}\nd phi2 = -1/2*phi{2,2}\n"
        "omega = 1/2*i*phi{1,1} + 1/2*i*phi{2,2}\n")

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
    # the Laplacians of the components too, though Delta_mu on (1,1)
    # reaches no other bidegree at n = 2
    assert ops.op_targets("mu", (1, 1), 2) == ops.op_targets(
        "mu_star", (1, 1), 2) == []
    for D in ops.COMPONENT_SHIFTS:
        for pq in ((0, 0), (1, 1), (2, 2)):
            with pytest.raises(ops.NotUnitaryModeError,
                               match="is not in unitary mode"):
                ops.laplacian_matrix(spec, D, pq)
    # the forward blocks need no metric
    assert ops.operator_block(spec, "del", (1, 1)).is_zero()


def raised(fn, *args):
    """(type, message) of the exception fn(*args) raises."""
    with pytest.raises(Exception) as info:
        fn(*args)
    return info.type, str(info.value)


def test_laplacian_guards_run_in_a_fixed_order():
    # the bidegree, then constant coefficients, then unitary mode, then
    # unimodularity, each with its message, on every component Laplacian;
    # Delta_d refuses an out-of-range bidegree first too
    skewed = "omega = 1/2*i*phi{1,1} + i*phi{2,2} + 1/2*i*phi{3,3}\n"
    symbolic = parse_spec(catalog.dsl_source("torus6_g").replace(
        "omega = 1/2*i*phi{1,1} + 1/2*i*phi{2,2} + 1/2*i*phi{3,3}\n",
        skewed))
    non_unitary = parse_spec(NON_UNITARY)
    aff2 = parse_spec(AFF2)
    aff2_skewed = parse_spec(AFF2.replace("aff2", "aff2_skewed").replace(
        "+ 1/2*i*phi{2,2}", "+ i*phi{2,2}"))
    assert not symbolic.constant_coefficient
    assert symbolic.unitary_scale is None
    assert aff2_skewed.unitary_scale is None
    cases = [
        (symbolic, ops.NotConstantCoefficientError,
         "spec 'torus6_g' has symbolic coefficients; operator matrices need "
         "constant coefficients"),
        (non_unitary, ops.NotUnitaryModeError,
         "spec 'flat_skewed' is not in unitary mode "
         "(omega != (i c/2) sum phi^{j jbar})"),
        (aff2_skewed, ops.NotUnitaryModeError,
         "spec 'aff2_skewed' is not in unitary mode "
         "(omega != (i c/2) sum phi^{j jbar})"),
        (aff2, ops.OperatorError,
         "spec 'aff2' is not unimodular (d of an invariant 3-form is "
         "nonzero): the metric adjoints of d and its components differ "
         "from -*d* there, and the theorems assume a compact quotient"),
    ]
    for spec, *want in cases:
        n = spec.n
        for D in ops.COMPONENT_SHIFTS:
            for pq in all_bidegrees(n):
                assert raised(ops.laplacian_matrix, spec, D, pq) == \
                    tuple(want), (spec.name, D, pq)
        for D in ("d", *ops.COMPONENT_SHIFTS):
            for pq in ((-1, 0), (n + 1, 0), (0, n + 1)):
                assert raised(ops.laplacian_matrix, spec, D, pq) == (
                    ValueError, f"bidegree {pq} is outside 0..{n}")
    assert not any(key[0] is ops.laplacian_matrix.__wrapped__
                   for spec, *_ in cases for key in spec._cache)


def test_membership_refuses_a_non_unitary_spec():
    spec = parse_spec(NON_UNITARY)
    for D in ("del", "delbar"):
        with pytest.raises(ops.NotUnitaryModeError,
                           match="is not in unitary mode"):
            hodge.harmonic_membership(spec, D, Form.generator(1))


def test_inner_product_values(cc_entries):
    flat = cc_entries["torus6_flat"].spec
    f12 = F("phi{1,2}", flat)
    f21 = F("phi{2,1}", flat)
    # golden constant fixed once by brute-force expansion of a ^ *conj(a)
    assert inner_product(flat, f12, f12) == SymScalar.const(4)
    assert inner_product(flat, f12, f21).is_zero()
    assert inner_product(flat, Form.zero(), f12).is_zero()
    iw = cc_entries["iwasawa_ak"].spec
    assert inner_product(iw, Form.generator(1), Form.generator(1)) == \
        SymScalar.const(1)


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
            ab = inner_product(spec, a, b).constant_value()
            ba = inner_product(spec, b, a).constant_value()
            assert ab == ba.conj()
            aa = inner_product(spec, a, a).constant_value()
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


def test_op_targets_match_the_branch_chain():
    # every non-Laplacian operator, n = 1..6, and every (p,q) up to one step
    # outside 0..n
    block_ops = [op for op in ops.OPERATOR_IDS if not op.startswith("Delta_")]
    cases = 0
    for n in range(1, 7):
        for p in range(-1, n + 2):
            for q in range(-1, n + 2):
                for op in block_ops:
                    assert ops.op_targets(op, (p, q), n) == \
                        op_targets_chain(op, (p, q), n), (op, p, q, n)
                    cases += 1
    assert cases == 15 * sum((n + 3) ** 2 for n in range(1, 7))
    for targets in (ops.op_targets, op_targets_chain):
        for op in ("Delta_delbar", "nabla"):
            with pytest.raises(ValueError, match=f"unknown operator id '{op}'"):
                targets(op, (1, 1), 3)


def test_laplacian_matrix_matches_two_products(block_specs):
    cases = 0
    for spec in block_specs:
        for pq in all_bidegrees(spec.n):
            for D in ops.COMPONENT_SHIFTS:
                assert ops.laplacian_matrix(spec, D, pq) == \
                    laplacian_two_products(spec, D, pq), (spec.name, D, pq)
                cases += 1
    assert cases == 4 * (16 + 9 + 25 + 16 + 9 + 16 + 25 + 16 + 16 + 25)


def test_harmonic_equations_match_the_star_block_product(block_specs):
    # E = partner * star is written by _times_star, with no star block and
    # no product; the oracle multiplies the two blocks
    cases = 0
    for spec in block_specs:
        for pq in all_bidegrees(spec.n):
            for D in ops.STAR_PARTNERS:
                assert hodge.harmonic_equations(spec, D, pq) == \
                    harmonic_equations_by_product(spec, D, pq), \
                    (spec.name, D, pq)
                cases += 1
    assert cases == 5 * (16 + 9 + 25 + 16 + 9 + 16 + 25 + 16 + 16 + 25)


def test_flat_torus_laplacian_vanishes(cc_entries):
    flat = cc_entries["torus6_flat"].spec
    assert ops.laplacian_matrix(flat, "delbar", (1, 1)).is_zero()


def test_h12_laplacian_difference(cc_entries):
    spec = cc_entries["h12_t3"].spec
    from akhodge.hodge import forms_to_rows
    row = forms_to_rows([F("phi{1,4}", spec)], (1, 1), spec.n)
    diff = ops.laplacian_matrix(spec, "delbar", (1, 1)) - \
        ops.laplacian_matrix(spec, "del", (1, 1))
    image = diff.apply(row)
    assert not image.is_zero()


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


def test_unimodularity_detector(cc_entries):
    # d vanishes on (2n-1)-forms on every nilmanifold entry, not on
    # aff(R) x aff(R), which has no compact quotient
    assert len(cc_entries) == 5
    assert all(ops.is_unimodular(entry.spec) for entry in cc_entries.values())
    aff2 = parse_spec(AFF2)
    assert not ops.is_unimodular(aff2)
    with pytest.raises(ops.OperatorError, match="not unimodular"):
        ops.operator_block(aff2, "delbar_star", (1, 1))
    with pytest.raises(ops.OperatorError, match="not unimodular"):
        ops.laplacian_d_full(aff2, 2)
    # Delta_mu on (1,1) reaches no other bidegree at n = 2
    for D in ops.COMPONENT_SHIFTS:
        with pytest.raises(ops.OperatorError, match="not unimodular"):
            ops.laplacian_matrix(aff2, D, (1, 1))
    assert ops.operator_block(aff2, "Lambda", (1, 1)).rows == 1


def test_integrability_matches_matrix_vanishing(cc_entries):
    for entry in cc_entries.values():
        spec = entry.spec
        matrices_vanish = all(
            ops.operator_block(spec, op, pq).is_zero()
            for op in ("mu", "mubar")
            for pq in all_bidegrees(spec.n))
        assert matrices_vanish == ops.is_integrable(spec)


def test_laplacian_gram_hermitian_psd(cc_entries):
    # G . Delta = Delta^dagger . G (hermitian for the pairing), and exact
    # nonnegativity of <Delta x, x> on random x
    rng = random.Random(71)
    checked = sum(props.laplacian_psd_cases(entry.spec, rng, per_matrix=3)
                  for entry in cc_entries.values())
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


DIGESTS = Path(__file__).resolve().parent / "data" / \
    "operator_matrix_digests.json"


def test_operator_matrix_golden_digest(cc_entries):
    # every operator matrix of every constant-coefficient entry, byte for
    # byte as recorded before the blocks were built in closed form
    golden = json.loads(DIGESTS.read_text(encoding="utf-8"))
    digests = {}
    count = 0
    for key in cc_entries:
        spec = parse_spec(catalog.dsl_source(key))
        digest = hashlib.sha256()
        for op in ops.OPERATOR_IDS:
            for pq in all_bidegrees(spec.n):
                payload = ops.operator_matrix(spec, op, pq).to_dict()
                digest.update((json.dumps(payload, sort_keys=True,
                                          separators=(",", ":"))
                               + "\n").encode("utf-8"))
                count += 1
        digests[key] = digest.hexdigest()
    assert count == golden["matrices"]
    assert digests == golden["sha256"]


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
