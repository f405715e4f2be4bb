"""Criterion-8 property runners; each returns the number of verified cases.

Exhaustive suites range over whole monomial bases or whole matrices; the
randomized ones (Laplacian positivity, decomposition round trip) draw from a
seeded generator so every run checks the same cases.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

from akhodge import hodge, operators as ops
from akhodge.exterior import Form, basis_of, bidegrees_of_degree
from akhodge.linalg import Matrix
from akhodge.scalars import GaussianRational, SymScalar, i_power

from oracles import dense, dual_Lambda

SEVEN_RELATIONS = [
    (("mu", "mu"),),
    (("mu", "del"), ("del", "mu")),
    (("del", "del"), ("mu", "delbar"), ("delbar", "mu")),
    (("del", "delbar"), ("delbar", "del"), ("mu", "mubar"), ("mubar", "mu")),
    (("delbar", "delbar"), ("mubar", "del"), ("del", "mubar")),
    (("mubar", "delbar"), ("delbar", "mubar")),
    (("mubar", "mubar"),),
]


def all_bidegrees(n):
    return [(p, q) for p in range(n + 1) for q in range(n + 1)]


def seven_relations_cases(spec) -> int:
    n = spec.n
    cases = 0
    for pq in all_bidegrees(n):
        dim = len(basis_of(pq, n))
        if dim == 0:
            continue
        for relation in SEVEN_RELATIONS:
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
            assert total.is_zero(), (spec.name, pq, relation)
            cases += dim
    return cases


def double_star_cases(spec) -> int:
    cases = 0
    for pq in all_bidegrees(spec.n):
        k = pq[0] + pq[1]
        for m in basis_of(pq, spec.n):
            f = Form.monomial(m)
            ss = ops.hodge_star(spec, ops.hodge_star(spec, f))
            assert ss == (f if k % 2 == 0 else -f), (spec.name, m)
            cases += 1
    return cases


def lambda_star_formula_cases(spec) -> int:
    # Lambda = (-1)^k * L * (the -*L* formula, parity-corrected; see ledger)
    cases = 0
    for pq in all_bidegrees(spec.n):
        k = pq[0] + pq[1]
        for m in basis_of(pq, spec.n):
            f = Form.monomial(m)
            raw = ops.hodge_star(spec,
                                 ops.lefschetz_L(spec, ops.hodge_star(spec, f)))
            expected = raw if k % 2 == 0 else -raw
            assert dual_Lambda(spec, f) == expected, (spec.name, m)
            cases += 1
    return cases


def primitive_kernel_equivalence_cases(spec) -> int:
    # ker Lambda = ker L^{n-k+1} is re-asserted inside primitive_subspace
    cases = 0
    for pq in all_bidegrees(spec.n):
        if pq[0] + pq[1] <= spec.n:
            hodge.primitive_subspace(spec, pq)
            cases += 1
    return cases


def star_primitive_formula_cases(spec) -> int:
    n = spec.n
    cases = 0
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
                        Fraction(factorial(r), factorial(n - k - r)) * sign
                    ) * i_power(pq[0] - pq[1])
                    rhs = beta * coeff
                    for _ in range(n - k - r):
                        rhs = ops.lefschetz_L(spec, rhs)
                    assert lhs == rhs, (spec.name, pq, r)
                    cases += 1
    return cases


def adjoint_gram_cases(spec) -> int:
    n = spec.n
    cases = 0
    for pq in all_bidegrees(n):
        src_norm = ops.norm(spec, pq[0] + pq[1])
        for op in ("mu", "del", "delbar", "mubar"):
            s, t = ops.COMPONENT_SHIFTS[op]
            tgt = (pq[0] + s, pq[1] + t)
            if not (0 <= tgt[0] <= n and 0 <= tgt[1] <= n):
                continue
            D = ops.operator_block(spec, op, pq)
            D_star = ops.operator_block(spec, op + "_star", tgt)
            tgt_norm = ops.norm(spec, tgt[0] + tgt[1])
            dagger = D.conj_transpose().data
            expected = dense(
                [[dagger[i][j] * tgt_norm / src_norm
                  for j in range(D.rows)] for i in range(D.cols)], D.rows)
            assert D_star == expected, (spec.name, op, pq)
            cases += D.cols
    return cases


def laplacian_psd_cases(spec, rng: random.Random, per_matrix: int) -> int:
    n = spec.n
    cases = 0
    for pq in all_bidegrees(n):
        dim = len(basis_of(pq, n))
        if dim == 0:
            continue
        gram = [ops.norm(spec, sum(pq))] * dim
        for D in ("mu", "del", "delbar", "mubar"):
            lap = ops.laplacian_matrix(spec, D, pq)
            lap_rows = lap.data
            lhs = dense([[lap_rows[i][j] * gram[i] for j in range(dim)]
                         for i in range(dim)], dim)
            dag = lap.conj_transpose().data
            rhs = dense([[dag[i][j] * gram[j] for j in range(dim)]
                         for i in range(dim)], dim)
            assert lhs == rhs, (spec.name, D, pq, "gram-hermitian")
            for _ in range(per_matrix):
                x = [GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
                     for _ in range(dim)]
                y = lap.apply(dense([x], dim)).data[0]
                value = GaussianRational(0)
                for g, yi, xi in zip(gram, y, x):
                    value = value + yi * xi.conj() * g
                assert value.im == 0 and value.re >= 0, (spec.name, D, pq)
                cases += 1
    return cases


def decomposition_roundtrip_cases(spec, rng: random.Random, count: int) -> int:
    n = spec.n
    cases = 0
    for _ in range(count):
        pq = (rng.randint(0, n), rng.randint(0, n))
        monos = basis_of(pq, n)
        picks = rng.sample(monos, k=min(len(monos), rng.randint(1, 3)))
        form = Form({m: SymScalar.const(GaussianRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 4))))
            for m in picks})
        decomposition = hodge.primitive_decompose(spec, form)
        assert decomposition.reconstruct(spec) == form, (spec.name, pq)
        for beta in decomposition.components.values():
            assert dual_Lambda(spec, beta).is_zero(), (spec.name, pq)
        cases += 1
    return cases


def commutator_cases(spec) -> int:
    n = spec.n
    cases = 0
    for pq in all_bidegrees(n):
        k = pq[0] + pq[1]
        dim = len(basis_of(pq, n))
        if dim == 0:
            continue
        lam = ops.operator_block(spec, "Lambda", pq)
        up = ops.operator_block(spec, "L", pq)
        up_after = (ops.operator_block(spec, "L", (pq[0] - 1, pq[1] - 1))
                    if pq[0] >= 1 and pq[1] >= 1 else Matrix.zeros(dim, 0))
        down_after = (ops.operator_block(spec, "Lambda",
                                         (pq[0] + 1, pq[1] + 1))
                      if pq[0] + 1 <= n and pq[1] + 1 <= n
                      else Matrix.zeros(dim, 0))
        commutator = up_after * lam - down_after * up
        assert commutator == Matrix.identity(dim).scale(
            GaussianRational(k - n)), (spec.name, pq)
        cases += dim
    return cases


def duality_cases(spec) -> int:
    n = spec.n
    cases = 0
    for pq in all_bidegrees(n):
        delbar_space = hodge.harmonic_space(spec, "delbar", pq)
        conj_image = hodge.Subspace.from_forms(
            n, (pq[1], pq[0]),
            [f.conj(spec.symbols) for f in delbar_space.forms()])
        assert conj_image == hodge.harmonic_space(spec, "del",
                                                  (pq[1], pq[0])), \
            (spec.name, pq)
        cases += 1
    star_image = hodge.Subspace.from_forms(
        n, (n - 1, n - 1),
        [ops.hodge_star(spec, f)
         for f in hodge.harmonic_space(spec, "del", (1, 1)).forms()])
    assert star_image == hodge.harmonic_space(spec, "delbar",
                                              (n - 1, n - 1)), spec.name
    cases += 1
    return cases
