"""Independent brute-force implementations used as oracles.

Nothing here shares code with the package: wedges are bubble-sorted letter
tuples, signs come from counting swaps, linear algebra is sympy's.  Complex
monomials are encoded as ascending tuples of letters 1..2n, where letters
1..n are the holomorphic generators and n+1..2n their conjugates.

Two oracles check a fast path against the slow route it replaced instead:
the real-frame Hodge star (built on the package's real-coframe expansion,
which the complexify round-trip tests check, and on none of its star code)
and the degree-k matrices of d and d* taken one monomial at a time.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import sympy
from sympy import I, Matrix, Rational

from akhodge import operators as ops
from akhodge.exterior import (BasisMonomial, Form, basis_of, complex_to_real,
                              real_to_complex)
from akhodge.scalars import GaussianRational


def sort_sign(seq):
    """(sign, sorted tuple) by bubble sort; (0, None) when a letter repeats."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    for k in range(len(seq) - 1):
        if seq[k] == seq[k + 1]:
            return 0, None
    return sign, tuple(seq)


def brute_wedge(a: dict, b: dict) -> dict:
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            sign, mono = sort_sign(m1 + m2)
            if sign:
                out[mono] = sympy.expand(out.get(mono, 0) + sign * c1 * c2)
    return {m: c for m, c in out.items() if c != 0}


def gr_to_sympy(c: GaussianRational):
    return Rational(c.re) + I * Rational(c.im)


def form_to_letters(form: Form, n: int) -> dict:
    out = {}
    for mono, coeff in form.terms():
        letters = tuple(mono.holo) + tuple(j + n for j in mono.anti)
        out[letters] = gr_to_sympy(coeff.constant_value())
    return out


def letters_to_basis_index(letters, n):
    holo = tuple(l for l in letters if l <= n)
    anti = tuple(l - n for l in letters if l > n)
    return BasisMonomial(holo, anti)


def structure_to_letter_d(spec) -> dict:
    """Letter-keyed d of every generator, conjugates derived independently."""
    n = spec.n
    D = {}
    for j in range(1, n + 1):
        D[j] = form_to_letters(spec.d_generator(j), n)
    for j in range(1, n + 1):
        out = {}
        for m, c in D[j].items():
            sign, mono = sort_sign(tuple((l + n) if l <= n else (l - n)
                                         for l in m))
            out[mono] = out.get(mono, 0) + sign * sympy.conjugate(c)
        D[j + n] = {m: c for m, c in out.items() if c != 0}
    return D


def brute_d(D: dict, form: dict) -> dict:
    out = {}
    for mono, coeff in form.items():
        for i, letter in enumerate(mono):
            piece = brute_wedge({mono[:i]: 1},
                                brute_wedge(D[letter], {mono[i + 1:]: 1}))
            for m, c in piece.items():
                out[m] = sympy.expand(out.get(m, 0) + ((-1) ** i) * coeff * c)
    return {m: c for m, c in out.items() if c != 0}


def brute_project(form: dict, p: int, q: int, n: int) -> dict:
    return {m: c for m, c in form.items()
            if sum(1 for l in m if l <= n) == p
            and sum(1 for l in m if l > n) == q}


def letter_basis(p: int, q: int, n: int) -> list:
    return [h + tuple(x + n for x in a)
            for h in itertools.combinations(range(1, n + 1), p)
            for a in itertools.combinations(range(1, n + 1), q)]


def brute_component_matrix(spec, op: str, p: int, q: int) -> Matrix:
    """sympy matrix of mu/del/delbar/mubar from (p,q), brute-force route."""
    n = spec.n
    shifts = {"mu": (2, -1), "del": (1, 0), "delbar": (0, 1),
              "mubar": (-1, 2)}
    s, t = shifts[op]
    D = structure_to_letter_d(spec)
    src = letter_basis(p, q, n)
    tp, tq = p + s, q + t
    tgt = letter_basis(tp, tq, n) if 0 <= tp <= n and 0 <= tq <= n else []
    index = {m: i for i, m in enumerate(tgt)}
    M = sympy.zeros(len(tgt), len(src))
    for col, mono in enumerate(src):
        image = brute_project(brute_d(D, {mono: 1}), tp, tq, n)
        for m, c in image.items():
            M[index[m], col] = c
    return M


def matrix_to_sympy(M) -> Matrix:
    return Matrix(M.rows, M.cols,
                  [gr_to_sympy(a) for row in M.data for a in row])


def same_row_space(A: Matrix, B: Matrix) -> bool:
    if A.cols != B.cols:
        return False
    stacked = A.col_join(B)
    return (A.rank() == B.rank() == stacked.rank())


def real_frame_star(spec, mono: BasisMonomial):
    """(factor, target) with *mono = factor * target, by the real frame:
    expand phi^j = e^{2j-1} + i e^{2j}, send each real monomial to its
    oriented complement, substitute back, and multiply by c^{n-k}."""
    n = spec.n
    pairing = tuple((2 * j - 1, 2 * j) for j in range(1, n + 1))
    starred = {}
    for rmono, coeff in complex_to_real(Form.monomial(mono), pairing).items():
        comp = tuple(idx for idx in range(1, 2 * n + 1) if idx not in rmono)
        sign, _ = sort_sign(rmono + comp)
        starred[comp] = coeff if sign == 1 else -coeff
    (target, value), = real_to_complex(starred, pairing).terms()
    scale = Fraction(spec.unitary_scale) ** (n - mono.degree)
    return value.constant_value() * scale, target


def full_degree_oracle(spec, op: str, k: int) -> Matrix:
    """sympy matrix of d (op "d") or d* (op "d_star") on the whole degree-k
    space, applying ext_d / apply_adjoint to one monomial at a time."""
    n = spec.n

    def degree_basis(deg):
        return [m for p in range(n + 1) for m in basis_of((p, deg - p), n)]

    src = degree_basis(k)
    tgt = degree_basis(k + 1 if op == "d" else k - 1)
    index = {m: i for i, m in enumerate(tgt)}
    M = sympy.zeros(len(tgt), len(src))
    for col, mono in enumerate(src):
        form = Form.monomial(mono)
        image = (ops.ext_d(spec, form) if op == "d"
                 else ops.apply_adjoint(spec, "d", form))
        for m, c in image.terms():
            M[index[m], col] = gr_to_sympy(c.constant_value())
    return M
