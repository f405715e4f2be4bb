"""Independent implementations used as oracles.

The brute-force ones share no code with the package: wedges are
bubble-sorted letter tuples, signs come from counting swaps, linear algebra
is sympy's.  Complex monomials are encoded as ascending tuples of letters
1..2n, where letters 1..n are the holomorphic generators and n+1..2n their
conjugates.

The others check a fast path against the slow route it replaced, and use
none of the package's block code:
- Q(i) arithmetic on the int triples of `GaussianRational`, by
  `PairRational` on two Fractions;
- the adjoints D* = -*(partner)*, Lambda, J, d^c and the Hermitian pairing
  of single forms, on the package's pointwise `ext_d`, `component`,
  `hodge_star` and `lefschetz_L`;
- the real-frame Hodge star, on a real-coframe expansion whose wedge signs
  come from `sort_sign` (the complexify round-trip tests check the
  expansion), and on none of the package's star code;
- d of a monomial by whole-`Form` wedges (the Leibniz rule on the package's
  `Form` algebra, none of its term lists);
- a component of d of a single form as `ext_d` of each pure component,
  projected on the target bidegree, instead of only the part of d that
  lands there;
- the degree-k matrices of d and d* taken one monomial at a time;
- harmonic membership of a constant form by the blocks (A, E) of
  `hodge.harmonic_equations` applied to its component rows, instead of
  pointwise, and of any form by the pointwise `component` and `hodge_star`
  with both equations taken eagerly, instead of stopping at the first that
  fails;
- the equation E = partner * star of `hodge.harmonic_equations` as a
  `Matrix` product of the partner block by the star block, instead of
  `operators._times_star`;
- the crossing between constant forms and matrix rows, by the checked
  constructors `Form(...)`, `SymScalar.const` and `from_dicts` instead of
  the unchecked `Form._of` and `SymScalar._of_const`;
- the target bidegrees of an operator by one branch per operator family
  instead of the shift table of `op_targets`, and Delta_D as A* A + B B*
  with explicit zero blocks at the edges instead of a sum over
  `op_targets`;
- the intersection of two subspaces by the nullspace of their transposed
  stack instead of the equations of one side;
- the DSL expression parser, by the one it replaced: one `re.match` per
  token into `_Token` records, indices read digit by digit into the
  checking `BasisMonomial(...)`, and one `Form.monomial` per term summed by
  `Form.sum`, with any Unicode decimal digit read as a digit.

`from_dicts` builds an engine `Matrix` from rows given as column -> value
dicts, and `dense` from dense rows, through it.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction

import sympy
from sympy import I, Matrix, Rational

from akhodge import hodge, linalg, operators as ops
from akhodge.exterior import (BasisMonomial, Form, basis_index, basis_of,
                              real_to_complex)
from akhodge.model import (MAX_NESTING, SpecSyntaxError,
                           UnknownSymbolError)
from akhodge.scalars import GaussianRational, SymScalar, from_ints, i_power


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


class PairRational:
    """The reference element re + im*i of Q(i), held as two Fractions (the
    package's former `GaussianRational`): every operation is the textbook
    formula on the parts, and Fraction keeps each part reduced."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        other = _pair(other)
        return PairRational(self.re + other.re, self.im + other.im)

    def __mul__(self, other):
        other = _pair(other)
        return PairRational(self.re * other.re - self.im * other.im,
                            self.re * other.im + self.im * other.re)

    def __neg__(self):
        return PairRational(-self.re, -self.im)

    def __truediv__(self, other):
        return self * _pair(other).inverse()

    def inverse(self):
        norm = self.re * self.re + self.im * self.im
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return PairRational(self.re / norm, -self.im / norm)

    def conj(self):
        return PairRational(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, PairRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def render(self) -> str:
        """`5/4`, `-i`, `1/2*i`, `(1/2-3/4*i)`, as the package writes."""
        def times_i(x):
            return {1: "i", -1: "-i"}.get(x, f"{x}*i")
        if not self.im:
            return str(self.re)
        if not self.re:
            return times_i(self.im)
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{times_i(abs(self.im))})"


def _pair(value) -> PairRational:
    return value if isinstance(value, PairRational) else PairRational(value)


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


def from_dicts(rows: list[dict], cols: int) -> linalg.Matrix:
    """The engine matrix of rows given as column -> GaussianRational; zero
    values are dropped, and a column outside 0..cols-1 raises ValueError."""
    for row in rows:
        if row and not 0 <= min(row) <= max(row) < cols:
            raise ValueError(f"a column index outside 0..{cols - 1}")
    return linalg.Matrix(len(rows), cols, [
        linalg._over_lcm([(j, x.d, x.a, x.b) for j, x in row.items() if x])
        for row in rows])


def dense(rows: list, cols: int | None = None) -> linalg.Matrix:
    """The engine matrix of dense GaussianRational rows, each of cols
    entries (by default the first row's length)."""
    if cols is None:
        cols = len(rows[0]) if rows else 0
    assert all(len(row) == cols for row in rows)
    return from_dicts(
        [{j: x for j, x in enumerate(row) if x} for row in rows], cols)


def checked_forms_to_rows(forms: list[Form], pq, n: int) -> linalg.Matrix:
    """`hodge.forms_to_rows` through a column -> value dict per form and
    `from_dicts`."""
    index = basis_index(pq, n)
    try:
        rows = [{index[mono]: coeff.constant_value()
                 for mono, coeff in form.items()} for form in forms]
    except KeyError as exc:
        raise hodge.AmbientMismatchError(
            f"monomial {exc.args[0]} is not of bidegree {pq}") from None
    return from_dicts(rows, len(index))


def checked_rows_to_forms(rows: linalg.Matrix, pq, n: int) -> list[Form]:
    """`hodge.rows_to_forms` through `Matrix.entries`, `SymScalar.const`
    and the public `Form(...)`."""
    monos = list(basis_index(pq, n))  # the cached basis_of(pq, n)
    return [Form({monos[j]: SymScalar.const(x)
                  for j, x in rows.entries(i).items()})
            for i in range(rows.rows)]


def same_row_space(A: Matrix, B: Matrix) -> bool:
    if A.cols != B.cols:
        return False
    stacked = A.col_join(B)
    return (A.rank() == B.rank() == stacked.rank())


def real_wedge(a: dict, b: dict) -> dict:
    """Wedge of real forms, ascending real index tuples -> SymScalar, with
    each sign from `sort_sign`."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            sign, mono = sort_sign(m1 + m2)
            if sign:
                out[mono] = out.get(mono, SymScalar.zero()) + c1 * c2 * sign
    return {m: c for m, c in out.items() if c}


def complex_to_real(form: Form, pairing) -> dict:
    """The real form of form: each phi^j expands to e^{a_j} + i e^{b_j} and
    each phibar^j to e^{a_j} - i e^{b_j}, (a_j, b_j) = pairing[j - 1]."""
    out = {}
    for mono, coeff in form.terms():
        acc = {(): coeff}
        factors = [(pairing[j - 1], 1) for j in mono.holo]
        factors += [(pairing[j - 1], -1) for j in mono.anti]
        for (a_idx, b_idx), im in factors:
            acc = real_wedge(acc, {(a_idx,): SymScalar.const(1),
                                   (b_idx,): SymScalar.const(
                                       GaussianRational(0, im))})
        for m, c in acc.items():
            out[m] = out.get(m, SymScalar.zero()) + c
    return {m: c for m, c in out.items() if c}


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
    scale = Fraction(spec.unitary_scale) ** (n - sum(mono.bidegree))
    return value.constant_value() * scale, target


def leibniz_d(spec, mono: BasisMonomial) -> Form:
    """d(mono) as the sum of (-1)^i prefix ^ d(a_i) ^ suffix over the
    factors a_i of mono, each a wedge of whole forms."""
    factors = [(True, j) for j in mono.holo] + [(False, j) for j in mono.anti]
    total = Form.zero()
    for i, (is_holo, j) in enumerate(factors):
        df = spec.d_generator(j)
        if not is_holo:
            df = df.conj(spec.symbols)
        pre = Form.monomial(BasisMonomial(
            tuple(g for h, g in factors[:i] if h),
            tuple(g for h, g in factors[:i] if not h)))
        suf = Form.monomial(BasisMonomial(
            tuple(g for h, g in factors[i + 1:] if h),
            tuple(g for h, g in factors[i + 1:] if not h)))
        term = pre.wedge(df).wedge(suf)
        total = total + (term if i % 2 == 0 else -term)
    return total


def component_by_projection(spec, op: str, form: Form) -> Form:
    """`ops.component` as the (p+s, q+t) part of `ext_d` of each (p,q)
    component, (s, t) the shift of op.  Its OpaqueDerivativeError names the
    first opaque term of the first component that has one."""
    s, t = ops.COMPONENT_SHIFTS[op]
    return Form.sum(ops.ext_d(spec, comp).project((pq[0] + s, pq[1] + t))
                    for pq, comp in form.components().items())


def real_frame_norms(spec) -> dict:
    """{m: <m, m>} over every basis monomial m, from
    m ^ *conj(m) = <m, m> vol, with the star and the volume form taken by
    `real_frame_star` and the conjugation and the wedge done on letters."""
    n = spec.n
    vol, vol_mono = real_frame_star(spec, BasisMonomial((), ()))
    assert vol_mono == BasisMonomial(tuple(range(1, n + 1)),
                                     tuple(range(1, n + 1)))
    norms = {}
    for p, q in itertools.product(range(n + 1), repeat=2):
        for letters in letter_basis(p, q, n):
            sign, conj = sort_sign(tuple(l + n if l <= n else l - n
                                         for l in letters))
            factor, starred = real_frame_star(
                spec, letters_to_basis_index(conj, n))
            wedge_sign, top = sort_sign(letters + tuple(starred.holo)
                                        + tuple(j + n for j in starred.anti))
            assert top == tuple(range(1, 2 * n + 1))
            norms[letters_to_basis_index(letters, n)] = \
                factor * (sign * wedge_sign) / vol
    return norms


# -- pointwise operators on single forms ---------------------------------------

def dc(spec, form: Form) -> Form:
    """d^c = i (delbar - del + mu - mubar)."""
    return (ops.component(spec, "delbar", form)
            - ops.component(spec, "del", form)
            + ops.component(spec, "mu", form)
            - ops.component(spec, "mubar", form)) * GaussianRational(0, 1)


def dual_Lambda(spec, form: Form) -> Form:
    """Metric adjoint of L: (-1)^k * L * on k-forms (unitary mode).  The
    classical -*L* formula holds verbatim on odd degrees only; the sign is
    forced by [L, Lambda] = (k - n) id."""
    out = Form.zero()
    for pq, comp in form.components().items():
        res = ops.hodge_star(spec, ops.lefschetz_L(
            spec, ops.hodge_star(spec, comp)))
        out = out + (res if sum(pq) % 2 == 0 else -res)
    return out


def j_action(form: Form) -> Form:
    """Multiplies the (p,q) part by i^{p-q}."""
    out = Form.zero()
    for pq, comp in form.components().items():
        out = out + comp * i_power(pq[0] - pq[1])
    return out


def apply_adjoint(spec, op: str, form: Form) -> Form:
    """D* = -*(Dbar)* for D in {d, mu, del, delbar, mubar}."""
    partner = ops.STAR_PARTNERS[op]
    inner = ops.hodge_star(spec, form)
    return -ops.hodge_star(spec, ops.ext_d(spec, inner) if partner == "d"
                           else ops.component(spec, partner, inner))


def one_form() -> Form:
    """The constant 0-form 1."""
    return Form.monomial(BasisMonomial((), ()))


def coeff_of(form: Form, mono: BasisMonomial) -> SymScalar:
    """The coefficient of mono in form, zero when mono is not a term."""
    return dict(form.terms()).get(mono, SymScalar.zero())


def full_subspace(n: int, pq) -> hodge.Subspace:
    """The whole of Lambda^{p,q} as a Subspace."""
    return hodge.Subspace(pq, n, linalg.Matrix.identity(len(basis_of(pq, n))))


def zero_subspace(n: int, pq) -> hodge.Subspace:
    """The zero subspace of Lambda^{p,q}."""
    return hodge.Subspace(pq, n, linalg.Matrix.zeros(0, len(basis_of(pq, n))))


def transposed_stack_intersect(U: hodge.Subspace,
                               V: hodge.Subspace) -> hodge.Subspace:
    """U cap V from one transposed stack (the package's former
    `Subspace.intersect`): x.U = y.V exactly when (x, -y) lies in the left
    kernel of [U; V], the nullspace of [U; V]^T; only x is read, so the
    sign of y does not matter."""
    U._check_ambient(V)
    a, b = U.basis.rows, V.basis.rows
    if a == 0 or b == 0:
        return zero_subspace(U.n, U.ambient)
    kernel = U.basis.stack_below(V.basis).transpose().nullspace()
    return hodge.Subspace(U.ambient, U.n,
                          kernel.columns(range(a)) * U.basis)


def volume_form(spec) -> Form:
    return ops.hodge_star(spec, one_form())


def inner_product(spec, a: Form, b: Form) -> SymScalar:
    """Hermitian pairing <a,b> with <a,b> vol = a wedge *(conj b)."""
    ops.require_unitary(spec)
    if a.is_zero() or b.is_zero():
        return SymScalar.zero()
    n = spec.n
    top = BasisMonomial(tuple(range(1, n + 1)), tuple(range(1, n + 1)))
    vol_coeff = coeff_of(volume_form(spec), top).constant_value()
    wedge = a.wedge(ops.hodge_star(spec, b.conj(spec.symbols)))
    return coeff_of(wedge, top) * vol_coeff.inverse()


def _valid(pq, n: int) -> bool:
    return 0 <= pq[0] <= n and 0 <= pq[1] <= n


def op_targets_chain(op: str, pq, n: int) -> list:
    """Target bidegrees of a (non-Laplacian) operator at (p,q), ascending."""
    p, q = pq
    if op in ops.COMPONENT_SHIFTS:
        s, t = ops.COMPONENT_SHIFTS[op]
        cands = [(p + s, q + t)]
    elif op.endswith("_star") and op != "d_star":
        s, t = ops.COMPONENT_SHIFTS[op[:-5]]
        cands = [(p - s, q - t)]
    elif op in ("d", "dc"):
        cands = [(p + s, q + t) for s, t in ops.COMPONENT_SHIFTS.values()]
    elif op == "d_star":
        cands = [(p - s, q - t) for s, t in ops.COMPONENT_SHIFTS.values()]
    elif op == "star":
        cands = [(n - q, n - p)]
    elif op == "L":
        cands = [(p + 1, q + 1)]
    elif op == "Lambda":
        cands = [(p - 1, q - 1)]
    elif op == "J":
        cands = [(p, q)]
    else:
        raise ValueError(f"unknown operator id {op!r}")
    return sorted(pq for pq in cands if _valid(pq, n))


def laplacian_two_products(spec, D: str, pq) -> linalg.Matrix:
    """Delta_D = A* A + B B* on Lambda^{p,q} for a component D, A and B
    the blocks of D from (p,q) and into it; an edge's missing block is a
    zero matrix with no columns or no rows."""
    s, t = ops.COMPONENT_SHIFTS[D]
    p, q = pq
    up = (p + s, q + t)
    down = (p - s, q - t)
    n = spec.n
    dim = len(basis_of(pq, n))
    A = ops.operator_block(spec, D, pq)
    A_star = (ops.operator_block(spec, D + "_star", up) if _valid(up, n)
              else linalg.Matrix.zeros(dim, 0))
    B_star = ops.operator_block(spec, D + "_star", pq)
    B = (ops.operator_block(spec, D, down) if _valid(down, n)
         else linalg.Matrix.zeros(dim, 0))
    return A_star * A + B * B_star


def harmonic_equations_by_product(spec, D: str, pq):
    """(A, E) of `hodge.harmonic_equations` by the product route: E is the
    partner block at (n-q, n-p) times the star block at (p,q)."""
    n = spec.n
    p, q = pq
    return (ops.operator_block(spec, D, pq),
            ops.operator_block(spec, ops.STAR_PARTNERS[D], (n - q, n - p))
            * ops.operator_block(spec, "star", pq))


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
                 else apply_adjoint(spec, "d", form))
        for m, c in image.terms():
            M[index[m], col] = gr_to_sympy(c.constant_value())
    return M


def block_membership(spec, D: str, form: Form) -> hodge.MembershipResult:
    """harmonic_membership of a constant form on a constant-coefficient spec
    by the blocks (A, E) of `hodge.harmonic_equations`, applied to the row
    of each pure component (`hodge.component_rows`): D alpha is the sum of
    the A images, and the E images, read only when D alpha = 0, give
    partner(*alpha).  Either image is summed from the target bidegrees of
    its block; the first nonzero one is the witness."""
    partner = ops.STAR_PARTNERS[D]
    n = spec.n
    s, t = ops.COMPONENT_SHIFTS[D]
    blocks = [(p, q, row, *hodge.harmonic_equations(spec, D, (p, q)))
              for (p, q), row in hodge.component_rows(form, n)]
    witness = Form.sum([hodge.apply_blocks(row, (p + s, q + t), n, A)
                        for p, q, row, A, _ in blocks])
    label = f"{D}(form) != 0"
    if witness.is_zero():
        # the partner's shift is D's, swapped
        witness = Form.sum([hodge.apply_blocks(
            row, (n - q + t, n - p + s), n, E) for p, q, row, _, E in blocks])
        label = f"{partner}(*form) != 0"
    if witness.is_zero():
        return hodge.MembershipResult("Harmonic")
    ops.require_unitary(spec)
    return hodge.MembershipResult(
        "NotHarmonic", witness, hodge._form_nonzeroness(spec, witness), label)


def pointwise_membership(spec, D: str, form: Form) -> hodge.MembershipResult:
    """harmonic_membership by the eager pointwise route: D alpha (Unknown
    when it needs an opaque derivative), then the unitary metric for a
    nonzero form (NotUnitaryModeError), then partner(*alpha); the first
    nonzero one is the witness."""
    partner = ops.STAR_PARTNERS[D]
    try:
        closed = ops.component(spec, D, form)
    except ops.OpaqueDerivativeError as exc:
        return hodge.MembershipResult(
            "Unknown", reason=f"needs d({exc.symbol}), declared opaque")
    if not form.is_zero():
        ops.require_unitary(spec)
    costar = ops.component(spec, partner, ops.hodge_star(spec, form))
    for witness, label in ((closed, f"{D}(form) != 0"),
                           (costar, f"{partner}(*form) != 0")):
        if not witness.is_zero():
            return hodge.MembershipResult(
                "NotHarmonic", witness,
                hodge._form_nonzeroness(spec, witness), label)
    return hodge.MembershipResult("Harmonic")


# -- the reference expression parser -------------------------------------------

_REFERENCE_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<mono>phi\{(?P<holo>\d*),(?P<anti>\d*)\})"
    r"|(?P<number>\d+(?:/\d+)?)"
    r"|(?P<pow>\^-?\d+)"
    r"|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op>[+\-*()])")


@dataclass
class _Token:
    kind: str
    text: str
    col: int
    holo: str = ""
    anti: str = ""


def _reference_tokenize(text: str, line, col_offset: int) -> list[_Token]:
    """One `re.match` per token, whitespace included."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            raise SpecSyntaxError(f"unexpected character {text[pos]!r}",
                                  line, col_offset + pos + 1)
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        tok = _Token(kind, m.group(), col_offset + m.start() + 1)
        if kind == "mono":
            tok.holo = m.group("holo")
            tok.anti = m.group("anti")
        tokens.append(tok)
    return tokens


def _reference_indices(digits: str, n: int, line, col: int) -> tuple:
    indices = tuple(int(ch) for ch in digits)
    for idx in indices:
        if not 1 <= idx <= n:
            raise SpecSyntaxError(f"coframe index {idx} out of range 1..{n}",
                                  line, col)
    if any(indices[i] >= indices[i + 1] for i in range(len(indices) - 1)):
        raise SpecSyntaxError(f"indices {digits!r} must be strictly ascending",
                              line, col)
    return indices


def _reference_number(convert, text: str, line, col: int):
    try:
        return convert(text)
    except ValueError:
        raise SpecSyntaxError(
            f"number literal of {len(text)} characters is too long",
            line, col) from None


def _reference_ratio(text: str) -> tuple[int, int]:
    num, _, den = text.partition("/")
    return int(num), int(den or 1)


def _reference_terms(tokens: list[_Token], pos: int, n: int, symbols: dict,
                     line, groups: tuple = ()) -> tuple[list, int]:
    """The signed (coefficient, monomial) terms from tokens[pos] on and the
    position where they stop: the end, or the ')' closing groups[-1]."""
    terms = []
    while True:
        re_, im, den = 1, 0, 1
        while pos < len(tokens) and tokens[pos].text in ("+", "-"):
            if tokens[pos].text == "-":
                re_ = -re_
            pos += 1
        exponents: dict[str, int] = {}
        sums: list[SymScalar] = []
        monomial = None
        expect_factor = True
        while pos < len(tokens):
            tok = tokens[pos]
            if tok.text in ("+", "-"):
                break
            if tok.text == ")":
                if not groups:
                    raise SpecSyntaxError("unmatched ')'", line, tok.col)
                break
            if tok.text == "*":
                if expect_factor:
                    raise SpecSyntaxError("misplaced '*'", line, tok.col)
                expect_factor = True
                pos += 1
                continue
            if not expect_factor:
                raise SpecSyntaxError(f"missing '*' before {tok.text!r}",
                                      line, tok.col)
            if tok.kind == "number":
                num, div = _reference_number(_reference_ratio, tok.text,
                                             line, tok.col)
                if not div:
                    raise SpecSyntaxError(f"zero denominator in {tok.text!r}",
                                          line, tok.col)
                re_, im, den = re_ * num, im * num, den * div
            elif tok.kind == "name" and tok.text == "i":
                re_, im = -im, re_
            elif tok.kind == "name":
                if tok.text not in symbols:
                    raise UnknownSymbolError(f"unknown symbol {tok.text!r}",
                                             line, tok.col)
                exponent = 1
                if pos + 1 < len(tokens) and tokens[pos + 1].kind == "pow":
                    exponent = _reference_number(int, tokens[pos + 1].text[1:],
                                                 line, tokens[pos + 1].col)
                    pos += 1
                exponents[tok.text] = exponents.get(tok.text, 0) + exponent
            elif tok.text == "(":
                if pos + 1 < len(tokens) and tokens[pos + 1].text == ")":
                    raise SpecSyntaxError("empty parentheses", line, tok.col)
                if len(groups) == MAX_NESTING:
                    raise SpecSyntaxError(
                        f"parentheses nested deeper than {MAX_NESTING}",
                        line, tok.col)
                inner, pos = _reference_terms(tokens, pos + 1, n, symbols,
                                              line, groups + (tok,))
                sums.append(sum((c for c, _ in inner), SymScalar.zero()))
            elif tok.kind == "mono":
                if monomial is not None:
                    raise SpecSyntaxError("two monomials in one term",
                                          line, tok.col)
                monomial = BasisMonomial(
                    _reference_indices(tok.holo, n, line, tok.col),
                    _reference_indices(tok.anti, n, line, tok.col))
            else:
                raise SpecSyntaxError(f"unexpected token {tok.text!r}",
                                      line, tok.col)
            expect_factor = False
            pos += 1
        if groups and pos == len(tokens):
            raise SpecSyntaxError("unclosed '('", line, groups[-1].col)
        if expect_factor:
            raise SpecSyntaxError("dangling operator", line)
        if groups and monomial is not None:
            raise SpecSyntaxError("a basis monomial inside parentheses",
                                  line, groups[-1].col)
        if not groups and monomial is None:
            raise SpecSyntaxError("term lacks a basis monomial phi{..,..}",
                                  line)
        coeff = SymScalar({tuple(sorted((name, k) for name, k
                                        in exponents.items() if k)):
                           from_ints(re_, im, den)})
        for factor in sums:
            coeff = coeff * factor
        terms.append((coeff, monomial))
        if pos == len(tokens) or tokens[pos].text == ")":
            return terms, pos


def reference_parse_form(text: str, n: int, symbols: dict | None = None,
                         line="form", col_offset: int = 0) -> Form:
    """`model.parse_form` by the tokenizer that matches one token at a time
    into `_Token` records, indices read digit by digit through the checking
    `BasisMonomial(...)`, and one `Form.monomial` per term summed by
    `Form.sum`.  Its digits are any Unicode decimal digits."""
    tokens = _reference_tokenize(text, line, col_offset)
    if not tokens:
        raise SpecSyntaxError("empty expression", line)
    if len(tokens) == 1 and tokens[0].text == "0":
        return Form.zero()
    terms, _ = _reference_terms(tokens, 0, n, symbols or {}, line)
    return Form.sum([Form.monomial(monomial, coeff)
                     for coeff, monomial in terms])
