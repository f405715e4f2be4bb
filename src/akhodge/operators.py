"""The bigraded operator zoo: d and its four components, d^c, the C-linear
Hodge star, L and its dual, the J-action, formal adjoints, Laplacians and the
Hermitian pairing, as exact matrices between bidegree bases.

A monomial is its pair of index bitmasks (`exterior.BasisMonomial`), and
sign conventions all derive from the monomial order fixed in `exterior`,
whose one wedge rule `_wedge_hits` signs d and L here as it signs
`Form.wedge`.

Closed forms on one basis monomial m = a_0 ^ ... ^ a_{k-1}, taken on its
masks, so that every sign is a popcount parity:

- d(m) = sum_i (-1)^i d(a_i) ^ (m without a_i), and L(m) = omega ^ m: 2-form
  terms of d(phi^j), d(phibar^j) and omega, memoized per spec, wedged onto
  a monomial.  The blocks take the terms as ints over one spec-wide
  denominator; the pointwise d takes their Q(i) or symbolic coefficients
  through the same enumeration, `_d_hits`, which skips the closed a_i but
  counts their positions i, and memoizes d(m) split by target bidegree
  (`_d_monomial`): `ext_d` sums the parts, and `component` multiplies only
  the one in its target bidegree by the coefficient.
- The unitary metric is a product over the n complex lines, so the star
  follows the complement rule *(phi^I phibar^J) = +- i^a 2^b c^{n-k}
  phi^{~J} phibar^{~I} (~ the complement in 1..n): each line contributes
  its scale-1 star (1 -> (i/2) phi phibar, phi -> -i phi, phibar -> i
  phibar, phi phibar -> -2i; on the real frame phi^j = e^a + i e^b,
  *1 = e^{ab}, *e^a = e^b, *e^b = -e^a, *e^{ab} = 1), and the sign is a
  parity, from the reorderings between canonical and line order on both
  sides and from *(x ^ y) = (-1)^{deg y (2 - deg x)} *x ^ *y.  The factor
  is an int fraction (`_star_parts`): c^{n-k} is one int pair per degree
  (`_star_scale`), taken once per block, and i^a a table entry; no square
  root of c materializes.
- The pairing is diagonal on the monomial basis, and it is a scalar on each
  degree: with omega = (i c/2) sum phi^{j jbar}, |phi^j|^2 = 2/c, and the
  pairing is the product one, so <m, m> = (2/c)^k on every k-form monomial
  (`norm`).

Matrices: the blocks of d and L are written straight from these closed
forms into integer rows, a hit finding its row by its target masks in
`exterior.basis_index`, the map that `hodge` reads too; the
same block writer writes the full-degree d, from every bidegree of degree
k into every bidegree of degree k + 1.  `_times_star`, the one star
writer, takes a block B to B [star] by moving each column *m of B to the
column of m, scaled by its `_star_parts` factor; the star block is that of
the identity.  The four components of d are row slices of the cached "d"
block, d^c = i (delbar - del + mu - mubar) is that block with each
target's rows scaled by +-i, and J is i^{p-q} times the identity.  Since
the Gram matrix is a scalar per degree, each metric adjoint is a scaled
conjugate transpose of a cached forward block: [A*] = (2/c)^{deg tgt -
deg src} [A]^H for A from src to tgt, for A in {mu, del, delbar, mubar}
and for Lambda, the adjoint of L, built in one pass by
`Matrix.conj_transpose(factor)`; d* is the four component adjoints
stacked.  So every Laplacian is one `linalg.gram_sum`, (2/c)(F^H F +
G G^H) of the D blocks F out of and G into its space, with no adjoint
block and no product.  The adjoint blocks of d and its components, and the
Laplacians, raise OperatorError on a spec that is not unimodular
(`is_unimodular`), where they are not -*d*.
The pointwise `ext_d`, `component`, `hodge_star` and `lefschetz_L` serve
single forms (symbolic specs, `model.validate`, every harmonic membership
query, the reconstruction of a decomposition); theorem checks use the
blocks.  Of d of a symbolic coefficient f, `component`
wedges on only the part it keeps: del f for del, delbar f for delbar, none
for mu and mubar, though each still refuses an opaque derivative.  The
pointwise adjoints, Lambda, J, d^c and pairing that the blocks are tested
against live with the tests' oracles.

Every per-spec cache of the engine, down to the theorem-check reports of
`hodge.verify`, is one `spec_memo` layer on the spec.  Cached values are
shared by every later caller and must not be mutated.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable

from .exterior import (BasisMonomial, Bidegree, Form, _below, _bits,
                       _wedge_hits, _wedge_terms, basis_index, bidegree_dim,
                       bidegrees_of_degree)
from .linalg import Matrix, _ZERO_ROW, _lowest_terms, gram_sum
from .scalars import I, SymScalar, collect, from_ints, i_power


class OperatorError(Exception):
    pass


class OpaqueDerivativeError(OperatorError):
    """A symbol derivative needed by d was declared opaque."""

    def __init__(self, symbol: str):
        self.symbol = symbol
        super().__init__(f"derivative of symbol {symbol!r} is opaque")


class NotUnitaryModeError(OperatorError):
    pass


class NotConstantCoefficientError(OperatorError):
    pass


def spec_memo(fn: Callable) -> Callable:
    """Memoize fn(spec, *args) in spec._cache under the key (fn, *args); a
    call that raises stores nothing."""
    head = (fn,)

    def memo(spec, *args):
        key = head + args
        value = spec._cache.get(key)
        if value is None:
            value = spec._cache[key] = fn(spec, *args)
        return value
    return functools.wraps(fn)(memo)


COMPONENT_SHIFTS: dict[str, Bidegree] = {
    "mu": (2, -1), "del": (1, 0), "delbar": (0, 1), "mubar": (-1, 2)}

# D* = -*(partner)*  per the adjoint table
STAR_PARTNERS = {"d": "d", "mu": "mubar", "del": "delbar",
                 "delbar": "del", "mubar": "mu"}

OPERATOR_IDS = ("d", "mu", "del", "delbar", "mubar", "dc", "star", "L",
                "Lambda", "J", "d_star", "mu_star", "del_star",
                "delbar_star", "mubar_star", "Delta_d", "Delta_mu",
                "Delta_del", "Delta_delbar", "Delta_mubar")


# ---------------------------------------------------------------------------
# The exterior derivative and its components

@spec_memo
def _two_form_terms(spec, exact: bool) -> tuple[int, dict]:
    """(den, terms): terms[j, True], terms[j, False] and terms[0] hold the
    `_wedge_terms` of d(phi^j), d(phibar^j) and omega.  Their values are the
    coefficients, or with exact (constant coefficients only) the ints
    (re, im) of den times them, den the lcm of every denominator of these
    forms."""
    forms = {0: spec.omega}
    for j in range(1, spec.n + 1):
        forms[j, True] = spec.d_generator(j)
        forms[j, False] = forms[j, True].conj(spec.symbols)
    coeffs = {key: [(m, c.constant_value() if exact else c)
                    for m, c in form.terms()] for key, form in forms.items()}
    den = lcm(*(c.d for terms in coeffs.values() for _, c in terms)
              ) if exact else 1
    return den, {key: _wedge_terms(
        (m, (c.a * (den // c.d), c.b * (den // c.d)) if exact else c)
        for m, c in terms) for key, terms in coeffs.items()}


def _d_hits(terms: dict, holo: int, anti: int) -> list:
    """The hits of d(a_0 ^ ... ^ a_{k-1}) = sum_i (-1)^i d(a_i) ^ (m without
    a_i): each d(a_i) is a 2-form, so moving it to the front costs no sign.
    A closed factor adds no hit, but its position i still counts."""
    out: list = []
    i = 0
    for j in _bits(holo):
        if dj := terms[j, True]:
            _wedge_hits(dj, holo ^ 1 << j, anti, i, out)
        i += 1
    for j in _bits(anti):
        if dj := terms[j, False]:
            _wedge_hits(dj, holo, anti ^ 1 << j, i, out)
        i += 1
    return out


@spec_memo
def _d_monomial(spec, mono: BasisMonomial) -> dict[Bidegree, Form]:
    """d(mono) split by target bidegree: {(p', q'): the (p', q') part}, its
    nonzero parts only."""
    parts: dict[Bidegree, list] = {}
    for holo, anti, c, odd in _d_hits(_two_form_terms(spec, False)[1], *mono):
        parts.setdefault((holo.bit_count(), anti.bit_count()), []).append(
            (BasisMonomial.of_masks(holo, anti), -c if odd else c))
    return {pq: form for pq, hits in parts.items()
            if (form := Form(collect(hits)))}


def _d_scalar(spec, scalar: SymScalar, part: Bidegree | None = None) -> Form:
    """d of a coefficient by the power rule: each factor name^k of a
    monomial gives k name^(k-1) (times the rest) times d(name).  With part,
    only the part of that bidegree: del of the coefficient for (1, 0),
    delbar for (0, 1), nothing for any other; every symbol it meets still
    needs a declared derivative."""
    terms = []
    for mono, coeff in scalar.terms():
        for idx, (name, k) in enumerate(mono):
            derivative = spec.symbols[name].derivative
            if derivative is None:
                raise OpaqueDerivativeError(name)
            if part is not None:
                derivative = derivative.project(part)
            rest = list(mono)
            if k == 1:
                del rest[idx]
            else:
                rest[idx] = (name, k - 1)
            terms.append(derivative * SymScalar({tuple(rest): coeff * k}))
    return Form.sum(terms)


def ext_d(spec, form: Form) -> Form:
    """Exterior derivative: structure equations on generators, declared
    derivatives on coefficients, extended by the Leibniz rule."""
    terms = []
    # in (I, J) term order over the whole form, not items() and not
    # component by component: the first OpaqueDerivativeError names the
    # symbol of the first term that needs one, and Unknown reasons show it
    for mono, coeff in form.terms():
        terms += [part * coeff for part in _d_monomial(spec, mono).values()]
        if not coeff.is_constant():
            terms.append(_d_scalar(spec, coeff).wedge(Form.monomial(mono)))
    return Form.sum(terms)


def component(spec, op: str, form: Form) -> Form:
    """One of the four bidegree components mu, del, delbar, mubar of d: of
    each term c m of bidegree (p,q), the (p+s, q+t) part of d(m) times c,
    plus for del (delbar) del c (delbar c) wedge m, (s, t) being op's
    shift, which is also the bidegree of the part of d(c) it keeps."""
    shift = s, t = COMPONENT_SHIFTS[op]
    terms = []
    # in (I, J) term order over the whole form, as in ext_d
    for mono, coeff in form.terms():
        holo, anti = mono
        part = _d_monomial(spec, mono).get(
            (holo.bit_count() + s, anti.bit_count() + t))
        if part:
            terms.append(part * coeff)
        if not coeff.is_constant():
            terms.append(_d_scalar(spec, coeff, shift).wedge(
                Form.monomial(mono)))
    return Form.sum(terms)


# ---------------------------------------------------------------------------
# Star and L

def require_unitary(spec) -> Fraction:
    if spec.unitary_scale is None:
        raise NotUnitaryModeError(
            f"spec {spec.name!r} is not in unitary mode "
            "(omega != (i c/2) sum phi^{j jbar})")
    return spec.unitary_scale


def require_constant_coefficient(spec) -> None:
    if not spec.constant_coefficient:
        raise NotConstantCoefficientError(
            f"spec {spec.name!r} has symbolic coefficients; operator matrices "
            "need constant coefficients")


# i^e as the ints (re, im), e mod 4
_UNIT_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _star_scale(spec, k: int) -> tuple[int, int]:
    """c^{n-k} as the ints (num, den), for the star of a k-form; for k > n
    it is (1/c)^{k-n}."""
    c, n = require_unitary(spec), spec.n
    num, den = c.numerator ** abs(n - k), c.denominator ** abs(n - k)
    return (num, den) if k <= n else (den, num)


def _star_parts(n: int, scale: tuple[int, int], holo: int, anti: int
                ) -> tuple:
    """(re, im, den, target) with *m = ((re + im i)/den) target for
    m = (holo, anti) of degree k, scale = `_star_scale(spec, k)`, by the
    complement rule: a = n + 2|I|, b = |I cap J| - |~I cap ~J|, and the
    parity counts the pairs of lines l < j with phibar^l before phi^j on
    either side, plus deg a_l deg a_j (the product rule)."""
    full = (1 << n + 1) - 2
    no_holo, no_anti = full & ~holo, full & ~anti
    k = holo.bit_count() + anti.bit_count()
    both = (holo & anti).bit_count()
    parity = ((anti & _below(holo)).bit_count()
              + (no_holo & _below(no_anti)).bit_count()
              + k * (k - 1) // 2 - both)
    ur, ui = _UNIT_POWERS[(n + 2 * holo.bit_count() + 2 * parity) % 4]
    b = both - (no_holo & no_anti).bit_count()
    num, den = scale
    if b > 0:
        num <<= b
    elif b < 0:
        den <<= -b
    return ur * num, ui * num, den, BasisMonomial.of_masks(no_anti, no_holo)


@spec_memo
def _star_monomial(spec, mono: BasisMonomial) -> tuple:
    """(factor, target) with *mono = factor * target."""
    re, im, den, target = _star_parts(
        spec.n, _star_scale(spec, mono[0].bit_count() + mono[1].bit_count()),
        *mono)
    return from_ints(re, im, den), target


def hodge_star(spec, form: Form) -> Form:
    """C-linear Hodge star of the unitary metric; (p,q) -> (n-q,n-p)."""
    # distinct monomials have distinct targets
    return Form({target: coeff * factor for mono, coeff in form.items()
                 for factor, target in [_star_monomial(spec, mono)]})


def lefschetz_L(spec, form: Form) -> Form:
    """L a = omega wedge a (any coefficient mode)."""
    return spec.omega.wedge(form)


def norm(spec, k: int) -> Fraction:
    """<m, m> of every monomial m of degree k: (2/c)^k, since
    |phi^j|^2 = 2/c for omega = (i c/2) sum phi^{j jbar}."""
    return (2 / Fraction(require_unitary(spec))) ** k


def is_unimodular(spec) -> bool:
    """Whether d is zero on every invariant (2n-1)-form.  A Lie group with a
    compact quotient is unimodular (J. Milnor, Adv. Math. 21 (1976), Sec.
    6), and only then does Stokes' theorem make the metric adjoint of d on
    invariant forms equal to -*d*."""
    return full_degree_matrix(spec, 2 * spec.n - 1).is_zero()


def require_unimodular(spec) -> None:
    if not is_unimodular(spec):
        raise OperatorError(
            f"spec {spec.name!r} is not unimodular (d of an invariant "
            f"{2 * spec.n - 1}-form is nonzero): the metric adjoints of d and "
            "its components differ from -*d* there, and the theorems assume a "
            "compact quotient")


def is_integrable(spec) -> bool:
    """mu = mubar = 0 at the structure level: no (0,2) part in any d(phi^j)."""
    return all(spec.d_generator(j).project((0, 2)).is_zero()
               for j in range(1, spec.n + 1))


# ---------------------------------------------------------------------------
# Matrices

# The bidegree shift of each operator with one target
_SHIFT: dict[str, Bidegree] = {**COMPONENT_SHIFTS, "L": (1, 1), "J": (0, 0)}

# The metric adjoints and the forward operator each is the adjoint of; an
# adjoint goes back along its forward operator's shift
_ADJOINT_OF = {**{D + "_star": D for D in COMPONENT_SHIFTS}, "Lambda": "L"}


def _valid(pq: Bidegree, n: int) -> bool:
    return 0 <= pq[0] <= n and 0 <= pq[1] <= n


def require_bidegree(spec, pq: Bidegree) -> None:
    if not _valid(pq, spec.n):
        raise ValueError(f"bidegree {tuple(pq)} is outside 0..{spec.n}")


# Largest bidegree space whose matrices the CLI builds: Lambda^{3,3} at
# n = 6, where the cold delbar Hodge table of the H(1,2)-type nilmanifold
# takes about 0.08-0.14 s; n = 7 has 1225, and its table 0.37-0.58 s (12
# fresh processes per n on a noisy 2-vCPU Linux VM, CPython 3.11.7).
MAX_BIDEGREE_DIM = 400


def require_work_bound(spec) -> None:
    """Raise OperatorError when the largest bidegree space of spec,
    Lambda^{k,k} with k = n // 2, is larger than MAX_BIDEGREE_DIM."""
    k = spec.n // 2
    largest = bidegree_dim((k, k), spec.n)
    if largest > MAX_BIDEGREE_DIM:
        raise OperatorError(
            f"dim {2 * spec.n}: bidegree ({k}, {k}) has dimension {largest}, "
            f"above the limit MAX_BIDEGREE_DIM = {MAX_BIDEGREE_DIM} of the "
            "matrix commands (dim 12 at most)")


def op_targets(op: str, pq: Bidegree, n: int) -> list[Bidegree]:
    """Target bidegrees of a (non-Laplacian) operator at (p,q), ascending."""
    p, q = pq
    if op in _SHIFT:
        s, t = _SHIFT[op]
        cands = [(p + s, q + t)]
    elif op in _ADJOINT_OF:
        s, t = _SHIFT[_ADJOINT_OF[op]]
        cands = [(p - s, q - t)]
    elif op in ("d", "dc"):
        cands = [(p + s, q + t) for s, t in COMPONENT_SHIFTS.values()]
    elif op == "d_star":
        cands = [(p - s, q - t) for s, t in COMPONENT_SHIFTS.values()]
    elif op == "star":
        cands = [(n - q, n - p)]
    else:
        raise ValueError(f"unknown operator id {op!r}")
    return sorted(pq for pq in cands if _valid(pq, n))


def target_rows(op: str, pq: Bidegree, n: int):
    """(target, start, stop) for each target bidegree of op's block at pq:
    its rows are start..stop-1."""
    start = 0
    for target in op_targets(op, pq, n):
        stop = start + bidegree_dim(target, n)
        yield target, start, stop
        start = stop


def _wedge_block(spec, op: str, sources: list[Bidegree],
                 targets: list[Bidegree]) -> Matrix:
    """The "d" or "L" matrix from the concatenated bases of sources into
    those of targets, from `_d_hits` or omega's `_wedge_hits`, as integer
    rows over the spec-wide denominator."""
    n = spec.n
    den, terms = _two_form_terms(spec, True)
    row_of = {m: i for i, m in enumerate(
        m for t in targets for m in basis_index(t, n))}
    rows: list[dict] = [{} for _ in row_of]
    columns = [m for pq in sources for m in basis_index(pq, n)]
    for col, (holo, anti) in enumerate(columns):
        hits = (_d_hits(terms, holo, anti) if op == "d"
                else _wedge_hits(terms[0], holo, anti, 0, []))
        for t_holo, t_anti, (re, im), odd in hits:
            row = rows[row_of[t_holo, t_anti]]
            if odd:
                re, im = -re, -im
            cur = row.get(col)
            row[col] = (re, im) if cur is None else (cur[0] + re, cur[1] + im)
    return Matrix(len(rows), len(columns), [
        _lowest_terms(den, {j: v for j, v in row.items() if v != (0, 0)})
        if row else _ZERO_ROW for row in rows])


def _times_star(spec, block: Matrix, pq: Bidegree) -> Matrix:
    """block * [star] for star on Lambda^{p,q}, with no star block: star
    sends each basis monomial m to one monomial *m times its `_star_parts`
    factor, so column m of the product is column *m of block times that
    factor."""
    n = spec.n
    scale = _star_scale(spec, pq[0] + pq[1])
    parts = [_star_parts(n, scale, *mono) for mono in basis_index(pq, n)]
    common = lcm(*[den for _, _, den, _ in parts])
    col_of = basis_index((n - pq[1], n - pq[0]), n)
    moved: list = [None] * len(parts)
    for m, (re, im, den, target) in enumerate(parts):
        k = common // den
        moved[col_of[target]] = (m, re * k, im * k)
    out = []
    for den, row in block.sparse:
        entries = {}
        for t, (a, b) in row.items():
            m, re, im = moved[t]
            entries[m] = (a * re - b * im, a * im + b * re)
        out.append(_lowest_terms(den * common, entries))
    return Matrix(block.rows, len(parts), out)


def _component_block(spec, op: str, pq: Bidegree) -> Matrix:
    """The rows of the "d" block of pq that lie in op's target bidegree."""
    s, t = COMPONENT_SHIFTS[op]
    want = (pq[0] + s, pq[1] + t)
    d_block = operator_block(spec, "d", pq)
    for target, start, stop in target_rows("d", pq, spec.n):
        if target == want:
            return d_block.row_slice(start, stop)
    return Matrix.zeros(0, d_block.cols)


def _dc_block(spec, pq: Bidegree) -> Matrix:
    """d^c = i (delbar - del + mu - mubar): the "d" block with the rows of
    the targets (p + s, q + 1 - s) scaled by i for even s, -i for odd."""
    d_block = operator_block(spec, "d", pq)
    out = Matrix.zeros(0, d_block.cols)
    for target, start, stop in target_rows("d", pq, spec.n):
        unit = I if (target[0] - pq[0]) % 2 == 0 else -I
        out = out.stack_below(d_block.row_slice(start, stop).scale(unit))
    return out


def _adjoint_block(spec, op: str, pq: Bidegree) -> Matrix:
    """The metric adjoint A* of A = _ADJOINT_OF[op] on Lambda^{p,q}.  The
    pairing is (2/c)^k times the identity on k-forms, so with A running
    from src into (p,q), [A*] = (2/c)^{deg pq - deg src} [A]^H.  The
    adjoint of a component of d needs a unimodular spec."""
    require_unitary(spec)
    if op != "Lambda":
        require_unimodular(spec)
    n = spec.n
    sources = op_targets(op, pq, n)
    if not sources:
        return Matrix.zeros(0, bidegree_dim(pq, n))
    (src,) = sources
    forward = operator_block(spec, _ADJOINT_OF[op], src)
    return forward.conj_transpose(norm(spec, pq[0] + pq[1] - src[0] - src[1]))


@spec_memo
def operator_block(spec, op: str, pq: Bidegree) -> Matrix:
    """Matrix of a non-Laplacian operator from Lambda^{p,q} into the
    concatenation of its valid target bidegrees (cached).  A component of d
    is a row slice of the "d" block, an adjoint or Lambda the scaled
    conjugate transpose of its forward block (`_adjoint_block`), d* the
    four component adjoints stacked, and star `_times_star` of the
    identity."""
    require_bidegree(spec, pq)
    require_constant_coefficient(spec)
    if op in COMPONENT_SHIFTS:
        return _component_block(spec, op, pq)
    if op in _ADJOINT_OF:
        return _adjoint_block(spec, op, pq)
    if op == "d_star":
        # the targets pq - shift ascend in COMPONENT_SHIFTS order
        return functools.reduce(Matrix.stack_below, [
            operator_block(spec, D + "_star", pq) for D in COMPONENT_SHIFTS])
    if op == "dc":
        return _dc_block(spec, pq)
    if op == "J":
        return Matrix.identity(bidegree_dim(pq, spec.n)).scale(
            i_power(pq[0] - pq[1]))
    if op == "star":
        return _times_star(spec, Matrix.identity(bidegree_dim(pq, spec.n)),
                           pq)
    return _wedge_block(spec, op, [pq], op_targets(op, pq, spec.n))


@spec_memo
def lefschetz_power_block(spec, pq: Bidegree, r: int) -> Matrix:
    """Matrix of L^r from Lambda^{p,q} into Lambda^{p+r,q+r}: the product of
    the "L" blocks, starting from the one at (p,q), and the identity when
    r = 0; it has no rows when p + r or q + r exceeds n (cached)."""
    p, q = pq
    if p + r > spec.n or q + r > spec.n:
        return Matrix.zeros(0, bidegree_dim(pq, spec.n))
    if r == 0:
        return Matrix.identity(bidegree_dim(pq, spec.n))
    power = operator_block(spec, "L", pq)
    for s in range(1, r):
        power = operator_block(spec, "L", (p + s, q + s)) * power
    return power


@spec_memo
def laplacian_matrix(spec, D: str, pq: Bidegree) -> Matrix:
    """Delta_D = D* D + D D* on Lambda^{p,q} for a bidegree-pure D: by the
    adjoint rule (2/c)(F^H F + G G^H), one `gram_sum` of the D blocks F
    from (p,q) and G into it, G with no columns at an edge.  Its guards run
    in a fixed order: the bidegree and constant coefficients (building F),
    then unitary mode (the factor 2/c), then unimodularity."""
    if D == "d":
        return laplacian_d_matrix(spec, pq)
    forward = operator_block(spec, D, pq)
    factor = norm(spec, 1)
    require_unimodular(spec)
    down = op_targets(D + "_star", pq, spec.n)
    into = (operator_block(spec, D, down[0]) if down
            else Matrix.zeros(forward.cols, 0))
    return gram_sum(forward, into, factor)


@spec_memo
def full_degree_matrix(spec, k: int) -> Matrix:
    """Matrix of d from the whole degree-k space (all bidegrees, p
    ascending) into the degree-(k+1) space, written by the block writer
    `_wedge_block`; 1 x 0 at k = -1 and 0 x 1 at k = 2n."""
    require_constant_coefficient(spec)
    n = spec.n
    return _wedge_block(spec, "d", bidegrees_of_degree(k, n),
                        bidegrees_of_degree(k + 1, n))


@spec_memo
def laplacian_d_full(spec, k: int) -> Matrix:
    """Delta_d = d* d + d d* as an endomorphism of the whole degree-k space:
    [d*] = (2/c) [d]^H by the adjoint rule, so Delta_d = (2/c)(d_k^H d_k +
    d_{k-1} d_{k-1}^H), one `gram_sum`; at k = 0 and k = 2n one factor has
    no rows or no columns and adds nothing.  Needs a unitary, unimodular
    spec."""
    factor = norm(spec, 1)
    require_unimodular(spec)
    return gram_sum(full_degree_matrix(spec, k),
                    full_degree_matrix(spec, k - 1), factor)


def laplacian_d_matrix(spec, pq: Bidegree) -> Matrix:
    """Delta_d restricted to (p,q)-sources; rows span the whole degree-k
    space since Delta_d does not preserve the bidegree."""
    require_bidegree(spec, pq)
    n = spec.n
    k = pq[0] + pq[1]
    offset = sum(bidegree_dim(b, n) for b in bidegrees_of_degree(k, n)
                 if b[0] < pq[0])
    return laplacian_d_full(spec, k).columns(
        range(offset, offset + bidegree_dim(pq, n)))


@dataclass
class OperatorMatrix:
    """An exact operator matrix; rows run over the concatenated bases of
    `targets` in order, columns over basis_of(source)."""

    op: str
    source: Bidegree
    targets: tuple[Bidegree, ...]
    matrix: Matrix

    def to_dict(self) -> dict:
        return {
            "op": self.op,
            "source": list(self.source),
            "targets": [list(t) for t in self.targets],
            "shape": [self.matrix.rows, self.matrix.cols],
            "entries": [[a.render() for a in row] for row in self.matrix.data],
        }


def operator_matrix(spec, op: str, pq: Bidegree) -> OperatorMatrix:
    """Public matrix constructor for every OperatorId."""
    if op not in OPERATOR_IDS:
        raise ValueError(f"unknown operator id {op!r}")
    require_constant_coefficient(spec)
    require_bidegree(spec, pq)
    n = spec.n
    if op.startswith("Delta_"):
        D = op[6:]
        targets = (tuple(bidegrees_of_degree(pq[0] + pq[1], n)) if D == "d"
                   else (pq,))
        return OperatorMatrix(op, pq, targets, laplacian_matrix(spec, D, pq))
    matrix = operator_block(spec, op, pq)
    return OperatorMatrix(op, pq, tuple(op_targets(op, pq, n)), matrix)
