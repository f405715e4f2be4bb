"""The bigraded operator zoo: d and its four components, d^c, the C-linear
Hodge star, L and its dual, the J-action, formal adjoints, Laplacians, the
Hermitian pairing, and exact matrices of all of these between bidegree bases.

Sign conventions all derive from the monomial order fixed in `exterior`.  The
unitary metric is a product over the n complex lines, so the star of a
monomial is the product of per-line stars at scale 1 (1 -> (i/2) phi phibar,
phi -> -i phi, phibar -> i phibar, phi phibar -> -2i), signed by the rule
*(a ^ b) = (-1)^{deg b (2 - deg a)} *a ^ *b and by the reorderings between
canonical and line order, times c^{n-k} on k-forms: entries stay in Q(i) and
no square root of the scale ever materializes.  The dual Lefschetz operator
is the metric adjoint of L, which on k-forms is (-1)^k * L * (the classical
-*L* formula holds verbatim on odd degrees only; the adjoint sign is forced
by [L, Lambda] = (k - n) id).

Matrices: the blocks of d, d^c, *, L and J apply the operator to one basis
monomial at a time; every other block derives from these.  The four
components of d are row slices of the cached "d" block.  The pairing is
diagonal on the monomial basis (`gram_diagonal`, in closed form from the
star), so each metric adjoint is a scaled conjugate transpose of a cached
forward block: [D*] = G_src^-1 [D]^H G_tgt for D in {mu, del, delbar, mubar},
Lambda = G^-1 [L]^H G, and d* is the four component adjoints stacked.  The
pointwise `apply_adjoint` and `dual_Lambda` (D* = -*(Dbar)*) stay for single
forms and are the blocks' test oracle.

Every per-spec cache of the engine, down to the theorem-check reports of
`hodge.verify`, is one `spec_memo` layer on the spec.  Cached values are
shared by every later caller and must not be mutated.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable

from .exterior import (SCALAR_MONOMIAL, BasisMonomial, Bidegree, Form,
                       basis_of, bidegree_dim, bidegrees_of_degree,
                       conj_monomial, wedge_monomials)
from .linalg import Matrix
from .scalars import GaussianRational, I, ONE, SymScalar, i_power

if TYPE_CHECKING:
    from .model import ManifoldSpec


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

def _d_generator(spec, j: int) -> Form:
    return spec.d_generator(j)


@spec_memo
def _d_generator_conj(spec, j: int) -> Form:
    return spec.d_generator(j).conj(spec.symbols)


@spec_memo
def _d_monomial(spec, mono: BasisMonomial) -> Form:
    factors = [(True, j) for j in mono.holo] + [(False, j) for j in mono.anti]
    total = Form.zero()
    for i, (is_holo, j) in enumerate(factors):
        df = _d_generator(spec, j) if is_holo else _d_generator_conj(spec, j)
        if df.is_zero():
            continue
        prefix = factors[:i]
        suffix = factors[i + 1:]
        pre = Form.monomial(BasisMonomial(
            tuple(g for h, g in prefix if h),
            tuple(g for h, g in prefix if not h)))
        suf = Form.monomial(BasisMonomial(
            tuple(g for h, g in suffix if h),
            tuple(g for h, g in suffix if not h)))
        term = pre.wedge(df).wedge(suf)
        total = total + (term if i % 2 == 0 else -term)
    return total


def _laurent_power_rule(mono, coeff: GaussianRational) -> list:
    """[(factor scalar, symbol name)] terms of d applied to one monomial."""
    out = []
    for idx, (name, k) in enumerate(mono):
        rest = list(mono)
        if k == 1:
            del rest[idx]
        else:
            rest[idx] = (name, k - 1)
        out.append((SymScalar({tuple(rest): coeff * k}), name))
    return out


def _d_scalar(spec, scalar: SymScalar) -> Form:
    total = Form.zero()
    for mono, coeff in scalar.terms():
        for factor, name in _laurent_power_rule(mono, coeff):
            sym = spec.symbols[name]
            if sym.derivative is None:
                raise OpaqueDerivativeError(name)
            if sym.derivative.is_zero():
                continue
            total = total + sym.derivative * factor
    return total


def ext_d(spec, form: Form) -> Form:
    """Exterior derivative: structure equations on generators, declared
    derivatives on coefficients, extended by the Leibniz rule."""
    total = Form.zero()
    for mono, coeff in form.terms():
        dm = _d_monomial(spec, mono)
        if dm:
            total = total + dm * coeff
        if not coeff.is_constant():
            ds = _d_scalar(spec, coeff)
            if ds:
                total = total + ds.wedge(Form.monomial(mono))
    return total


def component(spec, op: str, form: Form) -> Form:
    """One of the four bidegree components mu, del, delbar, mubar of d."""
    s, t = COMPONENT_SHIFTS[op]
    out = Form.zero()
    for pq, comp in form.components().items():
        out = out + ext_d(spec, comp).project((pq[0] + s, pq[1] + t))
    return out


def dc(spec, form: Form) -> Form:
    """d^c = i (delbar - del + mu - mubar)."""
    out = Form.zero()
    for pq, comp in form.components().items():
        p, q = pq
        image = ext_d(spec, comp)
        out = out + (image.project((p, q + 1)) - image.project((p + 1, q))
                     + image.project((p + 2, q - 1))
                     - image.project((p - 1, q + 2))) * GaussianRational(0, 1)
    return out


# ---------------------------------------------------------------------------
# Star, Lefschetz operators, J

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


# The C-linear star of one complex line at scale 1, keyed by which of
# phi^j, phibar^j the factor holds: (coefficient, factors of the image).
# On the real frame phi^j = e^a + i e^b this is *1 = e^{ab}, *e^a = e^b,
# *e^b = -e^a, *e^{ab} = 1.
_LINE_STAR = {
    (False, False): (I / 2, (True, True)),
    (True, False): (-I, (True, False)),
    (False, True): (I, (False, True)),
    (True, True): (-2 * I, (False, False)),
}


def _line_factor(j: int, holo: bool, anti: bool) -> BasisMonomial:
    return BasisMonomial((j,) if holo else (), (j,) if anti else ())


@spec_memo
def _star_monomial(spec, mono: BasisMonomial) -> tuple[GaussianRational,
                                                       BasisMonomial]:
    """(factor, target) with *mono = factor * target: mono = +-a_1 ^ ... ^ a_n
    with a_j on line j, each a_j starred by _LINE_STAR."""
    n = spec.n
    scale = require_unitary(spec)
    sign = 1
    value = ONE
    ordered = starred = SCALAR_MONOMIAL
    after = mono.degree
    for j in range(1, n + 1):
        line = (j in mono.holo, j in mono.anti)
        deg = line[0] + line[1]
        after -= deg
        coeff, image = _LINE_STAR[line]
        s, ordered = wedge_monomials(ordered, _line_factor(j, *line))
        t, starred = wedge_monomials(starred, _line_factor(j, *image))
        # s, t: reorderings into and out of line order; then the product
        # sign *(a_j ^ rest) = (-1)^{deg rest (2 - deg a_j)} *a_j ^ *rest
        sign *= s * t * (-1 if (after * deg) % 2 else 1)
        value = value * coeff
    factor = (value if sign == 1 else -value) * \
        Fraction(scale) ** (n - mono.degree)
    return factor, starred


def hodge_star(spec, form: Form) -> Form:
    """C-linear Hodge star of the unitary metric; (p,q) -> (n-q,n-p)."""
    out: dict[BasisMonomial, SymScalar] = {}
    for mono, coeff in form.terms():
        factor, target = _star_monomial(spec, mono)
        cur = out.get(target)
        new = coeff * factor
        out[target] = new if cur is None else cur + new
    return Form(out)


@spec_memo
def volume_form(spec) -> Form:
    return hodge_star(spec, Form.one())


def lefschetz_L(spec, form: Form) -> Form:
    """L a = omega wedge a (any coefficient mode)."""
    return spec.omega.wedge(form)


def dual_Lambda(spec, form: Form) -> Form:
    """Metric adjoint of L: (-1)^k * L * on k-forms (unitary mode)."""
    out = Form.zero()
    for pq, comp in form.components().items():
        k = pq[0] + pq[1]
        res = hodge_star(spec, lefschetz_L(spec, hodge_star(spec, comp)))
        out = out + (res if k % 2 == 0 else -res)
    return out


def j_action(form: Form) -> Form:
    """Multiplies the (p,q) part by i^{p-q}."""
    out = Form.zero()
    for pq, comp in form.components().items():
        out = out + comp * i_power(pq[0] - pq[1])
    return out


def apply_adjoint(spec, op: str, form: Form) -> Form:
    """D* = -*(Dbar)* for D in {d, mu, del, delbar, mubar}."""
    partner = STAR_PARTNERS[op]
    inner = hodge_star(spec, form)
    if partner == "d":
        image = ext_d(spec, inner)
    else:
        image = component(spec, partner, inner)
    return -hodge_star(spec, image)


def inner_product(spec, a: Form, b: Form) -> SymScalar:
    """Hermitian pairing <a,b> with <a,b> vol = a wedge *(conj b)."""
    require_unitary(spec)
    if a.is_zero() or b.is_zero():
        return SymScalar.zero()
    n = spec.n
    top = BasisMonomial(tuple(range(1, n + 1)), tuple(range(1, n + 1)))
    vol_coeff = volume_form(spec).coeff(top).constant_value()
    wedge = a.wedge(hodge_star(spec, b.conj(spec.symbols)))
    return wedge.coeff(top) * vol_coeff.inverse()


@spec_memo
def gram_diagonal(spec, pq: Bidegree) -> list[GaussianRational]:
    """Squared norms <m, m> of the basis monomials (the pairing is diagonal
    on the unitary coframe), in closed form: m ^ *conj(m) = <m, m> vol."""
    vol, _ = _star_monomial(spec, SCALAR_MONOMIAL)
    norms = []
    for mono in basis_of(pq, spec.n):
        sign, conj = conj_monomial(mono)
        factor, starred = _star_monomial(spec, conj)
        wedge_sign, _ = wedge_monomials(mono, starred)
        norms.append(factor * (sign * wedge_sign) / vol)
    return norms


def is_integrable(spec) -> bool:
    """mu = mubar = 0 at the structure level: no (0,2) part in any d(phi^j)."""
    return all(spec.d_generator(j).project((0, 2)).is_zero()
               for j in range(1, spec.n + 1))


# ---------------------------------------------------------------------------
# Matrices

# Blocks built by applying the operator to each basis monomial; the d
# components, the adjoints and Lambda derive from these (`operator_block`).
# The names are looked up at call time, so a wrapper installed on this
# module later (as the benchmark's tracer does) sees every call.
_APPLIERS: dict[str, Callable] = {
    "d": lambda spec, f: ext_d(spec, f),
    "dc": lambda spec, f: dc(spec, f),
    "star": lambda spec, f: hodge_star(spec, f),
    "L": lambda spec, f: lefschetz_L(spec, f),
    "J": lambda spec, f: j_action(f),
}

# The metric adjoints and the forward operator each is the adjoint of
_ADJOINT_OF = {**{D + "_star": D for D in COMPONENT_SHIFTS}, "Lambda": "L"}


def _valid(pq: Bidegree, n: int) -> bool:
    return 0 <= pq[0] <= n and 0 <= pq[1] <= n


def require_bidegree(spec, pq: Bidegree) -> None:
    if not _valid(pq, spec.n):
        raise ValueError(f"bidegree {tuple(pq)} is outside 0..{spec.n}")


# Largest bidegree space whose matrices the CLI builds: Lambda^{3,3} at
# n = 6, where the delbar Hodge table of the H(1,2)-type nilmanifold takes
# about 3.5 s (2-vCPU Linux VM, CPython 3.11).  At n = 7 it has 1225.
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
    if op in COMPONENT_SHIFTS:
        s, t = COMPONENT_SHIFTS[op]
        cands = [(p + s, q + t)]
    elif op.endswith("_star") and op != "d_star":
        s, t = COMPONENT_SHIFTS[op[:-5]]
        cands = [(p - s, q - t)]
    elif op in ("d", "dc"):
        cands = [(p + s, q + t) for s, t in COMPONENT_SHIFTS.values()]
    elif op == "d_star":
        cands = [(p - s, q - t) for s, t in COMPONENT_SHIFTS.values()]
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


def _application_matrix(spec, op: str, pq: Bidegree,
                        targets: list[Bidegree]) -> Matrix:
    """Columns: op applied to each basis monomial of pq, in the coordinates
    of the concatenated target bases."""
    n = spec.n
    offsets: dict[BasisMonomial, int] = {}
    for target in targets:
        for mono in basis_of(target, n):
            offsets[mono] = len(offsets)
    fn = _APPLIERS[op]
    rows: list[dict[int, GaussianRational]] = [{} for _ in offsets]
    source = basis_of(pq, n)
    for col, mono in enumerate(source):
        for image, coeff in fn(spec, Form.monomial(mono)).terms():
            idx = offsets.get(image)
            if idx is None:
                raise ValueError(f"monomial {image} of bidegree "
                                 f"{image.bidegree} falls outside target "
                                 f"blocks {targets}")
            rows[idx][col] = coeff.constant_value()
    return Matrix.from_dicts(rows, len(source))


def _component_block(spec, op: str, pq: Bidegree) -> Matrix:
    """The rows of the "d" block of pq that lie in op's target bidegree."""
    n = spec.n
    s, t = COMPONENT_SHIFTS[op]
    want = (pq[0] + s, pq[1] + t)
    d_block = operator_block(spec, "d", pq)
    start = 0
    for target in op_targets("d", pq, n):
        stop = start + bidegree_dim(target, n)
        if target == want:
            return d_block.row_slice(start, stop)
        start = stop
    return Matrix.zeros(0, d_block.cols)


def _adjoint_block(spec, op: str, pq: Bidegree) -> Matrix:
    """The metric adjoint A* of A = _ADJOINT_OF[op] on Lambda^{p,q}.  The
    pairing is diagonal on the monomial bases, so with G the Gram diagonal,
    [A*] = G_src^-1 [A]^H G_tgt, where A runs from src into (p,q)."""
    require_unitary(spec)
    n = spec.n
    sources = op_targets(op, pq, n)
    if not sources:
        return Matrix.zeros(0, bidegree_dim(pq, n))
    (src,) = sources
    forward = operator_block(spec, _ADJOINT_OF[op], src)
    src_inverse = Matrix.diagonal([g.inverse()
                                   for g in gram_diagonal(spec, src)])
    return src_inverse * forward.conj_transpose() * \
        Matrix.diagonal(gram_diagonal(spec, pq))


@spec_memo
def operator_block(spec, op: str, pq: Bidegree) -> Matrix:
    """Matrix of a non-Laplacian operator from Lambda^{p,q} into the
    concatenation of its valid target bidegrees (cached).  A component of d
    is a row slice of the "d" block, an adjoint or Lambda the scaled
    conjugate transpose of its forward block (`_adjoint_block`), and d* the
    four component adjoints stacked."""
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
    return _application_matrix(spec, op, pq, op_targets(op, pq, spec.n))


@spec_memo
def lefschetz_power_block(spec, pq: Bidegree, r: int) -> Matrix:
    """Matrix of L^r from Lambda^{p,q} into Lambda^{p+r,q+r}: the product of
    the "L" blocks, the identity when r = 0; it has no rows when p + r or
    q + r exceeds n (cached)."""
    p, q = pq
    if p + r > spec.n or q + r > spec.n:
        return Matrix.zeros(0, bidegree_dim(pq, spec.n))
    power = Matrix.identity(bidegree_dim(pq, spec.n))
    for s in range(r):
        power = operator_block(spec, "L", (p + s, q + s)) * power
    return power


@spec_memo
def laplacian_matrix(spec, D: str, pq: Bidegree) -> Matrix:
    """Delta_D = D D* + D* D on Lambda^{p,q} for a bidegree-pure D."""
    if D == "d":
        return laplacian_d_matrix(spec, pq)
    s, t = COMPONENT_SHIFTS[D]
    p, q = pq
    up = (p + s, q + t)
    down = (p - s, q - t)
    n = spec.n
    A = operator_block(spec, D, pq)
    A_star = (operator_block(spec, D + "_star", up) if _valid(up, n)
              else Matrix.zeros(bidegree_dim(pq, n), 0))
    B_star = operator_block(spec, D + "_star", pq)
    B = (operator_block(spec, D, down) if _valid(down, n)
         else Matrix.zeros(bidegree_dim(pq, n), 0))
    return A_star * A + B * B_star


@spec_memo
def full_degree_matrix(spec, op: str, k: int) -> Matrix:
    """Matrix of d or d* from the whole degree-k space (all bidegrees),
    assembled from the cached bidegree blocks."""
    require_constant_coefficient(spec)
    n = spec.n
    targets = bidegrees_of_degree(k + (1 if op == "d" else -1), n)
    full = Matrix.zeros(sum(bidegree_dim(t, n) for t in targets), 0)
    for pq in bidegrees_of_degree(k, n):
        # a block's rows run over its valid targets in ascending order, a
        # subsequence of `targets`; absent targets are zero
        block = operator_block(spec, op, pq)
        hit = op_targets(op, pq, n)
        column = Matrix.zeros(0, block.cols)
        start = 0
        for target in targets:
            dim = bidegree_dim(target, n)
            if target in hit:
                column = column.stack_below(block.row_slice(start, start + dim))
                start += dim
            else:
                column = column.stack_below(Matrix.zeros(dim, block.cols))
        full = full.stack_beside(column)
    return full


@spec_memo
def laplacian_d_full(spec, k: int) -> Matrix:
    """Delta_d as an endomorphism of the whole degree-k space."""
    n = spec.n
    dim_k = sum(bidegree_dim(pq, n) for pq in bidegrees_of_degree(k, n))
    if k < 2 * n:
        up = full_degree_matrix(spec, "d", k)
        up_star = full_degree_matrix(spec, "d_star", k + 1)
        first = up_star * up
    else:
        first = Matrix.zeros(dim_k, dim_k)
    if k > 0:
        down_star = full_degree_matrix(spec, "d_star", k)
        down = full_degree_matrix(spec, "d", k - 1)
        second = down * down_star
    else:
        second = Matrix.zeros(dim_k, dim_k)
    return first + second


def laplacian_d_matrix(spec, pq: Bidegree) -> Matrix:
    """Delta_d restricted to (p,q)-sources; rows span the whole degree-k
    space since Delta_d does not preserve the bidegree."""
    n = spec.n
    k = pq[0] + pq[1]
    full = laplacian_d_full(spec, k)
    offset = 0
    for block in bidegrees_of_degree(k, n):
        if block == pq:
            break
        offset += bidegree_dim(block, n)
    return full.column_slice(offset, offset + bidegree_dim(pq, n))


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
