"""Harmonic spaces, primitive decompositions, subspace algebra, and the
machine verification of every numbered decomposition statement.

All kernel computations run on invariant forms (constant coefficients in the
coframe), which makes every space finite-dimensional and every answer exact.
Reports therefore speak about invariant forms only: for the counterexamples
this is sufficient (invariant decompositions of invariant forms), for the
positive statements it is a consistency verification, not a re-proof.

A constant (p,q)-form is a row over the basis_of((p, q), n) columns, in the
sparse format of every `Matrix`; `forms_to_rows`, `component_rows` and
`rows_to_forms` are the only crossing between the two.  `component_rows`
writes the row of every pure component of a mixed form in one pass over
its terms, for `primitive_decompose`.  Subspace bases, block images and
coordinates are all matrices of such rows.  Both hold nonzero values in
lowest terms, so no crossing checks them again: the first two take
(column, d, a, b) entries through `linalg._over_lcm`, and `rows_to_forms`
wraps `from_ints` of each entry by the unchecked `SymScalar._of_const` and
`Form._of` (the only caller of either outside its module).

H^{p,q}_D is stated twice, each time as D alpha = 0 and partner(*alpha) =
0.  The blocks (A, E) of `harmonic_equations` state it for the cross-check
of `harmonic_space` (ker A cap ker E = ker Delta_D), and
`harmonic_membership` states it pointwise for a single form, constant or
symbolic, through `operators.component` and `operators.hodge_star`, the
star taken only when D alpha = 0.  A test compares the two.

A `Subspace` holds two unique reduced forms, each the nonzero rows of an
`rref` with their pivots: its echelon basis, which spans it, and its
equations, whose common kernel it is.  A span (`Subspace(ambient, n,
rows)`) fills the basis, a kernel (`Subspace.kernel(ambient, n, matrix)`)
the equations, and either is built from the other on first read, as the
`rref` of `linalg.kernel_of_reduced` of the other.  A kernel's dim is the
count of free columns, so `hodge_table` builds no basis.  Matrices on the
same columns have the same kernel exactly when their reduced forms are
equal, whatever their row counts, so equality compares equations, and the
mandatory cross-checks of `harmonic_space` (Delta_D against [A; E]) and
`primitive_subspace` (Lambda against L^{n-k+1}) compare two kernels and
keep the first.  Membership applies the equations to the element (a
member's coordinates are its entries at the basis pivots), and an
intersection is the kernel of both sides' equations, stacked, as lemma46
takes ker D cap P: the D block over P's equations.

Six checks are cells of `lefschetz_decomposition`, which compares H^{p,q}_D
with sum_{r in rs} L^r(H^{p-r,q-r}_{D2} cap P). With D2 = D and all r:
thm34 (delbar) and cor35 (del) at (1,1), hd_lefschetz (d) everywhere,
inclusion21 (delbar) at (2,1), prop31 (delbar, del) at the edges, where
r = 0 only. With D2 the partner of D: prop32 at (n,n-p) and (n-q,n), top r
only, and cor35 at (n-1,n-1), r in {n-2, n-1}.

One helper, `_not_annihilated`, applies a block to a subspace's basis once
and returns, in basis order, the basis forms it does not annihilate.  With
the other side's equations as the block it gives the witnesses of
`lefschetz_decomposition`, and three checks are one annihilation test of a
block on a subspace: lemma46 (del* and delbar* on ker delbar cap P and
ker del cap P, k <= n), lemma47 (d* on H^{1,1}_delbar cap P), and lemma48
(Lambda D for each component D, stacked, on the same space: the four
components of d alpha lie in distinct bidegrees and Lambda keeps them
apart, so they are all primitive exactly when every Lambda D alpha = 0).

A primitive decomposition alpha = sum_r (1/r!) L^r beta_r of a (p,q)-form
solves no linear system.  `_decomposition_solver` peels the components off
from r = min(p, q) down to max(k-n, 0) with the sl(2) relations: beta_r is
((m-r)!/m!) (2/c)^{2r} (L^r)^H applied to what is left of alpha, where
m = n - (k - 2r) and (2/c)^{2r} (L^r)^H = Lambda^r.  Two checks, once per
spec and bidegree, raise SolveFailureError: Lambda beta_r = 0 for every r,
and nothing of alpha is left over.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from . import operators as ops
from .exterior import (Bidegree, Form, basis_index, bidegree_dim,
                       bidegrees_of_degree)
from .linalg import Matrix, _over_lcm, kernel_of_reduced
from .scalars import Nonzeroness, SymScalar, from_ints


class AmbientMismatchError(ValueError):
    pass


class CrossCheckMismatchError(AssertionError):
    """ker Delta_D disagreed with the two-equation characterization; this is
    an internal consistency failure and must abort the computation."""


class SolveFailureError(AssertionError):
    """A primitive component was not primitive, or the components did not
    account for the whole form (impossible for valid input)."""


# ---------------------------------------------------------------------------
# Forms <-> matrix rows

def _ambient_error(mono, pq: Bidegree, n: int) -> AmbientMismatchError:
    """The error for a monomial outside basis_of(pq, n): an index outside
    1..n, or else the wrong bidegree."""
    full = (1 << n + 1) - 2
    if (mono[0] | mono[1]) & ~full:
        return AmbientMismatchError(
            f"monomial {mono} has an index outside 1..{n}")
    return AmbientMismatchError(f"monomial {mono} is not of bidegree {pq}")


def forms_to_rows(forms: list[Form], pq: Bidegree, n: int) -> Matrix:
    """One row per constant (p,q)-form, over the basis_of(pq, n) columns;
    NotConstantError (a ValueError) on a symbolic coefficient."""
    index = basis_index(pq, n)
    try:
        rows = [_over_lcm([(index[mono], (x := coeff.constant_value()).d,
                            x.a, x.b) for mono, coeff in form.items()])
                for form in forms]
    except KeyError as exc:
        raise _ambient_error(exc.args[0], pq, n) from None
    return Matrix(len(rows), len(index), rows)


def component_rows(form: Form, n: int) -> list[tuple[Bidegree, Matrix]]:
    """(pq, row) for each pure (p,q) component of a constant form, in
    ascending (p,q) order, the row as `forms_to_rows` writes it, from one
    pass over the form's terms; NotConstantError on a symbolic
    coefficient."""
    found: dict[Bidegree, tuple[dict, list]] = {}
    for mono, coeff in form.items():
        holo, anti = mono
        pq = (holo.bit_count(), anti.bit_count())
        index, entries = found.get(pq) or found.setdefault(
            pq, (basis_index(pq, n), []))
        col = index.get(mono)
        if col is None:
            raise _ambient_error(mono, pq, n)
        x = coeff.constant_value()
        entries.append((col, x.d, x.a, x.b))
    return [(pq, Matrix(1, len(index), [_over_lcm(entries)]))
            for pq, (index, entries) in sorted(found.items())]


def rows_to_forms(rows: Matrix, pq: Bidegree, n: int) -> list[Form]:
    """The (p,q)-form of each row."""
    monos = list(basis_index(pq, n))  # the cached basis_of(pq, n)
    const = SymScalar._of_const
    return [Form._of({monos[j]: const(from_ints(a, b, den))
                      for j, (a, b) in entries.items()})
            for den, entries in rows.sparse]


def apply_blocks(row: Matrix, target: Bidegree, n: int,
                 block: Matrix) -> Form:
    """The form of block applied to the one-row matrix `row`, in the target
    bidegree; a zero image gives Form.zero()."""
    row = block.apply(row)
    return Form.zero() if row.is_zero() else rows_to_forms(row, target, n)[0]


Reduced = tuple[Matrix, tuple[int, ...]]


def _reduced(rows: Matrix) -> Reduced:
    """The nonzero rows of the `rref` of rows, and their pivots: the same
    pair for any rows with the same row space."""
    reduced, pivots = rows.rref()
    return reduced.row_slice(0, len(pivots)), pivots


def _dual(pair: Reduced) -> Reduced:
    """The reduced form of the kernel of a reduced form's rows: a
    subspace's echelon basis from its equations, or its equations from its
    echelon basis."""
    return _reduced(kernel_of_reduced(*pair))


class Subspace:
    """A linear subspace of Lambda^{p,q}, held as two unique reduced forms:
    its echelon basis, which spans it, and its equations, whose common
    kernel under the bilinear pairing of `Matrix.apply` it is.  Each is the
    pair of nonzero rows of an `rref` and their pivots.  A subspace is built
    from one of them, and `_dual` builds the other from it on first read.
    Equality, membership and intersection read the equations, which are
    equal exactly when the subspaces are.
    """

    __slots__ = ("ambient", "n", "dim", "_basis", "_equations")

    def __init__(self, ambient: Bidegree, n: int, rows: Matrix):
        """The span of rows on the basis_of(ambient, n) columns."""
        self.ambient = ambient
        self.n = n
        self._basis = _reduced(rows)
        self._equations = None
        self.dim = len(self._basis[1])

    @classmethod
    def kernel(cls, ambient: Bidegree, n: int, matrix: Matrix) -> "Subspace":
        """The kernel of matrix on the basis_of(ambient, n) columns: its dim
        is the count of free columns, read with no basis built."""
        space = cls.__new__(cls)
        space.ambient = ambient
        space.n = n
        space._basis = None
        space._equations = _reduced(matrix)
        space.dim = matrix.cols - len(space._equations[1])
        return space

    def _basis_form(self) -> Reduced:
        if self._basis is None:
            self._basis = _dual(self._equations)
        return self._basis

    @property
    def basis(self) -> Matrix:
        return self._basis_form()[0]

    @property
    def pivots(self) -> tuple[int, ...]:
        """The pivot column of each basis row."""
        return self._basis_form()[1]

    def equations(self) -> Matrix:
        """The reduced rows whose common kernel is this subspace."""
        if self._equations is None:
            self._equations = _dual(self._basis)
        return self._equations[0]

    @classmethod
    def from_forms(cls, n: int, pq: Bidegree, forms: list[Form]) -> "Subspace":
        return cls(pq, n, forms_to_rows(forms, pq, n))

    def forms(self) -> list[Form]:
        return rows_to_forms(self.basis, self.ambient, self.n)

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient != other.ambient or self.n != other.n:
            raise AmbientMismatchError(
                f"ambient {self.ambient} != {other.ambient}")

    def member(self, element: Form | Matrix) -> bool:
        """Whether the equations annihilate a form, or every row of a
        matrix."""
        if isinstance(element, Form):
            element = forms_to_rows([element], self.ambient, self.n)
        return self.equations().apply(element).is_zero()

    def coordinates_of(self, element: Form | Matrix) -> Matrix | None:
        """Coefficients w.r.t. the echelon basis of a form or of each row of
        a matrix, or None unless every one is a `member`: a member's
        coefficient on a basis row is its entry at that row's pivot."""
        if isinstance(element, Form):
            element = forms_to_rows([element], self.ambient, self.n)
        return element.columns(self.pivots) if self.member(element) else None

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace(self.ambient, self.n,
                        self.basis.stack_below(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        """The kernel of both sides' equations, stacked."""
        self._check_ambient(other)
        return Subspace.kernel(self.ambient, self.n,
                               self.equations().stack_below(other.equations()))

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return self.member(other.basis)

    def image_under(self, matrix: Matrix, target: Bidegree) -> "Subspace":
        return Subspace(target, self.n, matrix.apply(self.basis))

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient == other.ambient and self.n == other.n
                and self.equations() == other.equations())

    def __repr__(self):
        return (f"Subspace({self.ambient}, dim {self.dim} of "
                f"{bidegree_dim(self.ambient, self.n)})")


def L_power_image(spec, subspace: Subspace, r: int) -> Subspace:
    """Image of a subspace of Lambda^{p,q} under L^r (exact, echelonized);
    the zero subspace of (p+r, q+r) when that lies outside 0..n."""
    if r == 0:
        return subspace
    p, q = subspace.ambient
    return subspace.image_under(
        ops.lefschetz_power_block(spec, (p, q), r), (p + r, q + r))


def line_of(spec, form: Form) -> Subspace:
    pq = form.pure_bidegree()
    if pq is None:
        raise AmbientMismatchError("a line needs a pure-bidegree form")
    return Subspace.from_forms(spec.n, pq, [form])


# ---------------------------------------------------------------------------
# Harmonic spaces

def _require_theorem_mode(spec) -> None:
    ops.require_constant_coefficient(spec)
    ops.require_unitary(spec)


def harmonic_equations(spec, D: str, pq: Bidegree) -> tuple[Matrix, Matrix]:
    """(A, E) with H^{p,q}_D = ker A cap ker E.  A is the D block at (p,q),
    and E the partner block at (n-q, n-p) times star on (p,q), written by
    `operators._times_star`, so A alpha and E alpha are D alpha and
    partner(*alpha).  ker E = ker D*, since D* = -*(partner)* on the
    unimodular specs where `harmonic_space` runs."""
    n = spec.n
    p, q = pq
    return ops.operator_block(spec, D, pq), ops._times_star(
        spec, ops.operator_block(spec, ops.STAR_PARTNERS[D], (n - q, n - p)),
        pq)


@ops.spec_memo
def harmonic_space(spec, D: str, pq: Bidegree) -> Subspace:
    """Exact kernel of Delta_D on invariant (p,q)-forms, with ker A cap
    ker E of the harmonic equations as a mandatory cross-check: the kernels
    of Delta_D and of A stacked over E must be equal."""
    ops.require_bidegree(spec, pq)
    _require_theorem_mode(spec)
    space = Subspace.kernel(pq, spec.n, ops.laplacian_matrix(spec, D, pq))
    A, E = harmonic_equations(spec, D, pq)
    if space != Subspace.kernel(pq, spec.n, A.stack_below(E)):
        raise CrossCheckMismatchError(
            f"{spec.name}: ker Delta_{D} on {pq} disagrees with the "
            "closed-and-costar-closed characterization")
    return space


@dataclass
class MembershipResult:
    status: str  # Harmonic | NotHarmonic | Unknown
    witness: Form | None = None
    witness_class: Nonzeroness | None = None
    reason: str = ""


_STRENGTH = {Nonzeroness.ZERO: 0, Nonzeroness.NONZERO_FORMAL: 1,
             Nonzeroness.NONZERO_DECLARED: 2, Nonzeroness.NONZERO_CONSTANT: 3}


def _form_nonzeroness(spec, form: Form) -> Nonzeroness:
    """The strongest class of its coefficients: the first constant one."""
    best = Nonzeroness.ZERO
    for _, coeff in form.items():
        cls = coeff.classify(spec.symbols)
        if cls is Nonzeroness.NONZERO_CONSTANT:
            return cls
        if _STRENGTH[cls] > _STRENGTH[best]:
            best = cls
    return best


def harmonic_membership(spec, D: str, form: Form) -> MembershipResult:
    """Harmonicity of a single form, constant or symbolic, pointwise: D
    alpha through `component`, then partner(*alpha) through `hodge_star`,
    taken only when D alpha = 0; the first nonzero image is the witness.
    Unknown when an image needs an opaque derivative.  A nonzero form on a
    non-unitary spec raises NotUnitaryModeError, also when D alpha != 0."""
    if D not in ("del", "delbar"):
        raise ValueError("membership is defined for del and delbar")
    n = spec.n
    for mono, _ in form.items():
        if (mono[0] | mono[1]) & ~((1 << n + 1) - 2):  # not in 1..n
            raise _ambient_error(mono, mono.bidegree, n)
    partner = ops.STAR_PARTNERS[D]
    try:
        witness, label = ops.component(spec, D, form), f"{D}(form) != 0"
        if witness.is_zero():
            witness = ops.component(spec, partner, ops.hodge_star(spec, form))
            label = f"{partner}(*form) != 0"
    except ops.OpaqueDerivativeError as exc:
        return MembershipResult(
            "Unknown", reason=f"needs d({exc.symbol}), declared opaque")
    if witness.is_zero():
        return MembershipResult("Harmonic")
    # the star of the second equation needs the metric, so a non-unitary
    # spec refuses a form failing the first one too
    ops.require_unitary(spec)
    return MembershipResult("NotHarmonic", witness,
                            _form_nonzeroness(spec, witness), label)


# ---------------------------------------------------------------------------
# Primitive forms

@ops.spec_memo
def primitive_subspace(spec, pq: Bidegree) -> Subspace:
    """ker Lambda on (p,q); for k <= n it is cross-checked against
    ker L^{n-k+1}, which must be equal."""
    ops.require_bidegree(spec, pq)
    _require_theorem_mode(spec)
    n = spec.n
    k = pq[0] + pq[1]
    space = Subspace.kernel(pq, n, ops.operator_block(spec, "Lambda", pq))
    if k <= n:
        power = n - k + 1
        if space != Subspace.kernel(
                pq, n, ops.lefschetz_power_block(spec, pq, power)):
            raise CrossCheckMismatchError(
                f"{spec.name}: ker Lambda != ker L^{power} on {pq}")
    return space


@ops.spec_memo
def primitive_harmonic(spec, D: str, pq: Bidegree) -> Subspace:
    """H_D cap P on (p,q): the D-harmonic forms that are also primitive."""
    return harmonic_space(spec, D, pq).intersect(primitive_subspace(spec, pq))


@dataclass
class PrimitiveDecomposition:
    """input = sum_r (1/r!) L^r beta_{k-2r} with every beta primitive."""

    input: Form
    components: dict[int, Form]

    def reconstruct(self, spec) -> Form:
        terms = []
        for r, beta in self.components.items():
            for _ in range(r):
                beta = ops.lefschetz_L(spec, beta)
            terms.append(beta * Fraction(1, factorial(r)))
        return Form.sum(terms)


@ops.spec_memo
def _decomposition_solver(spec, pq: Bidegree) -> dict[int, Matrix]:
    """{r: B_r} in ascending r, with B_r the matrix taking a (p,q)-form alpha
    to its primitive component beta_r of bidegree (p-r, q-r).

    Peeled from the top r down.  On a primitive j-form beta with m = n - j,
    Lambda^s L^r beta = 0 for s > r and Lambda^r L^r beta / r! =
    (m!/(m-r)!) beta, so Lambda^r of what is left of alpha sees beta_r
    alone; Lambda^r is (2/c)^{2r} (L^r)^H by the adjoint rule.  The peel
    stops at r = max(k-n, 0): L^r of a primitive (k-2r)-form vanishes once
    k - 2r > n - r.  Raises SolveFailureError unless Lambda B_r = 0 for
    every r and nothing of alpha is left over."""
    n = spec.n
    p, q = pq
    k = p + q
    rest = Matrix.identity(bidegree_dim(pq, n))
    solver: dict[int, Matrix] = {}
    for r in range(min(p, q), max(k - n, 0) - 1, -1):
        src = (p - r, q - r)
        lift = ops.lefschetz_power_block(spec, src, r)
        m = n - (k - 2 * r)
        solver[r] = lift.conj_transpose(
            ops.norm(spec, 2 * r) * Fraction(factorial(m - r), factorial(m))
        ) * rest
        if not (ops.operator_block(spec, "Lambda", src) * solver[r]).is_zero():
            raise SolveFailureError(
                f"{spec.name}: component {r} on {pq} is not primitive")
        rest = rest - (lift * solver[r]).scale(Fraction(1, factorial(r)))
    if not rest.is_zero():
        raise SolveFailureError(
            f"{spec.name}: the primitive components on {pq} leave a remainder")
    return dict(reversed(solver.items()))


def primitive_decompose(spec, form: Form) -> PrimitiveDecomposition:
    """Unique primitive components of a constant-coefficient form."""
    _require_theorem_mode(spec)
    n = spec.n
    components: dict[int, Form] = {}
    for pq, row in component_rows(form, n):
        for r, block in _decomposition_solver(spec, pq).items():
            beta = apply_blocks(row, (pq[0] - r, pq[1] - r), n, block)
            if not beta.is_zero():
                components[r] = (components[r] + beta if r in components
                                 else beta)
    return PrimitiveDecomposition(form, components)


# ---------------------------------------------------------------------------
# The Lefschetz decomposition

@dataclass(frozen=True)
class LefschetzDecomposition:
    """H^{p,q}_D, its parts L^r(H^{p-r,q-r}_{D2} cap P) by r, their sum, and
    the basis forms of H outside the sum (StrictInclusion) or of the sum
    outside H (NotContained); the first is the witness.  NotDirect (the
    parts overlap) and Equal have none."""

    status: str  # Equal | StrictInclusion | NotContained | NotDirect
    harmonic: Subspace
    parts: dict[int, Subspace]
    total: Subspace
    witnesses: list[Form] = field(default_factory=list)


def _not_annihilated(block: Matrix, space: Subspace) -> list[Form]:
    """The basis forms of space that block does not send to zero, in
    basis order, from one `apply` to the basis; only they become forms."""
    basis = space.basis
    rows = [row for row, (_, image)
            in zip(basis.sparse, block.apply(basis).sparse) if image]
    return rows_to_forms(Matrix(len(rows), basis.cols, rows),
                         space.ambient, space.n)


@ops.spec_memo
def lefschetz_decomposition(spec, D: str, D2: str, pq: Bidegree,
                            rs: tuple[int, ...] | None = None
                            ) -> LefschetzDecomposition:
    """Compare H^{p,q}_D with sum_{r in rs} L^r(H^{p-r,q-r}_{D2} cap P);
    `rs` defaults to every r = 0..min(p, q)."""
    p, q = pq
    H = harmonic_space(spec, D, pq)
    parts = {r: L_power_image(
        spec, primitive_harmonic(spec, D2, (p - r, q - r)), r)
        for r in (range(min(p, q) + 1) if rs is None else rs)}
    total = functools.reduce(Subspace.sum, parts.values())
    if total.dim != sum(part.dim for part in parts.values()):
        return LefschetzDecomposition("NotDirect", H, parts, total)
    if total == H:
        return LefschetzDecomposition("Equal", H, parts, total)
    extra = _not_annihilated(H.equations(), total)
    if extra:
        return LefschetzDecomposition("NotContained", H, parts, total, extra)
    return LefschetzDecomposition("StrictInclusion", H, parts, total,
                                  _not_annihilated(total.equations(), H))


# ---------------------------------------------------------------------------
# Derived tables

def hodge_table(spec, D: str) -> list[list[int]]:
    """(n+1) x (n+1) table of invariant harmonic dimensions h^{p,q}_D."""
    n = spec.n
    return [[harmonic_space(spec, D, (p, q)).dim for q in range(n + 1)]
            for p in range(n + 1)]


# ---------------------------------------------------------------------------
# The theorem suite

@dataclass
class VerificationReport:
    spec_name: str
    check_id: str
    status: str  # Holds | Fails | Inapplicable
    detail: str = ""
    witnesses: list[str] = field(default_factory=list)
    dimensions: dict[str, int] = field(default_factory=dict)
    strict: bool | None = None

    def to_dict(self) -> dict:
        out = {"spec_name": self.spec_name, "check_id": self.check_id,
               "status": self.status, "detail": self.detail,
               "dimensions": dict(sorted(self.dimensions.items()))}
        if self.witnesses:
            out["witnesses"] = list(self.witnesses)
        if self.strict is not None:
            out["strict"] = self.strict
        return out


def _inapplicable(spec, check_id: str,
                  needs_ak: bool) -> VerificationReport | None:
    for blocked, reason in (
            (not spec.constant_coefficient, "symbolic coefficients"),
            (spec.unitary_scale is None, "not in unitary mode"),
            (spec.n < 2, "theorem verification needs n >= 2"),
            (needs_ak and not spec.almost_kahler,
             "requires an almost-Kahler structure")):
        if blocked:
            return VerificationReport(spec.name, check_id, "Inapplicable",
                                      reason)
    # last: it builds a block, which needs the constant coefficients above
    if not ops.is_unimodular(spec):
        return VerificationReport(spec.name, check_id, "Inapplicable",
                                  "not unimodular")
    return None


def _fails(spec, check_id, detail, witnesses=(), dims=None) -> VerificationReport:
    return VerificationReport(spec.name, check_id, "Fails", detail,
                              list(witnesses), dims or {})


def _holds(spec, check_id, detail="", dims=None) -> VerificationReport:
    return VerificationReport(spec.name, check_id, "Holds", detail,
                              dimensions=dims or {})


def _cells_equal(spec, check_id: str, cells, detail: str, dims=None,
                 witnesses: bool = False) -> VerificationReport:
    """Holds when every cell (dims key, lefschetz_decomposition arguments,
    failure detail) is Equal, else Fails at the first (H's basis as
    witnesses if asked)."""
    dims = dict(dims or {})
    for key, args, failure in cells:
        cell = lefschetz_decomposition(spec, *args)
        dims[key] = cell.harmonic.dim
        if cell.status != "Equal":
            return _fails(spec, check_id, failure,
                          [f.render() for f in cell.harmonic.forms()]
                          if witnesses else (), dims)
    return _holds(spec, check_id, detail, dims)


def _check_prop31(spec) -> VerificationReport:
    n = spec.n
    edges = [(p, 0) for p in range(n + 1)] + [(0, q) for q in range(1, n + 1)]
    return _cells_equal(spec, "prop31", (
        (f"h_{D}{pq}", (D, D, pq), f"H^{pq}_{D} is not entirely primitive")
        for D in ("delbar", "del") for pq in edges),
        "edge-bidegree harmonic forms are primitive", witnesses=True)


def _check_prop32(spec) -> VerificationReport:
    # (a, b) is (n, n-p) or (n-q, n); its top r leaves (p, 0) or (0, q)
    n = spec.n
    edges = ([((n, n - p), f"(n,{n - p})", p, 0) for p in range(n + 1)]
             + [((n - q, n), f"({n - q},n)", 0, q) for q in range(n + 1)])
    return _cells_equal(spec, "prop32", (
        (D + key, (D, D2, (a, b), (min(a, b),)),
         f"H^({a},{b})_{D} != L^{min(a, b)}(H^({s},{t})_{D2} cap P)")
        for D, D2 in (("delbar", "del"), ("del", "delbar"))
        for (a, b), key, s, t in edges),
        "star-dual edge decompositions hold")


def _check_cor33(spec) -> VerificationReport:
    n = spec.n
    dims = {}
    for pq in ((n, 0), (0, n)):
        a = harmonic_space(spec, "delbar", pq)
        b = harmonic_space(spec, "del", pq)
        dims[f"h{pq}"] = a.dim
        if a != b:
            return _fails(spec, "cor33",
                          f"H^{pq}_delbar != H^{pq}_del", dims=dims)
    return _holds(spec, "cor33", "top-edge delbar and del harmonics agree",
                  dims)


def _check_thm34(spec, check_id: str = "thm34",
                 D: str = "delbar") -> VerificationReport:
    """The D cell at (1,1), also run by cor35 for del; its r = 1 part is
    C.omega, since H^{0,0} cap P^{0,0} = C."""
    label = f"H^{{1,1}}_{D} = C.omega + (H^{{1,1}}_{D} cap P^{{1,1}})"
    cell = lefschetz_decomposition(spec, D, D, (1, 1))
    if cell.status == "NotContained":
        return _fails(spec, check_id,
                      f"{label}: the distinguished form is not harmonic",
                      [spec.omega.render()])
    dims = {"harmonic": cell.harmonic.dim,
            "primitive_part": cell.parts[0].dim, "sum": cell.total.dim}
    if cell.status == "NotDirect":
        return _fails(spec, check_id, f"{label}: sum is not direct", dims=dims)
    if cell.status == "StrictInclusion":
        return _fails(spec, check_id, f"{label}: decomposition misses part of "
                      "the harmonic space",
                      [f.render() for f in cell.witnesses], dims)
    return _holds(spec, check_id, label, dims)


def _check_cor35(spec) -> VerificationReport:
    first = _check_thm34(spec, "cor35", "del")
    if first.status != "Holds":
        return first
    # C.omega^(n-1) is the r = n-1 part, L^(n-2)(H^{1,1} cap P) the other
    n = spec.n
    return _cells_equal(spec, "cor35", (
        (f"h(n-1,n-1)_{D}",
         (D, ops.STAR_PARTNERS[D], (n - 1, n - 1), (n - 2, n - 1)),
         f"H^(n-1,n-1)_{D} != C.omega^(n-1) + L^(n-2)(...)")
        for D in ("delbar", "del")),
        "all three corollary decompositions hold", first.dimensions)


def _check_prop41(spec) -> VerificationReport:
    if spec.n != 2:
        return VerificationReport(spec.name, "prop41", "Inapplicable",
                                  "requires real dimension 4")
    a = ops.laplacian_matrix(spec, "delbar", (1, 1))
    b = ops.laplacian_matrix(spec, "del", (1, 1))
    dims = {"h(1,1)": harmonic_space(spec, "delbar", (1, 1)).dim}
    if a != b:
        return _fails(spec, "prop41", "Delta_delbar != Delta_del on (1,1)",
                      dims=dims)
    return _holds(spec, "prop41",
                  "Delta_delbar = Delta_del on (1,1) in dimension 4", dims)


def _check_lemma44(spec) -> VerificationReport:
    H_delbar = harmonic_space(spec, "delbar", (1, 1))
    H_del = harmonic_space(spec, "del", (1, 1))
    eq_full = H_delbar == H_del
    eq_prim = (primitive_harmonic(spec, "delbar", (1, 1))
               == primitive_harmonic(spec, "del", (1, 1)))
    dims = {"h(1,1)_delbar": H_delbar.dim, "h(1,1)_del": H_del.dim}
    if eq_full != eq_prim:
        return _fails(spec, "lemma44",
                      f"equivalence broken: full={eq_full}, "
                      f"primitive={eq_prim}", dims=dims)
    return _holds(spec, "lemma44",
                  f"both sides of the equivalence are {eq_full}", dims)


def _check_lemma46(spec) -> VerificationReport:
    n = spec.n
    checked = 0
    for k in range(0, n + 1):
        for pq in bidegrees_of_degree(k, n):
            # ker D cap P as one kernel: the D block over P's equations
            primitive = primitive_subspace(spec, pq).equations()
            for D, adj in (("delbar", "del_star"), ("del", "delbar_star")):
                space = Subspace.kernel(pq, n, ops.operator_block(
                    spec, D, pq).stack_below(primitive))
                witnesses = _not_annihilated(
                    ops.operator_block(spec, adj, pq), space)
                if witnesses:
                    return _fails(spec, "lemma46",
                                  f"{D}-closed primitive {pq}-form with "
                                  f"{adj} != 0", [witnesses[0].render()])
                checked += space.dim
    return _holds(spec, "lemma46",
                  f"adjoint vanishing on {checked} primitive closed basis "
                  "forms (all k <= n)", {"cases": checked})


def _check_lemma47(spec) -> VerificationReport:
    space = primitive_harmonic(spec, "delbar", (1, 1))
    witnesses = _not_annihilated(
        ops.operator_block(spec, "d_star", (1, 1)), space)
    if witnesses:
        return _fails(spec, "lemma47", "d* does not vanish",
                      [witnesses[0].render()])
    return _holds(spec, "lemma47",
                  "d* vanishes on primitive delbar-harmonic (1,1)-forms",
                  {"dim": space.dim})


def _check_lemma48(spec) -> VerificationReport:
    # mu, del, delbar and mubar of alpha lie in distinct bidegrees, which
    # Lambda keeps apart, so all four are primitive iff Lambda D alpha = 0
    # for each component D
    pq = (1, 1)
    space = primitive_harmonic(spec, "delbar", pq)
    lambda_d = functools.reduce(Matrix.stack_below, [
        ops.operator_block(spec, "Lambda", target)
        * ops.operator_block(spec, D, pq)
        for D in ops.COMPONENT_SHIFTS
        for target in ops.op_targets(D, pq, spec.n)])
    witnesses = _not_annihilated(lambda_d, space)
    if witnesses:
        return _fails(spec, "lemma48", "d(alpha) is not primitive",
                      [witnesses[0].render()])
    return _holds(spec, "lemma48",
                  "d, mu, del, delbar, mubar of primitive harmonic "
                  "(1,1)-forms stay primitive", {"dim": space.dim})


def _check_cw_identity(spec) -> VerificationReport:
    n = spec.n
    for p in range(n + 1):
        for q in range(n + 1):
            lhs = ops.laplacian_matrix(spec, "delbar", (p, q)) + \
                ops.laplacian_matrix(spec, "mu", (p, q))
            rhs = ops.laplacian_matrix(spec, "del", (p, q)) + \
                ops.laplacian_matrix(spec, "mubar", (p, q))
            if lhs != rhs:
                return _fails(spec, "cw_identity",
                              f"Delta_delbar + Delta_mu != Delta_del + "
                              f"Delta_mubar on {(p, q)}")
    return _holds(spec, "cw_identity",
                  "Delta_delbar + Delta_mu = Delta_del + Delta_mubar on all "
                  "bidegrees")


def _check_hd_lefschetz(spec) -> VerificationReport:
    n = spec.n
    return _cells_equal(spec, "hd_lefschetz", (
        (f"h_d({p},{q})", ("d", "d", (p, q)),
         f"d-harmonic Lefschetz decomposition fails on {(p, q)}")
        for p in range(n + 1) for q in range(n + 1)),
        "d-harmonic primitive decomposition holds on every bidegree")


def _check_h10_identity(spec) -> VerificationReport:
    A = harmonic_space(spec, "delbar", (1, 0))
    B = A.intersect(harmonic_space(spec, "mu", (1, 0)))
    C = harmonic_space(spec, "del", (1, 0)).intersect(
        harmonic_space(spec, "mubar", (1, 0)))
    dims = {"h(1,0)_delbar": A.dim}
    if A != B or A != C:
        return _fails(spec, "h10_identity",
                      "three-way (1,0) harmonic identity fails", dims=dims)
    return _holds(spec, "h10_identity",
                  "H^{1,0}_delbar = H^{1,0}_delbar cap H^{1,0}_mu = "
                  "H^{1,0}_del cap H^{1,0}_mubar", dims)


def _check_inclusion21(spec) -> VerificationReport:
    cell = lefschetz_decomposition(spec, "delbar", "delbar", (2, 1))
    dims = {"harmonic": cell.harmonic.dim,
            "primitive_part": cell.parts[0].dim,
            "lifted_line": cell.parts[1].dim, "sum": cell.total.dim}
    if cell.status == "NotDirect":
        return _fails(spec, "inclusion21", "sum is not direct", dims=dims)
    if cell.status == "NotContained":
        return _fails(spec, "inclusion21", "decomposable part is not harmonic",
                      [f.render() for f in cell.witnesses], dims)
    strict = cell.status == "StrictInclusion"
    return VerificationReport(
        spec.name, "inclusion21", "Holds",
        "inclusion holds " + ("strictly" if strict else "with equality"),
        [cell.witnesses[0].render()] if strict else [], dims, strict=strict)


_CHECKS: dict[str, tuple] = {
    "prop31": (_check_prop31, False),
    "prop32": (_check_prop32, False),
    "cor33": (_check_cor33, False),
    "thm34": (_check_thm34, True),
    "cor35": (_check_cor35, True),
    "prop41": (_check_prop41, True),
    "lemma44": (_check_lemma44, True),
    "lemma46": (_check_lemma46, True),
    "lemma47": (_check_lemma47, True),
    "lemma48": (_check_lemma48, True),
    "cw_identity": (_check_cw_identity, True),
    "hd_lefschetz": (_check_hd_lefschetz, True),
    "h10_identity": (_check_h10_identity, True),
    "inclusion21": (_check_inclusion21, True),
}

CHECK_IDS = tuple(_CHECKS)


@ops.spec_memo
def verify(spec, check_id: str) -> VerificationReport:
    """Run one theorem check; Inapplicable when preconditions fail.  The
    report is cached per spec and shared: callers must not mutate it."""
    if check_id not in _CHECKS:
        raise ValueError(f"unknown check id {check_id!r}; "
                         f"known: {', '.join(CHECK_IDS)}")
    fn, needs_ak = _CHECKS[check_id]
    return _inapplicable(spec, check_id, needs_ak) or fn(spec)


def verify_all(spec) -> list[VerificationReport]:
    return [verify(spec, check_id) for check_id in CHECK_IDS]
