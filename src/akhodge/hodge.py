"""Harmonic spaces, primitive decompositions, subspace algebra, and the
machine verification of every numbered decomposition statement.

All kernel computations run on invariant forms (constant coefficients in the
coframe), which makes every space finite-dimensional and every answer exact.
Reports therefore speak about invariant forms only: for the counterexamples
this is sufficient (invariant decompositions of invariant forms), for the
positive statements it is a consistency verification, not a re-proof.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from . import operators as ops
from .exterior import (BasisMonomial, Bidegree, Form, basis_of, bidegree_dim,
                       bidegrees_of_degree)
from .linalg import Matrix, Vector, vec_is_zero
from .scalars import Nonzeroness, ZERO, SymScalar


class AmbientMismatchError(ValueError):
    pass


class CrossCheckMismatchError(AssertionError):
    """ker Delta_D disagreed with the two-equation characterization; this is
    an internal consistency failure and must abort the computation."""


class SolveFailureError(AssertionError):
    """The primitive-decomposition system was inconsistent (impossible for
    valid input)."""


# ---------------------------------------------------------------------------
# Forms <-> coordinate vectors

def form_to_vector(form: Form, pq: Bidegree, n: int) -> Vector:
    index = _basis_index(pq, n)
    vec = [ZERO] * len(index)
    for mono, coeff in form.terms():
        if mono not in index:
            raise AmbientMismatchError(
                f"monomial {mono} is not of bidegree {pq}")
        vec[index[mono]] = coeff.constant_value()
    return vec


def vector_to_form(vec: Vector, pq: Bidegree, n: int) -> Form:
    monos = basis_of(pq, n)
    return Form({m: SymScalar.const(c) for m, c in zip(monos, vec) if c})


@functools.cache
def _basis_index(pq: Bidegree, n: int) -> dict[BasisMonomial, int]:
    return {m: i for i, m in enumerate(basis_of(pq, n))}


class Subspace:
    """A linear subspace of Lambda^{p,q} with a canonical echelon basis.

    Two subspaces are equal iff their reduced-echelon bases are identical,
    so equality is a syntactic check.  `pivots` holds the pivot column of
    each basis row.
    """

    __slots__ = ("ambient", "n", "basis", "pivots")

    def __init__(self, ambient: Bidegree, n: int, basis: Matrix):
        self.ambient = ambient
        self.n = n
        reduced, self.pivots = basis.rref()
        self.basis = reduced.row_slice(0, len(self.pivots))

    @classmethod
    def from_forms(cls, n: int, pq: Bidegree, forms: list[Form]) -> "Subspace":
        rows = [form_to_vector(f, pq, n) for f in forms]
        return cls(pq, n, Matrix.from_rows(rows, bidegree_dim(pq, n)))

    @classmethod
    def zero(cls, n: int, pq: Bidegree) -> "Subspace":
        return cls(pq, n, Matrix.zeros(0, bidegree_dim(pq, n)))

    @classmethod
    def full(cls, n: int, pq: Bidegree) -> "Subspace":
        return cls(pq, n, Matrix.identity(bidegree_dim(pq, n)))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def forms(self) -> list[Form]:
        return [vector_to_form(self.basis.row(i), self.ambient, self.n)
                for i in range(self.dim)]

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient != other.ambient or self.n != other.n:
            raise AmbientMismatchError(
                f"ambient {self.ambient} != {other.ambient}")

    def member(self, element: Form | Vector) -> bool:
        return self.coordinates_of(element) is not None

    def coordinates_of(self, element: Form | Vector) -> Vector | None:
        """Coefficients w.r.t. the echelon basis, or None if not a member:
        a member's coefficient on a basis row is its entry at that row's
        pivot, and a non-member differs from that combination of rows."""
        if isinstance(element, Form):
            element = form_to_vector(element, self.ambient, self.n)
        coords = [element[c] for c in self.pivots]
        combination = Matrix.from_rows([coords], self.dim) * self.basis
        if combination != Matrix.from_rows([element], self.basis.cols):
            return None
        return coords

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace(self.ambient, self.n,
                        self.basis.stack_below(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        a, b = self.basis.rows, other.basis.rows
        if a == 0 or b == 0:
            return Subspace.zero(self.n, self.ambient)
        # solve x.U = y.V: kernel of the (cols x (a+b)) matrix [U^T | -V^T]
        stacked = self.basis.transpose().stack_beside(-other.basis.transpose())
        kernel = stacked.nullspace()
        return Subspace(self.ambient, self.n,
                        kernel.column_slice(0, a) * self.basis)

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(self.member(other.basis.row(i)) for i in range(other.dim))

    def image_under(self, matrix: Matrix, target: Bidegree) -> "Subspace":
        # row i of basis * matrix^T is matrix applied to basis row i
        return Subspace(target, self.n, self.basis * matrix.transpose())

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient == other.ambient and self.n == other.n
                and self.basis == other.basis)

    def __repr__(self):
        return (f"Subspace({self.ambient}, dim {self.dim} of "
                f"{bidegree_dim(self.ambient, self.n)})")


def kernel_subspace(matrix: Matrix, pq: Bidegree, n: int) -> Subspace:
    return Subspace(pq, n, matrix.nullspace())


def L_power_image(spec, subspace: Subspace, r: int) -> Subspace:
    """Image of a subspace of Lambda^{p,q} under L^r (exact, echelonized);
    the zero subspace of (p+r, q+r) when that lies outside 0..n."""
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


@ops.spec_memo
def harmonic_space(spec, D: str, pq: Bidegree) -> Subspace:
    """Exact kernel of Delta_D on invariant (p,q)-forms, with the
    two-equation characterization as a mandatory cross-check."""
    ops.require_bidegree(spec, pq)
    _require_theorem_mode(spec)
    space = kernel_subspace(ops.laplacian_matrix(spec, D, pq), pq, spec.n)
    cross = _characterization_kernel(spec, D, pq)
    if space != cross:
        raise CrossCheckMismatchError(
            f"{spec.name}: ker Delta_{D} on {pq} disagrees with the "
            "closed-and-costar-closed characterization")
    return space


def _characterization_kernel(spec, D: str, pq: Bidegree) -> Subspace:
    n = spec.n
    p, q = pq
    if D in ("del", "delbar"):
        # ker D  intersect  ker (conjugate-operator composed with star)
        partner = ops.STAR_PARTNERS[D]
        first = ops.operator_block(spec, D, pq)
        star = ops.operator_block(spec, "star", pq)
        second = ops.operator_block(spec, partner, (n - q, n - p)) * star
    else:
        first = ops.operator_block(spec, D, pq)
        second = ops.operator_block(spec, D + "_star", pq)
    return kernel_subspace(first.stack_below(second), pq, n)


@dataclass
class MembershipResult:
    status: str  # Harmonic | NotHarmonic | Unknown
    witness: Form | None = None
    witness_class: Nonzeroness | None = None
    reason: str = ""

    def to_dict(self) -> dict:
        out = {"status": self.status, "reason": self.reason}
        if self.witness is not None:
            out["witness"] = self.witness.render()
        if self.witness_class is not None:
            out["witness_nonzeroness"] = self.witness_class.value
        return out


def _form_nonzeroness(spec, form: Form) -> Nonzeroness:
    strength = {Nonzeroness.NONZERO_CONSTANT: 3,
                Nonzeroness.NONZERO_DECLARED: 2,
                Nonzeroness.NONZERO_FORMAL: 1, Nonzeroness.ZERO: 0}
    best = Nonzeroness.ZERO
    for _, coeff in form.terms():
        cls = coeff.classify(spec.symbols)
        if strength[cls] > strength[best]:
            best = cls
    return best


def harmonic_membership(spec, D: str, form: Form) -> MembershipResult:
    """Symbolic-mode harmonicity of a single form: evaluates the two defining
    equations (D alpha = 0 and conjugate-D of *alpha = 0)."""
    if D not in ("del", "delbar"):
        raise ValueError("membership is defined for del and delbar")
    partner = ops.STAR_PARTNERS[D]
    try:
        closed = ops.component(spec, D, form)
        costar = ops.component(spec, partner, ops.hodge_star(spec, form))
    except ops.OpaqueDerivativeError as exc:
        return MembershipResult("Unknown",
                                reason=f"needs d({exc.symbol}), declared opaque")
    for witness, label in ((closed, f"{D}(form) != 0"),
                           (costar, f"{partner}(*form) != 0")):
        if not witness.is_zero():
            return MembershipResult("NotHarmonic", witness,
                                    _form_nonzeroness(spec, witness), label)
    return MembershipResult("Harmonic")


# ---------------------------------------------------------------------------
# Primitive forms

@ops.spec_memo
def primitive_subspace(spec, pq: Bidegree) -> Subspace:
    """ker Lambda on (p,q), cross-checked against ker L^{n-k+1} for k <= n."""
    ops.require_bidegree(spec, pq)
    _require_theorem_mode(spec)
    n = spec.n
    k = pq[0] + pq[1]
    lam = ops.operator_block(spec, "Lambda", pq)
    space = kernel_subspace(lam, pq, n)
    if k <= n:
        power = n - k + 1
        alt = kernel_subspace(ops.lefschetz_power_block(spec, pq, power),
                              pq, n)
        if space != alt:
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
        total = Form.zero()
        for r, beta in self.components.items():
            term = beta
            for _ in range(r):
                term = ops.lefschetz_L(spec, term)
            total = total + term * Fraction(1, factorial(r))
        return total


@ops.spec_memo
def _decomposition_solver(spec, pq: Bidegree):
    """Cached exact solve-map for the block system
    {sum_r (1/r!) L^r beta_r = a, Lambda beta_r = 0}, and the r values of
    its column blocks (beta_r has bidegree (p-r, q-r))."""
    n = spec.n
    p, q = pq
    k = p + q
    # L^r of a primitive (k-2r)-form vanishes once k - 2r > n - r, so blocks
    # below r = max(k-n, 0) would sit in the solver's kernel; the
    # decomposition ranges over r >= max(k-n, 0) only
    r_values = [r for r in range(max(k - n, 0), min(p, q) + 1)
                if bidegree_dim((p - r, q - r), n)]
    lifts = [ops.lefschetz_power_block(spec, (p - r, q - r), r)
             .scale(Fraction(1, factorial(r))) for r in r_values]
    lams = [ops.operator_block(spec, "Lambda", (p - r, q - r))
            for r in r_values]
    # rows: the [L^r / r!] blocks side by side, then the Lambda blocks on
    # the block diagonal
    system = functools.reduce(Matrix.stack_beside, lifts)
    offset = 0
    for lam in lams:
        system = system.stack_below(
            Matrix.zeros(lam.rows, offset).stack_beside(lam).stack_beside(
                Matrix.zeros(lam.rows, system.cols - offset - lam.cols)))
        offset += lam.cols
    solver, residual = system.solve_map()
    return solver, residual, r_values


def primitive_decompose(spec, form: Form) -> PrimitiveDecomposition:
    """Unique primitive components of a constant-coefficient form."""
    _require_theorem_mode(spec)
    n = spec.n
    components: dict[int, Form] = {}
    for pq, comp in form.components().items():
        solver, residual, r_values = _decomposition_solver(spec, pq)
        rhs = form_to_vector(comp, pq, n)
        rhs = rhs + [ZERO] * (solver.cols - len(rhs))
        if not vec_is_zero(residual.apply(rhs)):
            raise SolveFailureError(
                f"inconsistent primitive decomposition on {pq}")
        solution = solver.apply(rhs)
        offset = 0
        for r in r_values:
            src = (pq[0] - r, pq[1] - r)
            width = bidegree_dim(src, n)
            beta = vector_to_form(solution[offset:offset + width], src, n)
            offset += width
            if beta.is_zero():
                continue
            components[r] = components.get(r, Form.zero()) + beta
    return PrimitiveDecomposition(form, components)


# ---------------------------------------------------------------------------
# Derived tables

def hodge_table(spec, D: str) -> list[list[int]]:
    """(n+1) x (n+1) table of invariant harmonic dimensions h^{p,q}_D."""
    n = spec.n
    return [[harmonic_space(spec, D, (p, q)).dim for q in range(n + 1)]
            for p in range(n + 1)]


def change_of_basis(space: Subspace, generators: list[Form]
                    ) -> list[Vector] | None:
    """Coordinates of each generator in the echelon basis, or None if some
    generator falls outside the subspace."""
    rows = []
    for gen in generators:
        coords = space.coordinates_of(gen)
        if coords is None:
            return None
        rows.append(coords)
    return rows


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


def _inapplicable(spec, check_id: str) -> VerificationReport | None:
    if not spec.constant_coefficient:
        return VerificationReport(spec.name, check_id, "Inapplicable",
                                  "symbolic coefficients")
    if spec.unitary_scale is None:
        return VerificationReport(spec.name, check_id, "Inapplicable",
                                  "not in unitary mode")
    if spec.n < 2:
        return VerificationReport(spec.name, check_id, "Inapplicable",
                                  "theorem verification needs n >= 2")
    return None


def _fails(spec, check_id, detail, witnesses=(), dims=None) -> VerificationReport:
    return VerificationReport(spec.name, check_id, "Fails", detail,
                              list(witnesses), dims or {})


def _holds(spec, check_id, detail="", dims=None, strict=None) -> VerificationReport:
    return VerificationReport(spec.name, check_id, "Holds", detail,
                              dimensions=dims or {}, strict=strict)


def _check_prop31(spec) -> VerificationReport:
    n = spec.n
    dims = {}
    for D in ("delbar", "del"):
        for pq in [(p, 0) for p in range(n + 1)] + \
                  [(0, q) for q in range(1, n + 1)]:
            H = harmonic_space(spec, D, pq)
            dims[f"h_{D}{pq}"] = H.dim
            if H != primitive_harmonic(spec, D, pq):
                return _fails(spec, "prop31",
                              f"H^{pq}_{D} is not entirely primitive",
                              [f.render() for f in H.forms()], dims)
    return _holds(spec, "prop31", "edge-bidegree harmonic forms are primitive",
                  dims)


def _check_prop32(spec) -> VerificationReport:
    n = spec.n
    dims = {}
    pairs = [("delbar", "del"), ("del", "delbar")]
    for D_high, D_low in pairs:
        for p in range(n + 1):
            lhs = harmonic_space(spec, D_high, (n, n - p))
            rhs = L_power_image(spec, primitive_harmonic(spec, D_low, (p, 0)),
                                n - p)
            dims[f"{D_high}(n,{n - p})"] = lhs.dim
            if lhs != rhs:
                return _fails(spec, "prop32",
                              f"H^({n},{n - p})_{D_high} != "
                              f"L^{n - p}(H^({p},0)_{D_low} cap P)", dims=dims)
        for q in range(n + 1):
            lhs = harmonic_space(spec, D_high, (n - q, n))
            rhs = L_power_image(spec, primitive_harmonic(spec, D_low, (0, q)),
                                n - q)
            dims[f"{D_high}({n - q},n)"] = lhs.dim
            if lhs != rhs:
                return _fails(spec, "prop32",
                              f"H^({n - q},{n})_{D_high} != "
                              f"L^{n - q}(H^(0,{q})_{D_low} cap P)", dims=dims)
    return _holds(spec, "prop32", "star-dual edge decompositions hold", dims)


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


def _omega_power_form(spec, r: int) -> Form:
    out = Form.one()
    for _ in range(r):
        out = spec.omega.wedge(out)
    return out


def _check_direct_sum_with_line(spec, check_id: str, H: Subspace,
                                line_form: Form, primitive_part: Subspace,
                                label: str) -> VerificationReport:
    if not H.member(line_form):
        return _fails(spec, check_id,
                      f"{label}: the distinguished form is not harmonic",
                      [line_form.render()])
    total = line_of(spec, line_form).sum(primitive_part)
    dims = {"harmonic": H.dim, "primitive_part": primitive_part.dim,
            "sum": total.dim}
    if total.dim != 1 + primitive_part.dim:
        return _fails(spec, check_id, f"{label}: sum is not direct", dims=dims)
    if total != H:
        missing = [f.render() for f in H.forms() if not total.member(f)]
        return _fails(spec, check_id, f"{label}: decomposition misses part of "
                      "the harmonic space", missing, dims)
    return _holds(spec, check_id, label, dims)


def _check_thm34(spec) -> VerificationReport:
    return _check_direct_sum_with_line(
        spec, "thm34", harmonic_space(spec, "delbar", (1, 1)), spec.omega,
        primitive_harmonic(spec, "delbar", (1, 1)),
        "H^{1,1}_delbar = C.omega + (H^{1,1}_delbar cap P^{1,1})")


def _check_cor35(spec) -> VerificationReport:
    n = spec.n
    prim_del = primitive_harmonic(spec, "del", (1, 1))
    first = _check_direct_sum_with_line(
        spec, "cor35", harmonic_space(spec, "del", (1, 1)), spec.omega,
        prim_del,
        "H^{1,1}_del = C.omega + (H^{1,1}_del cap P^{1,1})")
    if first.status != "Holds":
        return first
    omega_power = _omega_power_form(spec, n - 1)
    prim_delbar = primitive_harmonic(spec, "delbar", (1, 1))
    dims = dict(first.dimensions)
    for D, prim in (("delbar", prim_del), ("del", prim_delbar)):
        H_top = harmonic_space(spec, D, (n - 1, n - 1))
        lifted = L_power_image(spec, prim, n - 2)
        total = line_of(spec, omega_power).sum(lifted)
        dims[f"h(n-1,n-1)_{D}"] = H_top.dim
        if total.dim != 1 + lifted.dim or total != H_top:
            return _fails(spec, "cor35",
                          f"H^(n-1,n-1)_{D} != C.omega^(n-1) + L^(n-2)(...)",
                          dims=dims)
    return _holds(spec, "cor35", "all three corollary decompositions hold",
                  dims)


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
    if harmonic_space(spec, "delbar", (1, 1)) != \
            harmonic_space(spec, "del", (1, 1)):
        return _fails(spec, "prop41", "kernels differ on (1,1)", dims=dims)
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
            P = primitive_subspace(spec, pq)
            for D, adj in (("delbar", "del_star"), ("del", "delbar_star")):
                closed = kernel_subspace(ops.operator_block(spec, D, pq),
                                         pq, n)
                space = closed.intersect(P)
                adj_block = ops.operator_block(spec, adj, pq)
                for i in range(space.dim):
                    checked += 1
                    row = space.basis.row(i)
                    if not vec_is_zero(adj_block.apply(row)):
                        witness = vector_to_form(row, pq, n)
                        return _fails(
                            spec, "lemma46",
                            f"{D}-closed primitive {pq}-form with "
                            f"{adj} != 0", [witness.render()])
    return _holds(spec, "lemma46",
                  f"adjoint vanishing on {checked} primitive closed basis "
                  "forms (all k <= n)", {"cases": checked})


def _check_lemma47(spec) -> VerificationReport:
    n = spec.n
    space = primitive_harmonic(spec, "delbar", (1, 1))
    d_star = ops.operator_block(spec, "d_star", (1, 1))
    for i in range(space.dim):
        row = space.basis.row(i)
        if not vec_is_zero(d_star.apply(row)):
            return _fails(spec, "lemma47", "d* does not vanish",
                          [vector_to_form(row, (1, 1), n).render()])
    return _holds(spec, "lemma47",
                  "d* vanishes on primitive delbar-harmonic (1,1)-forms",
                  {"dim": space.dim})


def _check_lemma48(spec) -> VerificationReport:
    space = primitive_harmonic(spec, "delbar", (1, 1))
    operators_to_check = ("d", "mu", "del", "delbar", "mubar")
    for form in space.forms():
        for op in operators_to_check:
            if op == "d":
                image = ops.ext_d(spec, form)
            else:
                image = ops.component(spec, op, form)
            if not ops.dual_Lambda(spec, image).is_zero():
                return _fails(spec, "lemma48",
                              f"{op}(alpha) is not primitive",
                              [form.render()])
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
    dims = {}
    for p in range(n + 1):
        for q in range(n + 1):
            H = harmonic_space(spec, "d", (p, q))
            parts = []
            for r in range(0, min(p, q) + 1):
                parts.append(L_power_image(
                    spec, primitive_harmonic(spec, "d", (p - r, q - r)), r))
            total = parts[0]
            for part in parts[1:]:
                total = total.sum(part)
            dims[f"h_d({p},{q})"] = H.dim
            if total.dim != sum(part.dim for part in parts) or total != H:
                return _fails(spec, "hd_lefschetz",
                              f"d-harmonic Lefschetz decomposition fails on "
                              f"{(p, q)}", dims=dims)
    return _holds(spec, "hd_lefschetz",
                  "d-harmonic primitive decomposition holds on every "
                  "bidegree", dims)


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
    H = harmonic_space(spec, "delbar", (2, 1))
    prim_part = primitive_harmonic(spec, "delbar", (2, 1))
    lifted = L_power_image(spec, harmonic_space(spec, "delbar", (1, 0)), 1)
    total = prim_part.sum(lifted)
    dims = {"harmonic": H.dim, "primitive_part": prim_part.dim,
            "lifted_line": lifted.dim, "sum": total.dim}
    if total.dim != prim_part.dim + lifted.dim:
        return _fails(spec, "inclusion21", "sum is not direct", dims=dims)
    if not H.contains(total):
        extra = [f.render() for f in total.forms() if not H.member(f)]
        return _fails(spec, "inclusion21",
                      "decomposable part is not harmonic", extra, dims)
    strict = total.dim < H.dim
    witnesses = []
    if strict:
        witnesses = [f.render() for f in H.forms() if not total.member(f)][:1]
    return VerificationReport(
        spec.name, "inclusion21", "Holds",
        "inclusion holds " + ("strictly" if strict else "with equality"),
        witnesses, dims, strict=strict)


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
    blocked = _inapplicable(spec, check_id)
    if blocked is not None:
        return blocked
    if needs_ak and not spec.almost_kahler:
        return VerificationReport(spec.name, check_id, "Inapplicable",
                                  "requires an almost-Kahler structure")
    return fn(spec)


def verify_all(spec) -> list[VerificationReport]:
    return [verify(spec, check_id) for check_id in CHECK_IDS]
