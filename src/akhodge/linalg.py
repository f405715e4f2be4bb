"""Exact linear algebra over the Gaussian rationals.

`Matrix` stores sparse rows over Z[i]: row i is a pair (den, entries), where
entries maps each column of a nonzero entry to the plain ints (re, im) of
den times that entry, and den > 0 shares no factor with all of them.  That
form is unique, so equal matrices have equal rows and a zero row is
(1, {}).  Products, sums, transposes and `apply` run on these ints and visit
nonzero entries only; rows are never changed once built, so matrices share
them.  A vector is a matrix row in the same format: `apply` maps each row
of a matrix through a block, and `entries` reads one row's nonzero values.
`Matrix(rows, cols, sparse)` is the one constructor and takes stored rows.
A row entry is in the number format of `scalars.GaussianRational`, the ints
(a, b) over a denominator, so rows are built and read with no rational
arithmetic.  One rule brings values to a common denominator: `_over_lcm`
takes (column, den, a, b) entries and returns the row over the lcm of the
dens, in lowest terms; `apply`, the transposes, `kernel_of_reduced`,
`hodge.forms_to_rows` and `hodge.component_rows` build their rows through
it (`__mul__`, sums and `gram_sum` keep their own loops, which add up
repeated columns).  One rule divides out a common factor: `_lowest_terms`,
of which `_primitive` is the den = 0 case.
`entries` divides each entry by its gcd with the row denominator, and
`data` returns plain dense lists, built afresh on every read (for rendering
and JSON).

Elimination (`rref`, and through it `nullspace` and `solve_map`) is
row-incremental Gauss-Jordan on the stored rows: each nonzero row is read
once and reduced by the basis rows at its pivot columns, and if anything is
left, its first column becomes a new pivot, cleared from the basis rows
that hold it.  Updates are fraction-free cross-multiplications over the
pivot row's nonzero columns, after which the row is divided by the integer
gcd of its parts (the integer-preserving elimination of E. H. Bareiss, Math.
Comp. 22, 1968, with the gcd in place of his exact division); only the final
pass divides every pivot row by its pivot.  The result is the reduced row
echelon form, which is unique, so every echelon basis is canonical and
subspace equality is syntactic whatever order the rows are reduced in.  The
kernel is read off that form with no further elimination:
`kernel_of_reduced` assembles one vector per free column from a (reduced,
pivots) pair, and `nullspace` is it applied to `rref()`, so a caller that
already holds a reduced form (a kernel-form `hodge.Subspace` building its
basis, or a subspace's own echelon basis) takes its kernel without
eliminating again.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm

from .scalars import GaussianRational, ZERO, from_ints

Vector = list[GaussianRational]
SparseRow = dict[int, tuple[int, int]]
Row = tuple[int, SparseRow]

_ZERO_ROW: Row = (1, {})


def _lowest_terms(den: int, row: SparseRow) -> Row:
    """(den, row) divided by the gcd of den and every part; den >= 0.  As
    gcd(0, a, b) = gcd(a, b), den = 0 divides row by the gcd of its parts
    alone (see `_primitive`)."""
    g = den
    for a, b in row.values():
        g = gcd(g, a, b)
        if g == 1:
            return den, row
    if not row:
        return _ZERO_ROW
    return den // g, {j: (a // g, b // g) for j, (a, b) in row.items()}


def _primitive(row: SparseRow) -> SparseRow:
    """row divided by the gcd of all its integer parts."""
    return _lowest_terms(0, row)[1]


def _over_lcm(entries: list[tuple[int, int, int, int]]) -> Row:
    """The stored row of (column, den, a, b) entries, each the nonzero value
    (a + b i)/den with den > 0: over the lcm of the dens, in lowest terms.
    No entries give the zero row."""
    common = lcm(*[den for _, den, _, _ in entries])
    row = {}
    for j, den, a, b in entries:
        m = common // den
        row[j] = (a * m, b * m)
    return _lowest_terms(common, row)


def _reduce(row: SparseRow, c: int, pivot: SparseRow) -> SparseRow:
    """p*row - row[c]*pivot with p = pivot[c], divided by its gcd: row with
    column c cleared, still in Z[i].  The subtraction visits only the
    pivot's nonzero columns; rows are shared, so it works on a copy."""
    pr, pi = pivot[c]
    fr, fi = row[c]
    if pi:
        row = {j: (pr * a - pi * b, pr * b + pi * a)
               for j, (a, b) in row.items()}
    elif pr != 1:
        row = {j: (pr * a, pr * b) for j, (a, b) in row.items()}
    else:
        row = dict(row)
    for j, (a, b) in pivot.items():
        sr = fr * a - fi * b
        si = fr * b + fi * a
        if j in row:
            xr, xi = row[j]
            xr -= sr
            xi -= si
            if xr or xi:
                row[j] = (xr, xi)
            else:
                del row[j]
        else:
            row[j] = (-sr, -si)
    return _primitive(row)


def _add_rows(first: Row, second: Row, sign: int) -> Row:
    """first + sign * second."""
    d1, e1 = first
    d2, e2 = second
    if not e2:
        return first
    if not e1 and sign == 1:
        return second
    den = lcm(d1, d2)
    m1 = den // d1
    m2 = den // d2 * sign
    out = {j: (a * m1, b * m1) for j, (a, b) in e1.items()}
    for j, (a, b) in e2.items():
        cur = out.get(j)
        if cur is None:
            out[j] = (a * m2, b * m2)
        else:
            x = cur[0] + a * m2
            y = cur[1] + b * m2
            if x or y:
                out[j] = (x, y)
            else:
                del out[j]
    return _lowest_terms(den, out)


class Matrix:
    """A rows x cols matrix over Q(i), stored as sparse rows (see the module
    docstring).  Zero-dimensional shapes are legal; they show up as
    operators into or out of empty bidegrees.
    """

    __slots__ = ("rows", "cols", "sparse")

    def __init__(self, rows: int, cols: int, sparse: list[Row]):
        """From stored rows (den, entries), which it shares, not copies."""
        self.rows = rows
        self.cols = cols
        self.sparse = sparse

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [_ZERO_ROW] * rows)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [(1, {i: (1, 0)}) for i in range(n)])

    # -- reads -----------------------------------------------------------------

    def entries(self, i: int) -> dict[int, GaussianRational]:
        """Row i as column -> value over its nonzero entries."""
        den, entries = self.sparse[i]
        return {j: from_ints(a, b, den) for j, (a, b) in entries.items()}

    @property
    def data(self) -> list[Vector]:
        """Dense rows, built afresh on every read (for rendering and JSON)."""
        out = []
        for i in range(self.rows):
            row = [ZERO] * self.cols
            for j, x in self.entries(i).items():
                row[j] = x
            out.append(row)
        return out

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return Matrix(self.rows, self.cols,
                      [_add_rows(r, s, 1)
                       for r, s in zip(self.sparse, other.sparse)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return Matrix(self.rows, self.cols,
                      [_add_rows(r, s, -1)
                       for r, s in zip(self.sparse, other.sparse)])

    def scale(self, factor) -> "Matrix":
        if not isinstance(factor, GaussianRational):
            factor = GaussianRational(factor)
        if not factor:
            return Matrix.zeros(self.rows, self.cols)
        fr, fi, fd = factor.a, factor.b, factor.d
        return Matrix(self.rows, self.cols, [
            _lowest_terms(den * fd, {j: (a * fr - b * fi, a * fi + b * fr)
                                     for j, (a, b) in row.items()})
            for den, row in self.sparse])

    def __mul__(self, other: "Matrix") -> "Matrix":
        assert self.cols == other.rows, f"{self.cols} != {other.rows}"
        right = other.sparse
        out = []
        for den, row in self.sparse:
            if not row:
                out.append(_ZERO_ROW)
                continue
            # bring the right-hand rows this row touches to one denominator
            common = lcm(*(right[k][0] for k in row))
            acc: SparseRow = {}
            for k, (a, b) in row.items():
                rden, rrow = right[k]
                if rden != common:
                    m = common // rden
                    a *= m
                    b *= m
                for j, (c, e) in rrow.items():
                    cur = acc.get(j)
                    if cur is None:
                        acc[j] = (a * c - b * e, a * e + b * c)
                    else:
                        acc[j] = (cur[0] + a * c - b * e,
                                  cur[1] + a * e + b * c)
            out.append(_lowest_terms(den * common,
                                     {j: v for j, v in acc.items()
                                      if v[0] or v[1]}))
        return Matrix(self.rows, other.cols, out)

    def apply(self, vectors: "Matrix") -> "Matrix":
        """Row i is self times row i of vectors, that is vectors * self^T,
        taken as dot products over the stored rows with no transpose."""
        assert vectors.cols == self.cols, f"{vectors.cols} != {self.cols}"
        out = []
        for vden, vec in vectors.sparse:
            hits = []
            for i, (den, row) in enumerate(self.sparse if vec else ()):
                re = im = 0
                for j, (a, b) in row.items():
                    v = vec.get(j)
                    if v is not None:
                        c, e = v
                        re += a * c - b * e
                        im += a * e + b * c
                if re or im:
                    hits.append((i, den * vden, re, im))
            out.append(_over_lcm(hits))
        return Matrix(vectors.rows, self.rows, out)

    def _transposed(self, sign: int, factor: Fraction | int = 1) -> "Matrix":
        """The transpose times the rational factor, with every imaginary
        part times sign, in one pass: each entry (a + b i)/den becomes
        (a fn + sign b fn i)/(den fd) for factor = fn/fd."""
        if not factor:
            return Matrix.zeros(self.cols, self.rows)
        fn, fd = factor.numerator, factor.denominator
        bn = sign * fn
        columns: list[list] = [[] for _ in range(self.cols)]
        for i, (den, row) in enumerate(self.sparse):
            den *= fd
            for j, (a, b) in row.items():
                columns[j].append((i, den, a * fn, b * bn))
        return Matrix(self.cols, self.rows,
                      [_over_lcm(column) for column in columns])

    def conj_transpose(self, factor: Fraction | int = 1) -> "Matrix":
        """factor times the conjugate transpose, for a rational factor."""
        return self._transposed(-1, factor)

    def transpose(self) -> "Matrix":
        return self._transposed(1)

    # -- assembly --------------------------------------------------------------

    def stack_below(self, other: "Matrix") -> "Matrix":
        assert self.cols == other.cols
        return Matrix(self.rows + other.rows, self.cols,
                      self.sparse + other.sparse)

    def row_slice(self, start: int, stop: int) -> "Matrix":
        return Matrix(stop - start, self.cols, self.sparse[start:stop])

    def columns(self, keep: Sequence[int]) -> "Matrix":
        """The columns keep, in that order."""
        index = {c: j for j, c in enumerate(keep)}
        return Matrix(self.rows, len(keep), [
            _lowest_terms(den, {index[c]: v for c, v in row.items()
                                if c in index})
            for den, row in self.sparse])

    # -- comparison ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(row for _, row in self.sparse)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            self.sparse == other.sparse

    def __repr__(self):
        body = "; ".join(" ".join(a.render() for a in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    # -- elimination -----------------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Unique reduced row echelon form and pivot columns."""
        # pivot column -> primitive row, zero before it and at every other
        # pivot column; the denominators only scale rows, so are dropped
        basis: dict[int, SparseRow] = {}
        stored: set[int] = set()  # every column a basis row ever held
        for _, row in self.sparse:
            # basis rows add entries at non-pivot columns only: one pass
            for c in [c for c in row if c in basis]:
                row = _reduce(row, c, basis[c])
            if row:
                row = _primitive(row)
                c0 = min(row)
                if c0 in stored:
                    for c, held in basis.items():
                        if c0 in held:
                            basis[c] = _reduce(held, c0, row)
                stored.update(row)
                basis[c0] = row
        pivots = sorted(basis)
        out = []
        for c in pivots:
            # divide by the pivot p: x / p = x * conj(p) / |p|^2
            row = basis[c]
            pr, pi = row[c]
            if (pr, pi) == (1, 0):
                out.append((1, row))
                continue
            out.append(_lowest_terms(pr * pr + pi * pi, {
                j: (a * pr + b * pi, b * pr - a * pi)
                for j, (a, b) in row.items()}))
        # zero rows sink to the bottom in canonical order
        out.extend([_ZERO_ROW] * (self.rows - len(pivots)))
        return Matrix(self.rows, self.cols, out), tuple(pivots)

    def nullspace(self) -> "Matrix":
        """Rows span ker(self): `kernel_of_reduced` of `rref()`."""
        return kernel_of_reduced(*self.rref())

    def solve_map(self) -> tuple["Matrix", "Matrix"]:
        """For a full-column-rank matrix M, return (R, K) with R (cols x rows)
        satisfying R @ b = x for every consistent system M x = b, and K whose
        rows test consistency (K @ b = 0 iff b lies in the column space)."""
        # [M | I] as the transpose of [M^T; I]
        aug = self.transpose().stack_below(
            Matrix.identity(self.rows)).transpose()
        reduced, pivots = aug.rref()
        main_pivots = [c for c in pivots if c < self.cols]
        if len(main_pivots) != self.cols:
            raise ValueError("matrix does not have full column rank")
        right = reduced.columns(range(self.cols, self.cols + self.rows))
        return (right.row_slice(0, self.cols),
                right.row_slice(self.cols, len(pivots)))


def gram_sum(F: Matrix, G: Matrix, factor: Fraction) -> Matrix:
    """factor (F^H F + G G^H) for a rational factor > 0: the square matrix
    on F's columns (G's rows), as a sum of outer products v v^H over the
    conjugated rows v of F and the columns v of G, in integers over the
    square of the lcm of every row denominator.  The sum is Hermitian, so
    only its upper triangle is accumulated and the lower one is its mirror;
    each row is brought to lowest terms once."""
    assert F.cols == G.rows, f"{F.cols} != {G.rows}"
    dim = F.cols
    common = lcm(*[den for den, row in F.sparse + G.sparse if row])
    vectors = []
    for den, row in F.sparse:
        m = common // den
        vectors.append([(j, a * m, -b * m)
                        for j, (a, b) in sorted(row.items())])
    columns: list[list] = [[] for _ in range(G.cols)]
    for i, (den, row) in enumerate(G.sparse):
        m = common // den
        for j, (a, b) in row.items():
            columns[j].append((i, a * m, b * m))
    # v ascends in its indices: add v_i conj(v_j) at i <= j, its real and
    # imaginary parts kept apart
    upper_re: list[dict] = [{} for _ in range(dim)]
    upper_im: list[dict] = [{} for _ in range(dim)]
    for v in vectors + columns:
        for x, (i, a, b) in enumerate(v):
            acc_re, acc_im = upper_re[i], upper_im[i]
            acc_re[i] = acc_re.get(i, 0) + a * a + b * b
            for j, c, e in v[x + 1:]:
                acc_re[j] = acc_re.get(j, 0) + a * c + b * e
                acc_im[j] = acc_im.get(j, 0) + b * c - a * e
    fn = factor.numerator
    rows: list[SparseRow] = [{} for _ in range(dim)]
    for i, (acc_re, acc_im) in enumerate(zip(upper_re, upper_im)):
        row = rows[i]
        for j, a in acc_re.items():
            b = acc_im.get(j, 0)
            if a or b:
                row[j] = (a * fn, b * fn)
                if j != i:
                    rows[j][i] = (a * fn, -b * fn)
    den = factor.denominator * common * common
    return Matrix(dim, dim, [_lowest_terms(den, row) for row in rows])


def kernel_of_reduced(reduced: Matrix, pivots: Sequence[int]) -> Matrix:
    """Rows span the kernel of a matrix whose reduced row echelon form is
    reduced, with these pivots (`Matrix.rref`'s pair): one vector per free
    column, with 1 there and 0 at the other free columns.  It runs no
    elimination and is not echelonized; `hodge.Subspace` makes a basis
    canonical."""
    pivot_set = set(pivots)
    free = [c for c in range(reduced.cols) if c not in pivot_set]
    # a reduced row is nonzero off its pivot at free columns only; each
    # kernel vector is 1 at its free column and -row at each pivot
    at_free: dict[int, list] = {c: [(c, 1, 1, 0)] for c in free}
    for (den, row), pc in zip(reduced.sparse, pivots):
        for j, (a, b) in row.items():
            if j != pc:
                at_free[j].append((pc, den, -a, -b))
    return Matrix(len(free), reduced.cols,
                  [_over_lcm(hits) for hits in at_free.values()])
