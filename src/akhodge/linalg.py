"""Exact linear algebra over the Gaussian rationals.

`Matrix` stores sparse rows over Z[i]: row i is a pair (den, entries), where
entries maps each column of a nonzero entry to the plain ints (re, im) of
den times that entry, and den > 0 shares no factor with all of them.  That
form is unique, so equal matrices have equal rows and a zero row is
(1, {}).  Products, sums, transposes and `apply` run on these ints and visit
nonzero entries only; rows are never changed once built, so matrices share
them.  `data` is a read-only dense view of `GaussianRational` rows, each
built when it is read (for rendering and JSON).

Elimination (`rref`, and through it `nullspace` and `solve_map`) reads the
stored rows directly: updates are fraction-free cross-multiplications over
the pivot row's nonzero columns, after which the row is divided by the
integer gcd of its parts (the integer-preserving elimination of E. H.
Bareiss, Math. Comp. 22, 1968, with the gcd in place of his exact division);
only the final pass divides every pivot row by its pivot, giving the unique
reduced row echelon form.  Pivoting is deterministic: first nonzero entry in
column order, rows scanned top-down, so every echelon basis is canonical and
subspace equality is syntactic.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm

from .scalars import GaussianRational, ZERO

Vector = list[GaussianRational]
SparseRow = dict[int, tuple[int, int]]
Row = tuple[int, SparseRow]

_ZERO_ROW: Row = (1, {})


def _row_of(items: Iterable[tuple[int, GaussianRational]]) -> Row:
    """The stored row of (column, value) pairs; zero values are dropped.
    Over the lcm of the denominators the row is already in lowest terms."""
    items = [(j, x) for j, x in items if x]
    den = lcm(*(lcm(x.re.denominator, x.im.denominator) for _, x in items))
    return den, {j: (x.re.numerator * (den // x.re.denominator),
                     x.im.numerator * (den // x.im.denominator))
                 for j, x in items}


def _lowest_terms(den: int, row: SparseRow) -> Row:
    """(den, row) divided by the gcd of den and every part; den > 0."""
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
    g = 0
    for a, b in row.values():
        g = gcd(g, a, b)
        if g == 1:
            return row
    if g == 0:
        return row
    return {j: (a // g, b // g) for j, (a, b) in row.items()}


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


class DenseRows(Sequence):
    """Read-only dense rows of a Matrix; each row is built when read."""

    __slots__ = ("_matrix",)

    def __init__(self, matrix: "Matrix"):
        self._matrix = matrix

    def __len__(self) -> int:
        return self._matrix.rows

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._matrix.row(k) for k in range(*i.indices(len(self)))]
        return self._matrix.row(i)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None


class Matrix:
    """A rows x cols matrix over Q(i), stored as sparse rows (see the module
    docstring).  Zero-dimensional shapes are legal; they show up as
    operators into or out of empty bidegrees.
    """

    __slots__ = ("rows", "cols", "sparse")

    def __init__(self, rows: int, cols: int, data: list[Vector]):
        """From dense rows, each of length cols."""
        if len(data) != rows:
            raise ValueError(f"{len(data)} rows given for {rows}")
        for row in data:
            if len(row) != cols:
                raise ValueError(f"a row of length {len(row)} in a matrix "
                                 f"with {cols} columns")
        self.rows = rows
        self.cols = cols
        self.sparse = [_row_of(enumerate(row)) for row in data]

    # -- constructors --------------------------------------------------------

    @classmethod
    def _of(cls, rows: int, cols: int, sparse: list[Row]) -> "Matrix":
        matrix = object.__new__(cls)
        matrix.rows = rows
        matrix.cols = cols
        matrix.sparse = sparse
        return matrix

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._of(rows, cols, [_ZERO_ROW] * rows)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.diagonal([GaussianRational(1)] * n)

    @classmethod
    def diagonal(cls, values: Vector) -> "Matrix":
        n = len(values)
        return cls._of(n, n, [_row_of([(i, x)]) for i, x in enumerate(values)])

    @classmethod
    def from_rows(cls, rows: list[Vector], cols: int | None = None) -> "Matrix":
        if cols is None:
            cols = len(rows[0]) if rows else 0
        return cls(len(rows), cols, rows)

    @classmethod
    def from_dicts(cls, rows: list[dict[int, GaussianRational]],
                   cols: int) -> "Matrix":
        """From each row's entries as column -> value."""
        for row in rows:
            if row and not 0 <= min(row) <= max(row) < cols:
                raise ValueError(f"a column index outside 0..{cols - 1}")
        return cls._of(len(rows), cols, [_row_of(row.items()) for row in rows])

    @classmethod
    def from_columns(cls, columns: list[Vector], rows: int) -> "Matrix":
        entries: list[dict[int, GaussianRational]] = [{} for _ in range(rows)]
        for j, column in enumerate(columns):
            if len(column) != rows:
                raise ValueError(f"a column of length {len(column)} in a "
                                 f"matrix with {rows} rows")
            for i, x in enumerate(column):
                if x:
                    entries[i][j] = x
        return cls.from_dicts(entries, len(columns))

    # -- dense reads -----------------------------------------------------------

    def row(self, i: int) -> Vector:
        den, entries = self.sparse[i]
        out = [ZERO] * self.cols
        for j, (a, b) in entries.items():
            out[j] = GaussianRational(Fraction(a, den), Fraction(b, den))
        return out

    @property
    def data(self) -> DenseRows:
        return DenseRows(self)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return Matrix._of(self.rows, self.cols,
                          [_add_rows(r, s, 1)
                           for r, s in zip(self.sparse, other.sparse)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return Matrix._of(self.rows, self.cols,
                          [_add_rows(r, s, -1)
                           for r, s in zip(self.sparse, other.sparse)])

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, factor) -> "Matrix":
        if not isinstance(factor, GaussianRational):
            factor = GaussianRational(factor)
        fd, entries = _row_of([(0, factor)])
        if not entries:
            return Matrix.zeros(self.rows, self.cols)
        fr, fi = entries[0]
        return Matrix._of(self.rows, self.cols, [
            _lowest_terms(den * fd, {j: (a * fr - b * fi, a * fi + b * fr)
                                     for j, (a, b) in row.items()})
            for den, row in self.sparse])

    def __mul__(self, other: "Matrix") -> "Matrix":
        assert self.cols == other.rows, f"{self.cols} != {other.rows}"
        right = other.sparse
        out = []
        for den, row in self.sparse:
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
        return Matrix._of(self.rows, other.cols, out)

    def apply(self, vec: Vector) -> Vector:
        assert len(vec) == self.cols
        vden, ventries = _row_of(enumerate(vec))
        out = [ZERO] * self.rows
        if not ventries:
            return out
        for i, (den, row) in enumerate(self.sparse):
            re = im = 0
            for j, (a, b) in row.items():
                v = ventries.get(j)
                if v is not None:
                    c, e = v
                    re += a * c - b * e
                    im += a * e + b * c
            if re or im:
                den *= vden
                out[i] = GaussianRational(Fraction(re, den), Fraction(im, den))
        return out

    def _transposed(self, sign: int) -> "Matrix":
        """The transpose, with every imaginary part times sign."""
        columns: list[list] = [[] for _ in range(self.cols)]
        for i, (den, row) in enumerate(self.sparse):
            for j, (a, b) in row.items():
                columns[j].append((i, den, a, sign * b))
        out = []
        for column in columns:
            common = lcm(*(den for _, den, _, _ in column))
            out.append(_lowest_terms(common, {
                i: (a * (common // den), b * (common // den))
                for i, den, a, b in column}))
        return Matrix._of(self.cols, self.rows, out)

    def conj_transpose(self) -> "Matrix":
        return self._transposed(-1)

    def transpose(self) -> "Matrix":
        return self._transposed(1)

    # -- assembly --------------------------------------------------------------

    def stack_below(self, other: "Matrix") -> "Matrix":
        assert self.cols == other.cols
        return Matrix._of(self.rows + other.rows, self.cols,
                          self.sparse + other.sparse)

    def stack_beside(self, other: "Matrix") -> "Matrix":
        assert self.rows == other.rows
        shift = self.cols
        out = []
        for (d1, e1), (d2, e2) in zip(self.sparse, other.sparse):
            # over lcm(d1, d2) both halves stay in lowest terms
            den = lcm(d1, d2)
            m1 = den // d1
            m2 = den // d2
            row = {j: (a * m1, b * m1) for j, (a, b) in e1.items()}
            for j, (a, b) in e2.items():
                row[j + shift] = (a * m2, b * m2)
            out.append((den, row))
        return Matrix._of(self.rows, self.cols + other.cols, out)

    def row_slice(self, start: int, stop: int) -> "Matrix":
        return Matrix._of(stop - start, self.cols, self.sparse[start:stop])

    def column_slice(self, start: int, stop: int) -> "Matrix":
        return Matrix._of(self.rows, stop - start, [
            _lowest_terms(den, {j - start: v for j, v in row.items()
                                if start <= j < stop})
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
        # the denominators only scale rows; elimination needs none of them
        work = [_primitive(row) for _, row in self.sparse]
        pivots: list[int] = []
        r = 0
        for c in range(self.cols):
            pivot_row = None
            for k in range(r, self.rows):
                if c in work[k]:
                    pivot_row = k
                    break
            if pivot_row is None:
                continue
            work[r], work[pivot_row] = work[pivot_row], work[r]
            pivot = work[r]
            pr, pi = pivot[c]
            for k in range(self.rows):
                row = work[k]
                if k == r or c not in row:
                    continue
                # row <- p*row - f*pivot_row stays in Z[i]; the subtraction
                # visits only the pivot row's nonzero columns.  Stored rows
                # are shared, so the update works on a copy.
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
                work[k] = _primitive(row)
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        out = []
        for row, c in zip(work, pivots):
            # divide by the pivot p: x / p = x * conj(p) / |p|^2
            pr, pi = row[c]
            if (pr, pi) == (1, 0):
                out.append((1, row))
                continue
            out.append(_lowest_terms(pr * pr + pi * pi, {
                j: (a * pr + b * pi, b * pr - a * pi)
                for j, (a, b) in row.items()}))
        # zero rows sink to the bottom in canonical order
        out.extend([_ZERO_ROW] * (self.rows - len(pivots)))
        return Matrix._of(self.rows, self.cols, out), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> "Matrix":
        """Rows span ker(self): one vector per free column, with 1 there and
        0 at the other free columns.  Not echelonized; `hodge.Subspace`
        makes a basis canonical."""
        reduced, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        # a reduced row is nonzero off its pivot at free columns only
        at_free: dict[int, list] = {c: [] for c in free}
        for (den, row), pc in zip(reduced.sparse, pivots):
            for j, (a, b) in row.items():
                if j != pc:
                    at_free[j].append((pc, den, a, b))
        out = []
        for fc in free:
            hits = at_free[fc]
            common = lcm(*(den for _, den, _, _ in hits))
            vec = {pc: (-a * (common // den), -b * (common // den))
                   for pc, den, a, b in hits}
            vec[fc] = (common, 0)
            out.append(_lowest_terms(common, vec))
        return Matrix._of(len(free), self.cols, out)

    def solve_map(self) -> tuple["Matrix", "Matrix"]:
        """For a full-column-rank matrix M, return (R, K) with R (cols x rows)
        satisfying R @ b = x for every consistent system M x = b, and K whose
        rows test consistency (K @ b = 0 iff b lies in the column space)."""
        aug = self.stack_beside(Matrix.identity(self.rows))
        reduced, pivots = aug.rref()
        main_pivots = [c for c in pivots if c < self.cols]
        if len(main_pivots) != self.cols:
            raise ValueError("matrix does not have full column rank")
        right = reduced.column_slice(self.cols, self.cols + self.rows)
        return (right.row_slice(0, self.cols),
                right.row_slice(self.cols, len(pivots)))


def vec_is_zero(vec: Vector) -> bool:
    return all(not a for a in vec)
