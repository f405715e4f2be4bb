"""Exact dense linear algebra over the Gaussian rationals.

Elimination is fraction-free (rows are scaled into Z[i], updates are
cross-multiplications, each row is reduced by its rational content) with a
final normalization pass to the unique reduced row echelon form.  Pivoting is
deterministic: first nonzero entry in column order, rows scanned top-down, so
every echelon basis is canonical and subspace equality is syntactic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .scalars import GaussianRational, ONE, ZERO

Vector = list[GaussianRational]


def _row_content(row: Vector) -> Fraction:
    """Positive rational g with row/g having coprime integer parts."""
    num = 0
    den = 1
    for entry in row:
        for part in (entry.re, entry.im):
            if part:
                num = gcd(num, abs(part.numerator))
                den = den * part.denominator // gcd(den, part.denominator)
    if num == 0:
        return Fraction(1)
    return Fraction(num, den)


class Matrix:
    """A rows x cols matrix of GaussianRational entries.

    Zero-dimensional shapes are legal; they show up as operators into or out
    of empty bidegrees.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: list[Vector]):
        self.rows = rows
        self.cols = cols
        self.data = data

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [[ZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        data = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        return cls(n, n, data)

    @classmethod
    def from_rows(cls, rows: list[Vector], cols: int | None = None) -> "Matrix":
        if rows:
            cols = len(rows[0])
        elif cols is None:
            cols = 0
        return cls(len(rows), cols, [list(r) for r in rows])

    @classmethod
    def from_columns(cls, columns: list[Vector], rows: int) -> "Matrix":
        data = [[columns[j][i] for j in range(len(columns))] for i in range(rows)]
        return cls(rows, len(columns), data)

    # -- elementwise ----------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return Matrix(self.rows, self.cols,
                      [[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return Matrix(self.rows, self.cols,
                      [[a - b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.data, other.data)])

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, [[-a for a in r] for r in self.data])

    def scale(self, factor) -> "Matrix":
        return Matrix(self.rows, self.cols,
                      [[a * factor for a in r] for r in self.data])

    def __mul__(self, other: "Matrix") -> "Matrix":
        assert self.cols == other.rows, f"{self.cols} != {other.rows}"
        out = [[ZERO] * other.cols for _ in range(self.rows)]
        for i in range(self.rows):
            row = self.data[i]
            acc = out[i]
            for k in range(self.cols):
                a = row[k]
                if not a:
                    continue
                brow = other.data[k]
                for j in range(other.cols):
                    b = brow[j]
                    if b:
                        acc[j] = acc[j] + a * b
        return Matrix(self.rows, other.cols, out)

    def apply(self, vec: Vector) -> Vector:
        assert len(vec) == self.cols
        out = [ZERO] * self.rows
        for i, row in enumerate(self.data):
            acc = ZERO
            for a, x in zip(row, vec):
                if a and x:
                    acc = acc + a * x
            out[i] = acc
        return out

    def conj_transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      [[self.data[i][j].conj() for i in range(self.rows)]
                       for j in range(self.cols)])

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      [[self.data[i][j] for i in range(self.rows)]
                       for j in range(self.cols)])

    def stack_below(self, other: "Matrix") -> "Matrix":
        assert self.cols == other.cols
        return Matrix(self.rows + other.rows, self.cols,
                      [list(r) for r in self.data] + [list(r) for r in other.data])

    def stack_beside(self, other: "Matrix") -> "Matrix":
        assert self.rows == other.rows
        return Matrix(self.rows, self.cols + other.cols,
                      [list(a) + list(b) for a, b in zip(self.data, other.data)])

    def is_zero(self) -> bool:
        return all(not a for row in self.data for a in row)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            all(a == b for r1, r2 in zip(self.data, other.data)
                for a, b in zip(r1, r2))

    def __repr__(self):
        body = "; ".join(" ".join(a.render() for a in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    # -- elimination -----------------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Unique reduced row echelon form and pivot columns."""
        work = []
        for row in self.data:
            row = list(row)
            content = _row_content(row)
            if content != 1:
                inv = 1 / content
                row = [a * inv for a in row]
            work.append(row)
        pivots: list[int] = []
        r = 0
        for c in range(self.cols):
            pivot_row = None
            for k in range(r, self.rows):
                if work[k][c]:
                    pivot_row = k
                    break
            if pivot_row is None:
                continue
            work[r], work[pivot_row] = work[pivot_row], work[r]
            piv = work[r][c]
            for k in range(self.rows):
                if k == r or not work[k][c]:
                    continue
                f = work[k][c]
                # cross-multiplied update keeps rows in Z[i]
                work[k] = [piv * a - f * b for a, b in zip(work[k], work[r])]
                content = _row_content(work[k])
                if content not in (0, 1):
                    inv = 1 / content
                    work[k] = [a * inv for a in work[k]]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        for idx, c in enumerate(pivots):
            inv = work[idx][c].inverse()
            work[idx] = [a * inv for a in work[idx]]
        # zero rows sink to the bottom in canonical order
        reduced = Matrix(self.rows, self.cols, work)
        return reduced, tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> "Matrix":
        """Rows span ker(self): one vector per free column, with 1 there and
        0 at the other free columns.  Not echelonized; `hodge.Subspace`
        makes a basis canonical."""
        reduced, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        rows = []
        for fc in free:
            vec = [ZERO] * self.cols
            vec[fc] = ONE
            for i, pc in enumerate(pivots):
                coeff = reduced.data[i][fc]
                if coeff:
                    vec[pc] = -coeff
            rows.append(vec)
        return Matrix.from_rows(rows, self.cols)

    def drop_zero_rows(self) -> "Matrix":
        rows = [r for r in self.data if any(r)]
        return Matrix.from_rows(rows, self.cols)

    def solve_map(self) -> tuple["Matrix", "Matrix"]:
        """For a full-column-rank matrix M, return (R, K) with R (cols x rows)
        satisfying R @ b = x for every consistent system M x = b, and K whose
        rows test consistency (K @ b = 0 iff b lies in the column space)."""
        aug = self.stack_beside(Matrix.identity(self.rows))
        reduced, pivots = aug.rref()
        main_pivots = [c for c in pivots if c < self.cols]
        if len(main_pivots) != self.cols:
            raise ValueError("matrix does not have full column rank")
        sol_rows = [reduced.data[i][self.cols:] for i in range(self.cols)]
        residual_rows = [reduced.data[i][self.cols:]
                         for i in range(self.cols, len(pivots))]
        return (Matrix.from_rows(sol_rows, self.rows),
                Matrix.from_rows(residual_rows, self.rows))


def vec_is_zero(vec: Vector) -> bool:
    return all(not a for a in vec)
