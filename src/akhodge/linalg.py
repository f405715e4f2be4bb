"""Exact linear algebra over the Gaussian rationals.

`Matrix` stores dense rows of `GaussianRational`.  Elimination (`rref`, and
through it `nullspace` and `solve_map`) runs on sparse rows over Z[i]
instead: each row is scaled by the lcm of its denominators into a dict
col -> (re, im) of plain ints; updates are fraction-free cross-multiplications
over the pivot row's nonzero columns, after which the row is divided by the
integer gcd of its parts (the integer-preserving elimination of E. H.
Bareiss, Math. Comp. 22, 1968, with the gcd in place of his exact division);
only the final pass divides every pivot row by its pivot, giving the unique
reduced row echelon form.  Pivoting is deterministic: first nonzero entry in
column order, rows scanned top-down, so every echelon basis is canonical and
subspace equality is syntactic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import GaussianRational, ONE, ZERO

Vector = list[GaussianRational]
SparseRow = dict[int, tuple[int, int]]


def _gaussian_integer_row(row: Vector) -> SparseRow:
    """Nonzero entries of row, scaled by the lcm of their denominators and
    reduced by the integer gcd, as col -> (re, im) plain ints."""
    nonzero = [(j, entry) for j, entry in enumerate(row) if entry]
    den = 1
    for _, entry in nonzero:
        den = lcm(den, entry.re.denominator, entry.im.denominator)
    return _primitive({j: (entry.re.numerator * (den // entry.re.denominator),
                           entry.im.numerator * (den // entry.im.denominator))
                       for j, entry in nonzero})


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
        work = [_gaussian_integer_row(row) for row in self.data]
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
                # visits only the pivot row's nonzero columns
                fr, fi = row[c]
                if pi:
                    row = {j: (pr * a - pi * b, pr * b + pi * a)
                           for j, (a, b) in row.items()}
                elif pr != 1:
                    row = {j: (pr * a, pr * b) for j, (a, b) in row.items()}
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
        data = []
        for row, c in zip(work, pivots):
            # divide by the pivot p: x / p = x * conj(p) / |p|^2
            pr, pi = row[c]
            norm = pr * pr + pi * pi
            dense = [ZERO] * self.cols
            for j, (a, b) in row.items():
                dense[j] = GaussianRational(Fraction(a * pr + b * pi, norm),
                                            Fraction(b * pr - a * pi, norm))
            data.append(dense)
        # zero rows sink to the bottom in canonical order
        data.extend([ZERO] * self.cols for _ in range(self.rows - len(pivots)))
        return Matrix(self.rows, self.cols, data), tuple(pivots)

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
