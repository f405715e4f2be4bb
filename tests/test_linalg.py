import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from akhodge import catalog, hodge, linalg, model
from akhodge.linalg import Matrix
from akhodge.scalars import GaussianRational, ONE, ZERO

from oracles import dense, from_dicts, gr_to_sympy, matrix_to_sympy


def random_matrix(rng, rows, cols, rank_deficient=False):
    data = [[GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                              Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
             for _ in range(cols)] for _ in range(rows)]
    if rank_deficient and rows >= 2:
        # duplicate a row combination to force nontrivial kernels
        data[rows - 1] = [a + b for a, b in zip(data[0], data[1 % rows])]
    return dense(data, cols)


def test_rref_matches_sympy_on_random_matrices():
    rng = random.Random(7)
    for trial in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        M = random_matrix(rng, rows, cols, rank_deficient=trial % 2 == 0)
        reduced, pivots = M.rref()
        sy = matrix_to_sympy(M)
        sy_rref, sy_pivots = sy.rref()
        assert tuple(sy_pivots) == pivots
        assert matrix_to_sympy(reduced) == sy_rref


def test_nullspace_matches_sympy_rank():
    rng = random.Random(11)
    for trial in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        M = random_matrix(rng, rows, cols, rank_deficient=True)
        null = M.nullspace()
        sy = matrix_to_sympy(M)
        assert null.rows == cols - sy.rank()
        assert M.apply(null).is_zero()


def test_rref_idempotent_and_canonical():
    rng = random.Random(3)
    for _ in range(20):
        M = random_matrix(rng, 4, 5)
        reduced, _ = M.rref()
        again, _ = reduced.rref()
        assert again == reduced
        # row-space invariance under row shuffles
        perm = list(range(M.rows))
        rng.shuffle(perm)
        shuffled = dense([M.data[i] for i in perm], M.cols)
        assert shuffled.rref()[0] == reduced


def test_solve_map_solves_consistent_systems():
    rng = random.Random(19)
    for _ in range(25):
        cols = rng.randint(1, 4)
        rows = cols + rng.randint(0, 3)
        while True:
            M = random_matrix(rng, rows, cols)
            if len(M.rref()[1]) == cols:
                break
        solver, residual = M.solve_map()
        x = dense([[GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
                    for _ in range(cols)]], cols)
        b = M.apply(x)
        assert residual.apply(b).is_zero()
        assert solver.apply(b) == x
        # inconsistent right-hand sides are detected whenever rows > cols
        if rows > cols:
            bad = b.data[0]
            found = False
            for i in range(rows):
                candidate = list(bad)
                candidate[i] = candidate[i] + ONE
                if not residual.apply(
                        dense([candidate], rows)).is_zero():
                    found = True
                    break
            assert found


def test_zero_dimensional_shapes():
    a = Matrix.zeros(0, 3)
    b = Matrix.zeros(3, 0)
    assert (b * a).rows == 3 and (b * a).cols == 3
    assert (b * a).is_zero()
    assert a.nullspace().rows == 3  # kernel of the empty map is everything
    assert Matrix.zeros(0, 0).rref()[0].rows == 0


def test_conj_transpose():
    M = dense([[GaussianRational(1, 2), GaussianRational(0, -1)]])
    H = M.conj_transpose()
    assert H.rows == 2 and H.cols == 1
    assert H.data[0][0] == GaussianRational(1, -2)
    assert H.data[1][0] == GaussianRational(0, 1)


def assert_rref_matches_sympy(M):
    reduced, pivots = M.rref()
    sy_rref, sy_pivots = matrix_to_sympy(M).rref()
    assert pivots == tuple(sy_pivots)
    assert (reduced.rows, reduced.cols) == (M.rows, M.cols)
    assert matrix_to_sympy(reduced) == sy_rref


def sparse_matrix(rng, rows, cols, density=0.1):
    def entry():
        if rng.random() >= density:
            return ZERO
        return GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 6)),
                                Fraction(rng.randint(-5, 5), rng.randint(1, 6)))
    return dense([[entry() for _ in range(cols)] for _ in range(rows)], cols)


def test_rref_matches_sympy_on_sparse_matrices():
    rng = random.Random(23)
    for _ in range(30):
        rows, cols = rng.randint(1, 12), rng.randint(1, 16)
        assert_rref_matches_sympy(sparse_matrix(rng, rows, cols))


@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0), (3, 5), (5, 3)])
def test_rref_of_empty_and_zero_matrices(shape):
    rows, cols = shape
    M = Matrix.zeros(rows, cols)
    reduced, pivots = M.rref()
    assert pivots == ()
    assert reduced == M
    assert M.nullspace() == Matrix.identity(cols)


def test_rref_sinks_zero_rows_between_nonzero_rows():
    g = GaussianRational
    M = dense([[ZERO, ZERO, ZERO],
               [ZERO, g(0, 3), g(1)],
               [ZERO, ZERO, ZERO],
               [g(2), ZERO, g(0, -1)]])
    assert_rref_matches_sympy(M)
    reduced, pivots = M.rref()
    assert pivots == (0, 1)
    assert all(not a for row in reduced.data[2:] for a in row)


def test_rref_with_imaginary_and_non_unit_gaussian_pivots():
    g = GaussianRational
    cases = [
        # purely imaginary pivots
        [[g(0, 3), g(1), g(0, 2)], [g(0, -1), g(0, 1), g(5)]],
        [[g(0, Fraction(1, 2)), g(0, 7)], [g(0, 2), g(0, 28)]],
        # 2+i, 1-2i, 3+4i: nonunits of Z[i] as pivots
        [[g(2, 1), g(1), g(0, 1)], [g(1, -2), g(3, 4), g(2)],
         [g(3, 4), g(0), g(1, 1)]],
        [[g(2, 1), g(5), g(2, -1)], [g(1, 2), g(0, 5), g(1, -2)]],
    ]
    for rows in cases:
        assert_rref_matches_sympy(dense(rows))


def test_rref_with_mixed_denominators():
    g = GaussianRational
    F = Fraction
    M = dense([
        [g(F(1, 2), F(1, 3)), g(F(2, 5)), g(0, F(-7, 4)), g(F(1, 6), F(5, 9))],
        [g(F(3, 7), F(-1, 8)), g(F(1, 9), F(1, 2)), g(F(5, 3)), g(0)],
        [g(F(1, 4), F(1, 6)), g(F(1, 5)), g(0, F(-7, 8)),
         g(F(1, 12), F(5, 18))],
    ])
    assert_rref_matches_sympy(M)
    assert len(M.rref()[1]) == 2


def test_solve_map_rejects_rank_deficient_matrices():
    g = GaussianRational
    deficient = [
        dense([[g(1), g(2)], [g(0, 1), g(0, 2)], [g(3), g(6)]]),
        Matrix.zeros(3, 2),
        dense([[g(1), g(0), g(1)]]),
    ]
    for M in deficient:
        with pytest.raises(ValueError, match="full column rank"):
            M.solve_map()


_parts = st.fractions(min_value=-4, max_value=4, max_denominator=5)
_entries = st.one_of(st.just(ZERO), st.just(ZERO),
                     st.builds(GaussianRational, _parts, _parts))


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    return dense([[draw(_entries) for _ in range(cols)]
                  for _ in range(rows)], cols)


_nonzero = st.builds(
    GaussianRational,
    st.one_of(_parts, st.integers(-10 ** 40, 10 ** 40)),
    st.one_of(_parts, st.fractions(max_denominator=10 ** 20))
).filter(bool)


@given(st.lists(st.dictionaries(st.integers(0, 9), _nonzero, max_size=6),
                max_size=5))
@settings(max_examples=100)
def test_from_dicts_entries_round_trip(rows):
    M = from_dicts(rows, 10)
    assert [M.entries(i) for i in range(M.rows)] == rows
    assert Matrix(M.rows, 10, M.sparse) == M


@given(matrices(), st.randoms(use_true_random=False),
       st.builds(GaussianRational, _parts, _parts), st.integers(0, 5))
@settings(max_examples=150, deadline=None)
def test_rref_is_a_canonical_form(M, rnd, factor, target):
    reduced, pivots = M.rref()
    assert reduced.rref() == (reduced, pivots)
    perm = list(range(M.rows))
    rnd.shuffle(perm)
    assert dense([M.data[i] for i in perm], M.cols).rref() == \
        (reduced, pivots)
    if M.rows and factor:
        scaled = [list(row) for row in M.data]
        k = target % M.rows
        scaled[k] = [a * factor for a in scaled[k]]
        assert dense(scaled, M.cols).rref() == (reduced, pivots)


def test_rref_equals_sympy_over_catalog(monkeypatch, cc_entries):
    """Every distinct elimination input of verify_all and of the delbar
    Hodge table, on fresh specs of the constant-coefficient catalog
    entries, reduces to sympy's rref (matrix and pivots)."""
    kernel = Matrix.rref
    inputs = {}

    def recorded(self):
        key = (self.rows, self.cols,
               tuple(tuple((a.re, a.im) for a in row) for row in self.data))
        inputs.setdefault(key, self)
        return kernel(self)

    monkeypatch.setattr(Matrix, "rref", recorded)
    for key in cc_entries:
        spec = model.parse_spec(catalog.dsl_source(key))
        hodge.verify_all(spec)
        hodge.hodge_table(spec, "delbar")
    monkeypatch.undo()
    assert len(inputs) > 400
    assert max(M.rows * M.cols for M in inputs.values()) > 3000
    for M in inputs.values():
        reduced, pivots = M.rref()
        sy_rref, sy_pivots = matrix_to_sympy(M).rref()
        assert pivots == tuple(sy_pivots)
        assert matrix_to_sympy(reduced) == sy_rref


# -- tall sparse elimination against sympy --------------------------------------

# Gaussian integers whose division sympy must do exactly: purely imaginary
# ones and non-units of Z[i]
HARD_PIVOTS = [GaussianRational(0, 1), GaussianRational(0, -3),
               GaussianRational(2, 1), GaussianRational(1, -2),
               GaussianRational(3, 4), GaussianRational(0, Fraction(2, 3))]


def tall_sparse_rows(rng, rows, cols):
    """Shuffled rows of a tall sparse matrix: more than half of them zero,
    the rest a few sparse source rows (each starting at a hard pivot), their
    duplicates, scaled copies, and two-row combinations whose entries
    cancel during elimination."""
    def value():
        return GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 6)),
                                Fraction(rng.randint(-5, 5), rng.randint(1, 6)))
    sources = []
    for _ in range(cols // 2):
        lead = rng.randrange(cols)
        row = {lead: rng.choice(HARD_PIVOTS)}
        for j in rng.sample(range(lead, cols), min(3, cols - lead)):
            row.setdefault(j, value())
        sources.append(row)

    def combination(*weights):
        out = {}
        for w, row in zip(weights, rng.sample(sources, len(weights))):
            for j, x in row.items():
                out[j] = out.get(j, ZERO) + w * x
        return {j: x for j, x in out.items() if x}
    out = [{} for _ in range(rows // 2 + 1)] + sources
    while len(out) < rows:
        kind = rng.randrange(3)
        if kind == 0:
            out.append(dict(rng.choice(sources)))
        elif kind == 1:
            out.append(combination(rng.choice(HARD_PIVOTS + [value()])))
        else:
            out.append(combination(value(), rng.choice(HARD_PIVOTS)))
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("shape", [(40, 12), (48, 16), (60, 20)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rref_matches_sympy_on_tall_sparse_matrices(shape, seed):
    rows, cols = shape
    rng = random.Random(seed * 100 + rows)
    M = from_dicts(tall_sparse_rows(rng, rows, cols), cols)
    assert sum(1 for _, row in M.sparse if not row) > rows // 2
    assert_rref_matches_sympy(M)


@pytest.mark.parametrize("order", ["top_down", "bottom_up"])
def test_rref_of_tall_band_matrices(order):
    """Row k holds columns k, k+1, k+2, led by a hard pivot.  Top-down, each
    new row's pivot k is held by the earlier basis rows, which get cleared;
    bottom-up, each new row's pivot lies left of every earlier pivot.  Zero
    rows and i-scaled copies fill the matrix to 40 rows."""
    g = GaussianRational
    cols = 12
    band = [{k: HARD_PIVOTS[k % len(HARD_PIVOTS)], k + 1: g(1, k),
             k + 2: g(Fraction(1, k + 2), -1)} for k in range(cols - 2)]
    if order == "bottom_up":
        band.reverse()
    rows = []
    for row in band:
        rows += [row, {}, {j: x * g(0, 1) for j, x in row.items()}, {}]
    M = from_dicts(rows, cols)
    assert M.rows == 40
    assert_rref_matches_sympy(M)
    assert M.rref()[1] == tuple(range(cols - 2))


def test_rref_matches_sympy_on_stacked_harmonic_equations(ladder):
    """A stacked over E for Delta_delbar at (2, 2) on the n = 5 ladder: 150
    x 100, 43 zero rows, rank 57."""
    A, E = hodge.harmonic_equations(ladder(5), "delbar", (2, 2))
    M = A.stack_below(E)
    assert (M.rows, M.cols) == (150, 100)
    assert_rref_matches_sympy(M)


# -- sparse storage against sympy ----------------------------------------------

def sparse_rows(rng, rows, cols, density=0.3):
    """Dense rows of a random sparse matrix with mixed denominators."""
    def entry():
        if rng.random() >= density:
            return ZERO
        return GaussianRational(Fraction(rng.randint(-6, 6), rng.randint(1, 12)),
                                Fraction(rng.randint(-6, 6), rng.randint(1, 12)))
    return [[entry() for _ in range(cols)] for _ in range(rows)]


def expanded(S):
    return S.applyfunc(sympy.expand)


SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2), (4, 4), (6, 7)]


@pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
def test_sparse_arithmetic_matches_sympy(density):
    rng = random.Random(int(density * 10) + 41)
    for rows, cols in SHAPES:
        for inner in (0, 1, 3):
            a_rows = sparse_rows(rng, rows, cols, density)
            if rows >= 2:
                a_rows[1] = [ZERO] * cols  # a zero left row of A * C
            A = dense(a_rows, cols)
            B = dense(sparse_rows(rng, rows, cols, density), cols)
            C = dense(sparse_rows(rng, cols, inner, density), inner)
            SA, SB, SC = (matrix_to_sympy(M) for M in (A, B, C))
            assert A.data == a_rows and len(A.data) == rows
            assert A.data[1:3] == a_rows[1:3]
            assert dense(list(A.data), cols) == A
            assert matrix_to_sympy(A * C) == expanded(SA * SC)
            assert matrix_to_sympy(A + B) == expanded(SA + SB)
            assert matrix_to_sympy(A - B) == expanded(SA - SB)
            assert matrix_to_sympy(A.scale(-1)) == -SA
            assert (A == B) == (SA == SB)
            assert A - A == Matrix.zeros(rows, cols) and (A - A).is_zero()
            assert (A + B).is_zero() == (expanded(SA + SB) == sympy.zeros(rows, cols))
            assert matrix_to_sympy(A.conj_transpose()) == SA.H
            # the scaled conjugate transpose, in one pass
            f = Fraction(rng.choice((-6, 2, 5, 9)), rng.choice((7, 11)))
            assert matrix_to_sympy(A.conj_transpose(f)) == \
                expanded(SA.H * sympy.Rational(f.numerator, f.denominator))
            assert A.conj_transpose(f) == A.conj_transpose().scale(f)
            assert A.conj_transpose(0) == Matrix.zeros(cols, rows)
            assert matrix_to_sympy(A.transpose()) == SA.T
            assert matrix_to_sympy(A.stack_below(B)) == SA.col_join(SB)
            factor = GaussianRational(Fraction(rng.randint(-3, 3), 7),
                                      Fraction(rng.randint(-3, 3), 5))
            assert matrix_to_sympy(A.scale(factor)) == \
                expanded(SA * gr_to_sympy(factor))
            assert A.scale(Fraction(0)) == Matrix.zeros(rows, cols)
            x = dense(sparse_rows(rng, 1, cols, 0.7), cols)
            assert matrix_to_sympy(A.apply(x)) == \
                expanded(SA * matrix_to_sympy(x).T).T
            if rows >= 2 and cols >= 2:
                assert matrix_to_sympy(A.row_slice(1, rows)) == SA[1:, :]
                assert matrix_to_sympy(A.columns(range(1, cols))) == \
                    SA[:, 1:]


def from_sympy(S) -> Matrix:
    """The engine matrix of a sympy matrix over Q(i)."""
    def value(x):
        re, im = (sympy.Rational(part) for part in x.as_real_imag())
        return GaussianRational(Fraction(re.p, re.q), Fraction(im.p, im.q))
    return dense([[value(S[i, j]) for j in range(S.cols)]
                  for i in range(S.rows)], S.cols)


@pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
def test_gram_sum_matches_sympy(density):
    # factor (F^H F + G G^H) equals sympy's as a Matrix, so its rows are
    # the canonical ones and not only equal in value
    rng = random.Random(int(density * 10) + 83)
    cases = 0
    for dim in (0, 1, 3, 6):
        for f_rows, g_cols in ((0, 0), (0, 4), (3, 0), (1, 1), (5, 2), (4, 7)):
            f_data = sparse_rows(rng, f_rows, dim, density)
            g_data = sparse_rows(rng, dim, g_cols, density)
            for data in (f_data, g_data):
                if len(data) >= 2:
                    data[1] = [ZERO] * len(data[1])
            F, G = dense(f_data, dim), dense(g_data, g_cols)
            factor = Fraction(rng.choice((1, 2, 3, 5)), rng.choice((1, 2, 7)))
            SF, SG = matrix_to_sympy(F), matrix_to_sympy(G)
            want = expanded((SF.H * SF + SG * SG.H)
                            * sympy.Rational(factor.numerator,
                                             factor.denominator))
            got = linalg.gram_sum(F, G, factor)
            assert (got.rows, got.cols) == (dim, dim)
            assert got == from_sympy(want), (dim, f_rows, g_cols)
            cases += 1
    assert cases == 24


@pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
def test_apply_matches_sympy(density):
    # row i of A.apply(X) is A times row i of X, so A.apply(X) = X A^T
    rng = random.Random(int(density * 10) + 59)
    for rows, cols in SHAPES:
        for count in (0, 1, 4):
            a_rows = sparse_rows(rng, rows, cols, density)
            if rows >= 2:
                a_rows[1] = [ZERO] * cols
            A = dense(a_rows, cols)
            x_rows = sparse_rows(rng, count, cols, 0.5)
            if count >= 2:
                x_rows[0] = [ZERO] * cols
            X = dense(x_rows, cols)
            image = A.apply(X)
            assert (image.rows, image.cols) == (count, rows)
            assert matrix_to_sympy(image) == \
                expanded(matrix_to_sympy(X) * matrix_to_sympy(A).T)
            assert image == X * A.transpose()


@pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
def test_nullspace_equals_sympy_basis(density):
    """Row k of the kernel basis is sympy's k-th nullspace vector: 1 at the
    k-th free column, 0 at the other free columns."""
    rng = random.Random(int(density * 10) + 71)
    for rows, cols in SHAPES + [(3, 6), (6, 9)]:
        for trial in range(3):
            a_rows = sparse_rows(rng, rows, cols, density)
            if trial and rows >= 2:
                a_rows[-1] = [x + y * GaussianRational(1, -2)
                              for x, y in zip(a_rows[0], a_rows[1])]
            A = dense(a_rows, cols)
            null = A.nullspace()
            basis = matrix_to_sympy(A).nullspace()
            assert (null.rows, null.cols) == (len(basis), cols)
            if basis:
                assert matrix_to_sympy(null) == \
                    expanded(sympy.Matrix.hstack(*basis).T)


def test_solve_map_matches_exact_solutions_with_mixed_denominators():
    rng = random.Random(73)
    checked = 0
    for rows, cols in [(1, 1), (3, 1), (3, 3), (5, 2), (6, 4), (8, 5)]:
        for _ in range(4):
            M = dense(sparse_rows(rng, rows, cols, 0.6), cols)
            if len(M.rref()[1]) < cols:
                continue
            solver, residual = M.solve_map()
            assert (solver.rows, solver.cols) == (cols, rows)
            assert residual.cols == rows
            assert residual.rows == len(residual.rref()[1]) == rows - cols
            assert (residual * M).is_zero()
            x = dense(sparse_rows(rng, 2, cols, 0.8), cols)
            assert solver.apply(M.apply(x)) == x
            checked += 1
    assert checked >= 12


def test_columns_matches_sympy():
    rng = random.Random(67)
    for rows, cols in SHAPES:
        A = dense(sparse_rows(rng, rows, cols, 0.5), cols)
        SA = matrix_to_sympy(A)
        for keep in (range(cols), range(1, cols), (),
                     [j for j in range(cols) if j % 2 == 0],
                     sorted(rng.sample(range(cols), cols // 2))):
            B = A.columns(keep)
            assert (B.rows, B.cols) == (rows, len(keep))
            assert matrix_to_sympy(B) == SA.extract(list(range(rows)),
                                                    list(keep))
            assert B == dense([[row[j] for j in keep] for row in A.data],
                              len(keep))


def test_all_zero_and_diagonal_matrices():
    g = GaussianRational
    Z = Matrix.zeros(3, 4)
    assert Z.is_zero() and Z.data == [[ZERO] * 4] * 3
    assert Z.transpose() == Matrix.zeros(4, 3)
    assert Z * Matrix.identity(4) == Z
    scaled = Matrix.identity(3).scale(g(1, 2))
    assert scaled.data == [[g(1, 2), ZERO, ZERO], [ZERO, g(1, 2), ZERO],
                           [ZERO, ZERO, g(1, 2)]]
    assert Matrix.identity(3).data == \
        [[ONE if i == j else ZERO for j in range(3)] for i in range(3)]


def test_dense_view_is_read_only():
    g = GaussianRational
    values = [[g(1), g(0, 2)], [ZERO, g(Fraction(1, 3))]]
    M = dense(values)
    rows = M.data
    rows[0][0] = g(5)
    rows[1] = [ZERO, ZERO]
    rows.append([ONE, ONE])
    assert M == dense(values)
    assert M.data == values


def test_constructors_reject_rows_longer_than_cols():
    with pytest.raises(ValueError):
        from_dicts([{2: GaussianRational(1)}], 2)


@st.composite
def chains(draw):
    """Three matrices with shapes a x b, b x c, c x d."""
    a, b, c, d = (draw(st.integers(0, 4)) for _ in range(4))

    def matrix(rows, cols):
        return dense([[draw(_entries) for _ in range(cols)]
                      for _ in range(rows)], cols)
    return matrix(a, b), matrix(b, c), matrix(c, d)


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_dense_view_round_trips(M):
    assert dense(list(M.data), M.cols) == M
    assert dense(M.data[:], M.cols) == M
    assert Matrix(M.rows, M.cols, list(M.sparse)) == M


@given(chains())
@settings(max_examples=150, deadline=None)
def test_products_are_associative(chain):
    A, B, C = chain
    assert (A * B) * C == A * (B * C)
