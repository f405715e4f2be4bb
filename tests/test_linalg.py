import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from akhodge import catalog, hodge, model
from akhodge.linalg import Matrix, vec_is_zero
from akhodge.scalars import GaussianRational, ONE, ZERO

from oracles import gr_to_sympy, matrix_to_sympy


def random_matrix(rng, rows, cols, rank_deficient=False):
    data = [[GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                              Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
             for _ in range(cols)] for _ in range(rows)]
    if rank_deficient and rows >= 2:
        # duplicate a row combination to force nontrivial kernels
        data[rows - 1] = [a + b for a, b in zip(data[0], data[1 % rows])]
    return Matrix(rows, cols, data)


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
        for row in null.data:
            assert vec_is_zero(M.apply(row))


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
        shuffled = Matrix.from_rows([M.data[i] for i in perm], M.cols)
        assert shuffled.rref()[0] == reduced


def test_solve_map_solves_consistent_systems():
    rng = random.Random(19)
    for _ in range(25):
        cols = rng.randint(1, 4)
        rows = cols + rng.randint(0, 3)
        while True:
            M = random_matrix(rng, rows, cols)
            if M.rank() == cols:
                break
        solver, residual = M.solve_map()
        x = [GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
             for _ in range(cols)]
        b = M.apply(x)
        assert vec_is_zero(residual.apply(b))
        assert solver.apply(b) == x
        # inconsistent right-hand sides are detected whenever rows > cols
        if rows > cols:
            bad = list(b)
            found = False
            for i in range(rows):
                candidate = list(bad)
                candidate[i] = candidate[i] + ONE
                if not vec_is_zero(residual.apply(candidate)):
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
    M = Matrix(1, 2, [[GaussianRational(1, 2), GaussianRational(0, -1)]])
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
    return Matrix(rows, cols, [[entry() for _ in range(cols)]
                               for _ in range(rows)])


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
    M = Matrix.from_rows([[ZERO, ZERO, ZERO],
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
        assert_rref_matches_sympy(Matrix.from_rows(rows))


def test_rref_with_mixed_denominators():
    g = GaussianRational
    F = Fraction
    M = Matrix.from_rows([
        [g(F(1, 2), F(1, 3)), g(F(2, 5)), g(0, F(-7, 4)), g(F(1, 6), F(5, 9))],
        [g(F(3, 7), F(-1, 8)), g(F(1, 9), F(1, 2)), g(F(5, 3)), g(0)],
        [g(F(1, 4), F(1, 6)), g(F(1, 5)), g(0, F(-7, 8)),
         g(F(1, 12), F(5, 18))],
    ])
    assert_rref_matches_sympy(M)
    assert M.rank() == 2


def test_solve_map_rejects_rank_deficient_matrices():
    g = GaussianRational
    deficient = [
        Matrix.from_rows([[g(1), g(2)], [g(0, 1), g(0, 2)], [g(3), g(6)]]),
        Matrix.zeros(3, 2),
        Matrix.from_rows([[g(1), g(0), g(1)]]),
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
    return Matrix(rows, cols, [[draw(_entries) for _ in range(cols)]
                               for _ in range(rows)])


@given(matrices(), st.randoms(use_true_random=False),
       st.builds(GaussianRational, _parts, _parts), st.integers(0, 5))
@settings(max_examples=150, deadline=None)
def test_rref_is_a_canonical_form(M, rnd, factor, target):
    reduced, pivots = M.rref()
    assert reduced.rref() == (reduced, pivots)
    perm = list(range(M.rows))
    rnd.shuffle(perm)
    assert Matrix.from_rows([M.data[i] for i in perm], M.cols).rref() == \
        (reduced, pivots)
    if M.rows and factor:
        scaled = [list(row) for row in M.data]
        k = target % M.rows
        scaled[k] = [a * factor for a in scaled[k]]
        assert Matrix(M.rows, M.cols, scaled).rref() == (reduced, pivots)


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
            A = Matrix.from_rows(a_rows, cols)
            B = Matrix.from_rows(sparse_rows(rng, rows, cols, density), cols)
            C = Matrix.from_rows(sparse_rows(rng, cols, inner, density), inner)
            SA, SB, SC = (matrix_to_sympy(M) for M in (A, B, C))
            assert A.data == a_rows and len(A.data) == rows
            assert A.data[1:3] == a_rows[1:3]
            assert Matrix.from_rows(list(A.data), cols) == A
            assert matrix_to_sympy(A * C) == expanded(SA * SC)
            assert matrix_to_sympy(A + B) == expanded(SA + SB)
            assert matrix_to_sympy(A - B) == expanded(SA - SB)
            assert matrix_to_sympy(-A) == -SA
            assert (A == B) == (SA == SB)
            assert A - A == Matrix.zeros(rows, cols) and (A - A).is_zero()
            assert (A + B).is_zero() == (expanded(SA + SB) == sympy.zeros(rows, cols))
            assert matrix_to_sympy(A.conj_transpose()) == SA.H
            assert matrix_to_sympy(A.transpose()) == SA.T
            assert matrix_to_sympy(A.stack_below(B)) == SA.col_join(SB)
            D = Matrix.from_rows(sparse_rows(rng, rows, inner, density), inner)
            assert matrix_to_sympy(A.stack_beside(D)) == \
                SA.row_join(matrix_to_sympy(D))
            factor = GaussianRational(Fraction(rng.randint(-3, 3), 7),
                                      Fraction(rng.randint(-3, 3), 5))
            assert matrix_to_sympy(A.scale(factor)) == \
                expanded(SA * gr_to_sympy(factor))
            assert A.scale(Fraction(0)) == Matrix.zeros(rows, cols)
            x = sparse_rows(rng, 1, cols, 0.7)[0]
            Sx = sympy.Matrix(cols, 1, [gr_to_sympy(a) for a in x])
            assert sympy.Matrix(rows, 1, [gr_to_sympy(a) for a in A.apply(x)]) \
                == expanded(SA * Sx)
            if rows >= 2 and cols >= 2:
                assert matrix_to_sympy(A.row_slice(1, rows)) == SA[1:, :]
                assert matrix_to_sympy(A.column_slice(1, cols)) == SA[:, 1:]


def test_all_zero_and_diagonal_matrices():
    g = GaussianRational
    Z = Matrix.zeros(3, 4)
    assert Z.is_zero() and Z.data == [[ZERO] * 4] * 3
    assert Z.transpose() == Matrix.zeros(4, 3)
    assert Z * Matrix.identity(4) == Z
    diag = Matrix.diagonal([g(1, 2), ZERO, g(Fraction(-1, 3))])
    assert diag.data == [[g(1, 2), ZERO, ZERO], [ZERO, ZERO, ZERO],
                         [ZERO, ZERO, g(Fraction(-1, 3))]]
    assert Matrix.identity(3).data == \
        [[ONE if i == j else ZERO for j in range(3)] for i in range(3)]


def test_dense_view_is_read_only():
    g = GaussianRational
    M = Matrix.from_rows([[g(1), g(0, 2)], [ZERO, g(Fraction(1, 3))]])
    with pytest.raises(TypeError):
        M.data[0] = [ZERO, ZERO]
    row = M.data[0]
    row[0] = g(5)
    assert M.data[0] == [g(1), g(0, 2)]
    assert M.row(1) == [ZERO, g(Fraction(1, 3))]


def test_constructors_reject_rows_longer_than_cols():
    g = GaussianRational
    with pytest.raises(ValueError):
        Matrix.from_rows([[g(1), g(2), g(3)]], 2)
    with pytest.raises(ValueError):
        Matrix.from_rows([[g(1), g(2)], [g(1), g(2), g(3)]])
    with pytest.raises(ValueError):
        Matrix(1, 2, [[g(1), g(2), g(3)]])
    with pytest.raises(ValueError):
        Matrix(2, 2, [[g(1), g(2)]])
    with pytest.raises(ValueError):
        Matrix.from_columns([[g(1), g(2), g(3)]], 2)
    with pytest.raises(ValueError):
        Matrix.from_dicts([{2: g(1)}], 2)


@st.composite
def chains(draw):
    """Three matrices with shapes a x b, b x c, c x d."""
    a, b, c, d = (draw(st.integers(0, 4)) for _ in range(4))

    def matrix(rows, cols):
        return Matrix.from_rows([[draw(_entries) for _ in range(cols)]
                                 for _ in range(rows)], cols)
    return matrix(a, b), matrix(b, c), matrix(c, d)


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_dense_view_round_trips(M):
    assert Matrix.from_rows(list(M.data), M.cols) == M
    assert Matrix(M.rows, M.cols, M.data[:]) == M


@given(chains())
@settings(max_examples=150, deadline=None)
def test_products_are_associative(chain):
    A, B, C = chain
    assert (A * B) * C == A * (B * C)
