from fractions import Fraction
from itertools import chain
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

from akhodge import hodge
from akhodge.exterior import (BasisMonomial, Form, basis_of,
                              bidegrees_of_degree)
from akhodge.scalars import GaussianRational, I, SymScalar, collect, from_ints

from oracles import (brute_wedge, checked_forms_to_rows,
                     checked_rows_to_forms, form_to_letters, from_dicts)

EMPTY = {}


def mono(h, a):
    return Form.monomial(BasisMonomial(tuple(h), tuple(a)))


def test_wedge_antisymmetry_on_generators():
    p1, p2 = Form.generator(1), Form.generator(2)
    assert p1.wedge(p2) == mono([1, 2], [])
    assert p2.wedge(p1) == -mono([1, 2], [])


def test_wedge_nilpotent():
    p1 = Form.generator(1)
    assert p1.wedge(p1).is_zero()


def test_omega_squared_n3():
    # DERIVED oracle: brute-force expansion of the 9-term square.  Under the
    # canonical monomial order phi{j,j} ^ phi{k,k} = -phi{jk,jk}, so the
    # result is (i/2)^2 * 2 * (-1) * (sum of the three cross terms).
    half_i = SymScalar.const(GaussianRational(0, Fraction(1, 2)))
    omega = (mono([1], [1]) + mono([2], [2]) + mono([3], [3])) * half_i
    expected_coeff = SymScalar.const(Fraction(1, 2))
    expected = (mono([1, 2], [1, 2]) + mono([1, 3], [1, 3])
                + mono([2, 3], [2, 3])) * expected_coeff
    assert omega.wedge(omega) == expected
    # cross-check against the independent letter-based wedge
    lhs = form_to_letters(omega.wedge(omega), 3)
    rhs = brute_wedge(form_to_letters(omega, 3), form_to_letters(omega, 3))
    assert lhs == rhs


def test_project_bidegree():
    f = mono([1, 2], []) + mono([1], [2])
    assert f.project((1, 1)) == mono([1], [2])
    assert f.project((2, 0)) == mono([1, 2], [])
    assert f.project((0, 2)).is_zero()
    assert Form.zero().project((1, 1)).is_zero()


def test_projection_reconstructs():
    f = mono([1, 2], []) + mono([1], [2]) + mono([], [1, 2]) * 3
    total = Form.zero()
    for pq in bidegrees_of_degree(2, 3):
        total = total + f.project(pq)
    assert total == f


def test_basis_of_counts_and_order():
    b = basis_of((1, 1), 3)
    assert len(b) == 9
    assert b[0] == BasisMonomial((1,), (1,))
    assert b[-1] == BasisMonomial((3,), (3,))
    assert len(basis_of((2, 1), 3)) == 9
    assert len(basis_of((1, 1), 4)) == 16


def test_dimension_identity():
    for n in (2, 3, 4):
        for k in range(0, 2 * n + 1):
            total = sum(comb(n, p) * comb(n, q)
                        for p, q in bidegrees_of_degree(k, n))
            assert total == comb(2 * n, k)


def test_conj_involution_pins_sign():
    f = mono([1], [2])
    g = f.conj(EMPTY)
    assert g == -mono([2], [1])
    assert g.conj(EMPTY) == f


def test_conj_of_scaled_monomial_and_omega():
    half_i = SymScalar.const(GaussianRational(0, Fraction(1, 2)))
    omega = (mono([1], [1]) + mono([2], [2]) + mono([3], [3])) * half_i
    assert omega.conj(EMPTY) == omega
    # conj(i * phi{1,1}) = -i * conj_form(phi{1,1}); the reordering sign makes
    # the diagonal (1,1) monomials i-times-real, which is why omega is real
    f = mono([1], [1]) * SymScalar.const(I)
    assert f.conj(EMPTY) == mono([1], [1]).conj(EMPTY) * SymScalar.const(-I)
    assert f.conj(EMPTY) == f
    assert Form.zero().conj(EMPTY).is_zero()


@st.composite
def small_forms(draw, n=3):
    terms = {}
    monos = [m for pq in [(p, q) for p in range(n + 1) for q in range(n + 1)]
             for m in basis_of(pq, n)]
    for _ in range(draw(st.integers(0, 3))):
        m = draw(st.sampled_from(monos))
        terms[m] = SymScalar.const(GaussianRational(
            draw(st.fractions(min_value=-3, max_value=3, max_denominator=4)),
            draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))))
    return Form(terms)


@given(small_forms(), small_forms())
@settings(max_examples=150)
def test_conj_distributes_over_wedge(a, b):
    assert a.conj(EMPTY).conj(EMPTY) == a
    assert a.wedge(b).conj(EMPTY) == a.conj(EMPTY).wedge(b.conj(EMPTY))


@given(small_forms(), small_forms())
@settings(max_examples=150)
def test_wedge_graded_commutative_on_pure_degrees(a, b):
    for pa, comp_a in a.components().items():
        for pb, comp_b in b.components().items():
            ka, kb = sum(pa), sum(pb)
            lhs = comp_a.wedge(comp_b)
            rhs = comp_b.wedge(comp_a)
            expect = rhs if (ka * kb) % 2 == 0 else -rhs
            assert lhs == expect


@st.composite
def subset_forms(draw, n):
    """Up to 3 terms phi^I wedge phibar^J, I and J drawn directly as subsets
    of 1..n (basis_of over every bidegree is 4^n monomials), of at most 4
    indices so that products often survive."""
    subsets = st.frozensets(st.integers(1, n), max_size=4).map(sorted)
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        terms[BasisMonomial(draw(subsets), draw(subsets))] = SymScalar.const(
            GaussianRational(draw(st.integers(-3, 3)),
                             draw(st.integers(-3, 3))))
    return Form(terms)


def check_wedge_against_brute_force(a, b, n):
    lhs = form_to_letters(a.wedge(b), n)
    rhs = brute_wedge(form_to_letters(a, n), form_to_letters(b, n))
    assert lhs == rhs
    for value in (a + b, a - b, a.wedge(b)):
        assert all(not coeff.is_zero() for _, coeff in value.terms())
    assert a - a == Form.zero()
    assert a.wedge(b) - a.wedge(b) == Form.zero()


@given(small_forms(), small_forms())
@settings(max_examples=100)
def test_wedge_matches_brute_force(a, b):
    check_wedge_against_brute_force(a, b, 3)


@given(subset_forms(9), subset_forms(9))
@settings(max_examples=100, deadline=None)
def test_wedge_matches_brute_force_up_to_index_9(a, b):
    check_wedge_against_brute_force(a, b, 9)


def test_terms_list_in_basis_order():
    # terms() orders by (I, J) as index tuples, whatever the insertion order
    for pq in [(p, q) for p in range(5) for q in range(5)]:
        basis = basis_of(pq, 4)
        f = Form({m: SymScalar.const(1) for m in reversed(basis)})
        assert [m for m, _ in f.terms()] == basis
    f = mono([2], []) + mono([1, 2], []) + mono([1], [2, 3]) + mono([], [1])
    assert f.render() == "phi{,1} + phi{1,23} + phi{12,} + phi{2,}"


def test_form_sum_collects_once_and_passes_a_single_form_through():
    a = mono([1], []) + mono([2], [1])
    b = mono([1], []) * -1
    assert Form.sum([]) == Form.zero()
    assert Form.sum([Form.zero(), a, Form.zero()]) is a
    assert Form.sum([a, b]) == mono([2], [1])
    assert Form.sum([a, -a]).is_zero()
    assert Form.sum(iter([a, b, a])) == a + b + a


def test_monomial_rendering():
    assert BasisMonomial((1, 3), (2,)).render() == "phi{13,2}"
    assert BasisMonomial((), ()).render() == "phi{,}"


def test_monomial_rejects_unsorted():
    with pytest.raises(ValueError):
        BasisMonomial((3, 1), ())
    with pytest.raises(ValueError):
        BasisMonomial((), (2, 2))


def test_wedge_monomials_sign_convention():
    assert mono([2], [3]).wedge(mono([3], [1])) == mono([2, 3], [1, 3])
    assert mono([1], []).wedge(mono([1], [])).is_zero()


# -- the unchecked constructors against the checked ones ----------------------
#
# `Form._of` and `SymScalar._of_const` store their terms as given.  Every form
# they return must keep the invariant that `Form(...)` enforces, and equal the
# same form built through the checked constructors.

def assert_canonical(form):
    """No zero coefficient; each a SymScalar of canonical Q(i) values."""
    for _, coeff in form.items():
        assert type(coeff) is SymScalar and coeff
        for _, x in coeff.terms():
            assert type(x) is GaussianRational and x
            assert x.d > 0 and gcd(x.a, x.b, x.d) == 1


_parts = st.one_of(st.integers(-9, 9), st.integers(-10 ** 60, 10 ** 60))
_dens = st.one_of(st.integers(1, 12), st.integers(1, 10 ** 60))
# mixed denominators, non-real values, 60-digit parts, and zero
_values = st.builds(from_ints, _parts, _parts, _dens)


@st.composite
def stored_rows(draw):
    """(n, pq, matrix) with up to 4 sparse rows over basis_of(pq, n)."""
    n = draw(st.integers(2, 4))
    pq = (draw(st.integers(0, n)), draw(st.integers(0, n)))
    dim = len(basis_of(pq, n))
    rows = draw(st.lists(st.dictionaries(st.integers(0, dim - 1), _values,
                                         max_size=6), max_size=4))
    return n, pq, from_dicts(rows, dim)


@given(stored_rows())
@settings(max_examples=150, deadline=None)
def test_rows_to_forms_equals_the_checked_conversion(case):
    n, pq, rows = case
    forms = hodge.rows_to_forms(rows, pq, n)
    assert forms == checked_rows_to_forms(rows, pq, n)
    for form in forms:
        assert_canonical(form)
    assert hodge.forms_to_rows(forms, pq, n) == rows


@st.composite
def constant_forms(draw):
    """(n, pq, forms): up to 3 constant (p,q)-forms through `Form(...)`,
    from ints, Fractions and values; with `stray`, one more form holds a
    monomial of another bidegree or a symbolic coefficient."""
    n = draw(st.integers(2, 4))
    pq = (draw(st.integers(0, n)), draw(st.integers(0, n)))
    monos = basis_of(pq, n)
    coeffs = st.one_of(st.integers(-3, 3), st.fractions(max_denominator=9),
                       _values)
    forms = [Form({draw(st.sampled_from(monos)): draw(coeffs)
                   for _ in range(draw(st.integers(0, 4)))})
             for _ in range(draw(st.integers(0, 3)))]
    stray = draw(st.sampled_from([None, "bidegree", "symbol"]))
    if stray == "bidegree":
        other = (pq[0], (pq[1] + 1) % (n + 1))
        forms.append(Form({draw(st.sampled_from(basis_of(other, n))): 1}))
    elif stray == "symbol":
        forms.append(Form({draw(st.sampled_from(monos)):
                           SymScalar.symbol("F", draw(st.integers(-2, 2)))}))
    return n, pq, forms


@given(constant_forms())
@settings(max_examples=100, deadline=None)
def test_forms_to_rows_equals_the_checked_conversion(case):
    n, pq, forms = case
    try:
        expected = checked_forms_to_rows(forms, pq, n)
    except ValueError as exc:  # AmbientMismatchError is a ValueError
        with pytest.raises(type(exc)):
            hodge.forms_to_rows(forms, pq, n)
        return
    rows = hodge.forms_to_rows(forms, pq, n)
    assert rows == expected
    assert hodge.rows_to_forms(rows, pq, n) == forms


_sym_coeffs = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), I])


@st.composite
def symbolic_forms(draw, n=2):
    """Up to 4 terms of any bidegree, each coefficient c + f*F + g*G^-1 with
    small c, f, g, so that sums often cancel."""
    monos = [m for p in range(n + 1) for q in range(n + 1)
             for m in basis_of((p, q), n)]
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        terms[draw(st.sampled_from(monos))] = (
            SymScalar.const(draw(_sym_coeffs))
            + SymScalar.symbol("F", 1, draw(_sym_coeffs))
            + SymScalar.symbol("G", -1, draw(_sym_coeffs)))
    return Form(terms)


@given(symbolic_forms(), symbolic_forms(), symbolic_forms())
@settings(max_examples=100, deadline=None)
def test_form_operations_equal_their_checked_rebuild(a, b, c):
    components = a.components()
    assert components == {pq: Form({m: x for m, x in a.items()
                                    if m.bidegree == pq})
                          for pq in a.bidegrees()}
    pairs = [(a + b, Form(collect(chain(a.items(), b.items())))),
             (-a, Form({m: -x for m, x in a.items()})),
             (a - a, Form.zero()),
             (Form.sum([a, b, c, -a]),
              Form(collect(chain(b.items(), c.items()))))]
    for pq in a.bidegrees() + [(3, 0)]:
        pairs.append((a.project(pq), Form({m: x for m, x in a.items()
                                           if m.bidegree == pq})))
    pairs += [(form, Form(dict(form.items())))
              for form in components.values()]
    for got, want in pairs:
        assert_canonical(got)
        assert got == want == Form(dict(got.items()))


def test_form_constructor_checks_each_coefficient():
    m = BasisMonomial((1,), (2,))
    assert Form({m: 0}).is_zero()
    (mono2, two), = Form({m: 2}).items()
    assert mono2 == m and type(two) is SymScalar
    assert two == SymScalar.const(2)
    for bad in ("2", 2.0, None):
        with pytest.raises(TypeError):
            Form({m: bad})
