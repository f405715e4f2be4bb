from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from akhodge.exterior import BasisMonomial, Form
from akhodge.model import parse_form
from akhodge.scalars import (FunctionSymbol, GaussianRational, I, Nonzeroness,
                             NotInvertible, SymScalar, from_ints)

from oracles import PairRational


def table_with(*symbols):
    t = {sym.name: sym for sym in symbols}
    assert all(t[sym.conj_name].conj_name == sym.name for sym in symbols)
    return t


T_EX42 = table_with(FunctionSymbol("F", nonzero=True),
                    FunctionSymbol("E", nonzero=True, invertible=True))
T_EFG = table_with(FunctionSymbol("E"), FunctionSymbol("F"),
                   FunctionSymbol("G"))
T_EX45 = table_with(FunctionSymbol("V3g", "V3g_bar", nonzero=True),
                    FunctionSymbol("V3g_bar", "V3g", nonzero=True))


def test_modulus_identity():
    a = SymScalar.const(GaussianRational(Fraction(1, 2), 1))
    b = SymScalar.const(GaussianRational(Fraction(1, 2), -1))
    assert a * b == SymScalar.const(Fraction(5, 4))


def test_zero_absorbs_symbols():
    F = SymScalar.symbol("F")
    assert F * SymScalar.zero() == SymScalar.zero()
    assert (F * 0).is_zero()


def test_additive_inverse_of_symbol():
    v = SymScalar.symbol("V3g")
    assert (v + (-v)).is_zero()


def test_conj_of_i():
    assert SymScalar.const(I).conj({}) == SymScalar.const(-I)


def test_conj_swaps_declared_pair():
    v = SymScalar.symbol("V3g")
    assert v.conj(T_EX45) == SymScalar.symbol("V3g_bar")


def test_conj_fixes_real_symbol():
    f = SymScalar.symbol("F")
    assert f.conj(T_EX42) == f


def test_nonzero_classification():
    assert SymScalar.zero().classify(T_EX42) is Nonzeroness.ZERO
    quarter_f = SymScalar.symbol("F", coeff=Fraction(1, 4))
    assert quarter_f.classify(T_EX42) is Nonzeroness.NONZERO_DECLARED
    two = SymScalar.const(2)
    assert two.classify(T_EX42) is Nonzeroness.NONZERO_CONSTANT
    formal = SymScalar.symbol("F") + SymScalar.symbol("E")
    assert formal.classify(T_EX42) is Nonzeroness.NONZERO_FORMAL


def test_zero_iff_canonical_empty():
    v = SymScalar.symbol("V3g") - SymScalar.symbol("V3g")
    assert v.classify(T_EX45) is Nonzeroness.ZERO
    assert v == SymScalar.zero()


def test_rendering():
    assert SymScalar.zero().render() == "0"
    c = SymScalar.symbol("F", coeff=GaussianRational(0, Fraction(-1, 4)))
    assert c.render() == "-1/4*i*F"
    assert SymScalar.const(Fraction(5, 4)).render() == "5/4"
    assert SymScalar.symbol("E", -1).render() == "E^-1"
    mixed = SymScalar.const(GaussianRational(Fraction(1, 2), Fraction(-3, 4)))
    assert mixed.render() == "(1/2-3/4*i)"
    # several terms: a negative first term, negative and +-1 later ones
    several = SymScalar({
        (): GaussianRational(Fraction(-1, 2)),
        (("E", -1),): GaussianRational(3),
        (("F", 1),): GaussianRational(-1),
        (("E", 1), ("F", 2)): GaussianRational(Fraction(1, 2), -1),
        (("E", 2),): GaussianRational(0, -1)})
    assert several.render() == "-1/2 + 3*E^-1 + (1/2-i)*E*F^2 - i*E^2 - F"
    form = Form({
        BasisMonomial((1,), ()): SymScalar.const(-1),
        BasisMonomial((2,), ()): SymScalar.const(1),
        BasisMonomial((1,), (2,)): SymScalar.const(GaussianRational(0, -2)),
        BasisMonomial((2,), (1,)): SymScalar.symbol("F", coeff=-1),
        BasisMonomial((), (1,)): SymScalar.const(
            GaussianRational(Fraction(-1, 3), Fraction(1, 4)))})
    assert form.render() == ("(-1/3+1/4*i)*phi{,1} - phi{1,} - 2*i*phi{1,2}"
                             " + phi{2,} - F*phi{2,1}")
    assert parse_form(form.render(), 3, T_EFG) == form
    first_negative = Form({BasisMonomial((1,), (1,)): several})
    assert parse_form(first_negative.render(), 3, T_EFG) == first_negative
    # a coefficient of several terms keeps its parentheses
    assert first_negative.render() == (
        "(-1/2 + 3*E^-1 + (1/2-i)*E*F^2 - i*E^2 - F)*phi{1,1}")
    f_plus_g = SymScalar.symbol("F") + SymScalar.symbol("G")
    sum_of_symbols = Form({BasisMonomial((1, 2, 3), ()): f_plus_g,
                           BasisMonomial((1,), ()): -f_plus_g})
    assert sum_of_symbols.render() == "(-F - G)*phi{1,} + (F + G)*phi{123,}"
    assert parse_form(sum_of_symbols.render(), 3, T_EFG) == sum_of_symbols


# -- property tests ----------------------------------------------------------

_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def gaussian_rationals(draw):
    return GaussianRational(draw(_rationals), draw(_rationals))


@st.composite
def scalars(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        mono = tuple(sorted({name: draw(st.integers(-2, 2))
                             for name in draw(st.sets(
                                 st.sampled_from(["F", "E"]),
                                 max_size=2))}.items()))
        mono = tuple((n, e) for n, e in mono if e)
        terms[mono] = draw(gaussian_rationals())
    return SymScalar(terms)


@st.composite
def forms(draw, n=3):
    """Up to 4 terms of any bidegrees with `scalars()` coefficients, so the
    text has Q(i) groups, groups of several symbolic terms that nest them,
    exponents from -2 to 2, and `0`."""
    indices = st.sets(st.integers(1, n)).map(sorted)
    monomials = st.builds(BasisMonomial, indices, indices)
    return Form(draw(st.dictionaries(monomials, scalars(), max_size=4)))


@given(forms())
@settings(max_examples=300)
def test_parse_form_reads_what_render_prints(form):
    assert parse_form(form.render(), 3, T_EFG) == form


def assert_no_zero_stored(*values):
    """Sums and products never store a zero coefficient."""
    for value in values:
        assert all(not coeff.is_zero() for _, coeff in value.terms())


@given(gaussian_rationals(), gaussian_rationals(), gaussian_rationals())
@settings(max_examples=200)
def test_field_axioms_on_constants(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    if not b.is_zero():
        assert (a / b) * b == a


# parts of the oracle comparison: zero, small, negative, reducible (the
# triple of 2/4 + 6/4*i is (1, 3, 2)) and 60-digit ones
_BIG = 10 ** 59
_parts = st.one_of(
    st.just(0),
    st.integers(-6, 6),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.builds(Fraction, st.integers(-7 * _BIG, 7 * _BIG),
              st.integers(1, 9 * _BIG)),
    st.integers(_BIG, 10 * _BIG - 1).map(lambda k: -k))


def assert_matches(value, reference):
    """value equals the oracle's, and its triple is canonical."""
    assert (value.re, value.im) == (reference.re, reference.im)
    assert value.d > 0 and gcd(value.a, value.b, value.d) == 1
    assert value.render() == reference.render()
    assert bool(value) is bool(reference)


@given(_parts, _parts, _parts, _parts)
@settings(max_examples=300)
def test_gaussian_rational_matches_fraction_pairs(a, b, c, e):
    x, y = GaussianRational(a, b), GaussianRational(c, e)
    rx, ry = PairRational(a, b), PairRational(c, e)
    assert_matches(x, rx)
    assert_matches(x + y, rx + ry)
    assert_matches(-x, -rx)
    assert_matches(x * y, rx * ry)
    assert_matches(x.conj(), rx.conj())
    for k in (c, e):  # an int or Fraction operand on either side
        assert_matches(x + k, rx + k)
        assert_matches(k + x, rx + k)
        assert_matches(k * x, rx * k)
    if ry:
        assert_matches(x / y, rx / ry)
        assert_matches(y.inverse(), ry.inverse())
    else:
        with pytest.raises(NotInvertible):
            x / y
    # equality with values of every kind, and hashes of equal values
    assert (x == y) is (rx == ry)
    assert (x == c) is (rx == c) and (x == a) is (rx == a)
    twin = from_ints(x.a * 6, x.b * 6, x.d * 6)
    assert twin == x and hash(twin) == hash(x)
    if not b:
        assert x == a and hash(x) == hash(a)


@given(st.integers(-10 ** 30, 10 ** 30), st.integers(-10 ** 30, 10 ** 30),
       st.integers(1, 10 ** 30))
def test_from_ints_is_canonical(a, b, d):
    x = from_ints(a, b, d)
    assert x == GaussianRational(Fraction(a, d), Fraction(b, d))
    assert x.d > 0 and gcd(x.a, x.b, x.d) == 1


@given(scalars(), scalars(), scalars())
@settings(max_examples=200)
def test_ring_axioms_on_symbolic_scalars(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a * SymScalar.const(1) == a
    assert (a + SymScalar.zero()) == a
    assert_no_zero_stored(a + b, a * b, (a + b) * c, a * b - b * a)
    assert a - a == SymScalar.zero()


@given(scalars(), scalars())
@settings(max_examples=200)
def test_conj_is_ring_involution(a, b):
    assert a.conj(T_EX42).conj(T_EX42) == a
    assert (a + b).conj(T_EX42) == a.conj(T_EX42) + b.conj(T_EX42)
    assert (a * b).conj(T_EX42) == a.conj(T_EX42) * b.conj(T_EX42)
    assert_no_zero_stored(a.conj(T_EX42), (a + b).conj(T_EX42),
                          (a * b).conj(T_EX42))
    assert a.conj(T_EX42) - a.conj(T_EX42) == SymScalar.zero()


@pytest.mark.parametrize("value, attribute", [
    (GaussianRational(1, 2), "re"),
    (SymScalar.symbol("F"), "_terms"),
    (Form.generator(1), "_terms"),
], ids=["GaussianRational", "SymScalar", "Form"])
def test_values_refuse_attribute_assignment(value, attribute):
    # cached operator data shares these values between callers
    before = value.render()
    for name in (attribute, "other"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(value, name, None)
    assert value.render() == before


def test_function_symbol_compares_by_fields_and_is_unhashable():
    f = FunctionSymbol("F", nonzero=True)
    assert f.conj_name == "F" and f.is_real
    assert f == FunctionSymbol("F", "F", nonzero=True)
    assert f != FunctionSymbol("F", nonzero=False)
    assert f != FunctionSymbol("F", "G", nonzero=True)
    with pytest.raises(TypeError):
        FunctionSymbol("F", "F", True)  # the flags are keyword-only
    with pytest.raises(TypeError):
        hash(f)
    f.derivative = Form.generator(1)  # the parser sets it after declaration
    assert f != FunctionSymbol("F", nonzero=True)
