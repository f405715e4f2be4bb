"""Exact coefficient arithmetic.

Two layers.  ``GaussianRational`` is an element (a + b*i)/d of Q(i), held
as three arbitrary-precision ints with d > 0 and gcd(a, b, d) = 1.  That
canonical form is the one number format of the package: a `linalg.Matrix`
row holds its entries the same way over one row denominator, so values and
rows convert with integer multiplications and a gcd, and `from_ints` makes
a value from any such triple.  Arithmetic, equality and hashing run on the
ints; `re` and `im` read the parts as Fractions, for text and the few cold
readers.  ``SymScalar`` extends Q(i) to Laurent polynomials in declared
function symbols (so metric factors like e^{-f} stay exactly invertible).
No floating point anywhere; every value is immutable.

A spec's declared symbols are a plain dict from name to ``FunctionSymbol``;
`SymScalar.conj` and `SymScalar.classify` only index it.  The checks on a
declaration (no name twice, an involutive conjugate pairing) belong to the
parser, `model.parse_spec`.

``collect`` sums the sparse key -> value maps of scalars, forms and real forms
(dropping zero sums) and ``join_terms`` writes their signed terms as text;
`exterior` and `model` use them too.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import KW_ONLY, dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:  # FunctionSymbol.derivative is a degree-1 exterior.Form
    from .exterior import Form


class NotInvertible(ArithmeticError):
    """The scalar has no exact inverse: division by zero in Q(i)."""


class NotConstantError(ValueError):
    """A symbolic scalar where a constant is needed (`constant_value`)."""


class RenderLimitError(ValueError):
    """A number has more digits than the interpreter converts to decimal
    text (`sys.get_int_max_str_digits`)."""


def decimal_text(value: int | Fraction) -> str:
    """str(value) for a number derived from a spec; RenderLimitError when
    the interpreter refuses to convert it to decimal."""
    try:
        return str(value)
    except ValueError:
        raise RenderLimitError(
            f"a number of more than {sys.get_int_max_str_digits()} digits "
            "is too long to print") from None


def collect(pairs: Iterable[tuple]) -> dict:
    """Sum (key, value) pairs by key; keys whose sum is zero are dropped."""
    sums: dict = {}
    for key, value in pairs:
        if key in sums:
            value = sums[key] + value
        if value:
            sums[key] = value
        else:
            sums.pop(key, None)
    return sums


def join_terms(parts: Iterable[str]) -> str:
    """Join rendered terms with ` + `, or with ` - ` before a term that starts
    with `-`; no terms read `0`."""
    out = []
    for part in parts:
        if not out:
            out.append(part)
        elif part.startswith("-"):
            out.append(" - " + part[1:])
        else:
            out.append(" + " + part)
    return "".join(out) or "0"


def scaled_name(coeff: str, name: str) -> str:
    """`coeff*name`, with a coefficient of `1` or `-1` left out."""
    if coeff == "1":
        return name
    if coeff == "-1":
        return "-" + name
    return f"{coeff}*{name}"


class Nonzeroness(enum.Enum):
    ZERO = "Zero"
    NONZERO_CONSTANT = "NonzeroConstant"
    NONZERO_DECLARED = "NonzeroDeclared"
    NONZERO_FORMAL = "NonzeroFormal"


class GaussianRational:
    """An exact element (a + b*i)/d of Q(i), held as the three ints a, b, d
    with d > 0 and gcd(a, b, d) = 1.

    That form is unique, so equality compares the ints, and it is the entry
    format of a `linalg.Matrix` row, so rows and values convert with no
    rational arithmetic.  Each operation normalizes its result with one gcd;
    `-` and `conj` need none.  `re` and `im` give the parts as Fractions.
    """

    __slots__ = ("a", "b", "d")

    def __new__(cls, re=0, im=0):
        if type(re) is int and type(im) is int:
            return _gr(re, im, 1)
        re, im = Fraction(re), Fraction(im)
        d = lcm(re.denominator, im.denominator)
        # over the lcm of two reduced denominators the parts share no factor
        return _gr(re.numerator * (d // re.denominator),
                   im.numerator * (d // im.denominator), d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        d1, d2 = self.d, other.d
        return from_ints(self.a * d2 + other.a * d1,
                         self.b * d2 + other.b * d1, d1 * d2)

    __radd__ = __add__

    def __mul__(self, other):
        other = _coerce(other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return from_ints(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2,
                         self.d * other.d)

    __rmul__ = __mul__

    def __neg__(self):
        return _gr(-self.a, -self.b, self.d)

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def inverse(self) -> "GaussianRational":
        # d / (a + b i) = d (a - b i) / (a^2 + b^2)
        a, b, d = self.a, self.b, self.d
        norm = a * a + b * b
        if not norm:
            raise NotInvertible("division by zero in Q(i)")
        return from_ints(d * a, -d * b, norm)

    def conj(self) -> "GaussianRational":
        return _gr(self.a, -self.b, self.d)

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return (self.a == other.a and self.b == other.b
                    and self.d == other.d)
        if isinstance(other, int):
            return not self.b and self.d == 1 and self.a == other
        if isinstance(other, Fraction):
            return (not self.b and self.d == other.denominator
                    and self.a == other.numerator)
        return NotImplemented

    def __hash__(self):
        # a real value hashes as the equal int or Fraction does
        if self.b:
            return hash((self.a, self.b, self.d))
        return hash(self.a if self.d == 1 else self.re)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def render(self) -> str:
        """Canonical text: `5/4`, `-i`, `1/2*i`, `(1/2-3/4*i)`."""
        if self.is_zero():
            return "0"
        re, im = self.re, self.im
        if not im:
            return decimal_text(re)
        if not re:
            return scaled_name(decimal_text(im), "i")
        text = scaled_name(decimal_text(abs(im)), "i")
        sign = "+" if im > 0 else "-"
        return f"({decimal_text(re)}{sign}{text})"


_new = object.__new__
_set_a = GaussianRational.a.__set__
_set_b = GaussianRational.b.__set__
_set_d = GaussianRational.d.__set__


def _gr(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d from ints already in canonical form."""
    x = _new(GaussianRational)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


def from_ints(a: int, b: int, d: int) -> GaussianRational:
    """The value (a + b*i)/d for any ints with d > 0."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            return _gr(a // g, b // g, d // g)
    return _gr(a, b, d)


def _coerce(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, int):
        return _gr(value, 0, 1)
    if isinstance(value, Fraction):
        return _gr(value.numerator, 0, value.denominator)
    raise TypeError(f"cannot coerce {type(value).__name__} into Q(i)")


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
_I_POWERS = (ONE, I, -ONE, -I)


def i_power(k: int) -> GaussianRational:
    """i**k for any integer k."""
    return _I_POWERS[k % 4]


@dataclass(slots=True)
class FunctionSymbol:
    """A formal function on the manifold.

    The conjugate is declared (a real symbol pairs with itself; conj_name
    None means real), the exterior derivative is either a declared degree-1
    form or opaque (None), and nonvanishing is a declaration, never a
    deduction.
    """

    name: str
    conj_name: str | None = None
    _: KW_ONLY
    nonzero: bool = False
    invertible: bool = False
    derivative: "Form | None" = None

    def __post_init__(self):
        if self.conj_name is None:
            self.conj_name = self.name

    @property
    def is_real(self) -> bool:
        return self.conj_name == self.name


# A Laurent monomial in function symbols: ((name, exponent), ...) with names
# strictly ascending and exponents nonzero.  () is the constant monomial.
Monomial = tuple[tuple[str, int], ...]

_CONST: Monomial = ()


def _mul_monomials(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    return tuple(sorted(collect(a + b).items()))


class SymScalar:
    """A finite Q(i)-linear combination of Laurent monomials in symbols.

    The zero scalar is the empty combination; zero coefficients are never
    stored, which makes equality a dictionary comparison.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, GaussianRational] | None = None):
        data: dict[Monomial, GaussianRational] = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff:
                    data[mono] = coeff
        object.__setattr__(self, "_terms", data)

    def __setattr__(self, name, value):
        raise AttributeError("SymScalar is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, value) -> "SymScalar":
        return cls({_CONST: _coerce(value)})

    @classmethod
    def symbol(cls, name: str, exponent: int = 1, coeff=1) -> "SymScalar":
        if exponent == 0:
            return cls.const(coeff)
        return cls({((name, exponent),): _coerce(coeff)})

    @classmethod
    def zero(cls) -> "SymScalar":
        return _SYM_ZERO

    @staticmethod
    def _of_const(value: GaussianRational) -> "SymScalar":
        """A nonzero canonical value stored unchecked, for callers that
        hold one: `hodge.rows_to_forms` and the DSL parser."""
        x = _new(SymScalar)
        _set_sym_terms(x, {_CONST: value})
        return x

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and _CONST in self._terms)

    def constant_value(self) -> GaussianRational:
        """The value of a constant; NotConstantError on a symbolic scalar."""
        terms = self._terms
        if not terms:
            return ZERO
        if len(terms) == 1:
            value = terms.get(_CONST)
            if value is not None:
                return value
        raise NotConstantError(f"{self.render()} is not a constant")

    def terms(self) -> list[tuple[Monomial, GaussianRational]]:
        return sorted(self._terms.items())

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = _coerce_sym(other)
        return SymScalar(collect(chain(self._terms.items(),
                                       other._terms.items())))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_coerce_sym(other))

    def __neg__(self):
        return SymScalar({m: -c for m, c in self._terms.items()})

    def __mul__(self, other):
        other = _coerce_sym(other)
        return SymScalar(collect((_mul_monomials(m1, m2), c1 * c2)
                                 for m1, c1 in self._terms.items()
                                 for m2, c2 in other._terms.items()))

    __rmul__ = __mul__

    # -- symbol-aware operations ---------------------------------------------

    def conj(self, symbols: dict[str, FunctionSymbol]) -> "SymScalar":
        pairs = []
        for mono, coeff in self._terms.items():
            swapped = tuple(sorted((symbols[name].conj_name, k)
                                   for name, k in mono))
            pairs.append((swapped, coeff.conj()))
        return SymScalar(collect(pairs))

    def classify(self, symbols: dict[str, FunctionSymbol]) -> Nonzeroness:
        if not self._terms:
            return Nonzeroness.ZERO
        if self.is_constant():
            return Nonzeroness.NONZERO_CONSTANT
        if len(self._terms) == 1:
            (mono, _), = self._terms.items()
            if all(symbols[name].nonzero for name, _ in mono):
                return Nonzeroness.NONZERO_DECLARED
        return Nonzeroness.NONZERO_FORMAL

    # -- equality / rendering -------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = _coerce_sym(other)
        if not isinstance(other, SymScalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        return f"SymScalar<{self.render()}>"

    def render(self) -> str:
        """Canonical text, e.g. `-1/4*i*F` or `1/2 + V3g*V3g_bar`."""
        return join_terms(_render_term(coeff, mono)
                          for mono, coeff in self.terms())


def _render_term(coeff: GaussianRational, mono: Monomial) -> str:
    syms = "*".join(name if k == 1 else f"{name}^{decimal_text(k)}"
                    for name, k in mono)
    if not syms:
        return coeff.render()
    return scaled_name(coeff.render(), syms)


def _coerce_sym(value) -> SymScalar:
    if isinstance(value, SymScalar):
        return value
    if isinstance(value, (int, Fraction, GaussianRational)):
        return SymScalar.const(value)
    raise TypeError(f"cannot coerce {type(value).__name__} into a scalar")


_set_sym_terms = SymScalar._terms.__set__
_SYM_ZERO = SymScalar()
