"""Exact coefficient arithmetic.

Two layers: ``GaussianRational`` is an element of Q(i) with arbitrary-precision
rational real and imaginary parts, and ``SymScalar`` extends it to Laurent
polynomials in declared function symbols (so metric factors like e^{-f} stay
exactly invertible).  No floating point anywhere; every value is immutable.

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
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:  # FunctionSymbol.derivative is a degree-1 exterior.Form
    from .exterior import Form


class NotInvertible(ArithmeticError):
    """The scalar has no exact inverse: division by zero in Q(i)."""


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
    """An exact element a + b*i of Q(i).

    Fractions keep themselves reduced with positive denominator, so values
    are always in canonical form.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __mul__(self, other):
        other = _coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __truediv__(self, other):
        other = _coerce(other)
        return self * other.inverse()

    def inverse(self) -> "GaussianRational":
        norm = self.re * self.re + self.im * self.im
        if norm == 0:
            raise NotInvertible("division by zero in Q(i)")
        return GaussianRational(self.re / norm, -self.im / norm)

    def conj(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def render(self) -> str:
        """Canonical text: `5/4`, `-i`, `1/2*i`, `(1/2-3/4*i)`."""
        if self.is_zero():
            return "0"
        if not self.im:
            return decimal_text(self.re)
        if not self.re:
            return scaled_name(decimal_text(self.im), "i")
        im = scaled_name(decimal_text(abs(self.im)), "i")
        sign = "+" if self.im > 0 else "-"
        return f"({decimal_text(self.re)}{sign}{im})"


def _coerce(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
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

    @classmethod
    def one(cls) -> "SymScalar":
        return _SYM_ONE

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and _CONST in self._terms)

    def constant_value(self) -> GaussianRational:
        if not self._terms:
            return ZERO
        if not self.is_constant():
            raise ValueError(f"{self.render()} is not a constant")
        return self._terms[_CONST]

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


_SYM_ZERO = SymScalar()
_SYM_ONE = SymScalar({_CONST: ONE})
