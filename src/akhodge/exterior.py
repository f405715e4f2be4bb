"""The bigraded exterior algebra over a (1,0)-coframe.

A basis monomial phi^I wedge phibar^J is stored as the pair (holo, anti) of
index bitmasks of I and J: bit j for each index j.  Every sign in the engine
derives from one ordering convention (holomorphic factors first, each block
ascending), and every wedge of monomials is signed by one rule, the popcount
parities of `_wedge_hits`: `Form.wedge`, and the d and L of `operators`, all
sign through it.  `basis_index` is the one position map of the basis_of
order, the row and column order of every operator matrix.  `Form.terms()`
and text list monomials by (I, J) as ascending index tuples; `Form.items()`
lists them unsorted.  Bidegrees are plain (p, q) tuples.

The module also carries the real-coframe substitution used by
complexification: phi^j = e^{a_j} + i e^{b_j} for a declared pairing of
real indices, with real monomials stored as ascending index tuples.

Sums of forms and wedges and their signed-term text come from the one
`scalars` helper: `collect` and `join_terms`.

A form's coefficients are nonzero SymScalars of canonical values: `Form(...)`
coerces and tests each one, and the private `Form._of(terms)` stores terms
already so, unchecked.  Only `components` and `project` (terms of a checked
form), `sum`, `+` and the DSL parser (through `collect`, which drops zero
sums), unary `-`, `*` by a nonzero scalar (scalars have no zero divisors)
and `hodge.rows_to_forms` call it.
"""

from __future__ import annotations

import functools
from itertools import chain, combinations
from math import comb
from operator import xor
from typing import Iterable, Mapping

from .scalars import (FunctionSymbol, GaussianRational, SymScalar, _coerce_sym,
                      collect, join_terms, scaled_name)

Bidegree = tuple[int, int]
IndexTuple = tuple[int, ...]


def _mask(indices) -> int:
    return sum(1 << j for j in indices)


@functools.cache
def _bits(mask: int) -> IndexTuple:
    return tuple(j for j in range(mask.bit_length()) if mask >> j & 1)


@functools.cache
def _below(mask: int) -> int:
    """XOR of 2^j - 1 over the bits j of mask: popcount(other & _below(mask))
    is, mod 2, the number of pairs i < j with i in other and j in mask."""
    return functools.reduce(xor, [(1 << j) - 1 for j in _bits(mask)], 0)


class BasisMonomial(tuple):
    """phi^I wedge phibar^J as the pair (holo mask, anti mask) of I and J."""

    __slots__ = ()

    def __new__(cls, holo: Iterable[int], anti: Iterable[int]):
        """From the strictly ascending index tuples I and J."""
        holo = tuple(holo)
        anti = tuple(anti)
        if any(holo[i] >= holo[i + 1] for i in range(len(holo) - 1)):
            raise ValueError(f"holomorphic indices not ascending: {holo}")
        if any(anti[i] >= anti[i + 1] for i in range(len(anti) - 1)):
            raise ValueError(f"antiholomorphic indices not ascending: {anti}")
        return tuple.__new__(cls, (_mask(holo), _mask(anti)))

    @classmethod
    def of_masks(cls, holo: int, anti: int) -> "BasisMonomial":
        return tuple.__new__(cls, (holo, anti))

    @property
    def holo(self) -> IndexTuple:
        return _bits(self[0])

    @property
    def anti(self) -> IndexTuple:
        return _bits(self[1])

    @property
    def bidegree(self) -> Bidegree:
        return (self[0].bit_count(), self[1].bit_count())

    def render(self) -> str:
        return "phi{%s,%s}" % ("".join(map(str, self.holo)),
                               "".join(map(str, self.anti)))

    def __repr__(self):
        return self.render()


SCALAR_MONOMIAL = BasisMonomial.of_masks(0, 0)


def _wedge_terms(pairs) -> list[tuple]:
    """The left factors of `_wedge_hits`: (holo, anti, _below of both, anti
    degree, value) of each (monomial, value) pair."""
    return [(holo, anti, _below(holo), _below(anti), anti.bit_count(), value)
            for (holo, anti), value in pairs]


def _wedge_hits(terms, holo: int, anti: int, odd: int, out: list) -> list:
    """Append (target holo mask, target anti mask, value, sign parity + odd)
    of t ^ m for each term t of `_wedge_terms` that m = (holo, anti) does
    not annihilate.  The parity counts the swaps that sort t ^ m: within each
    block the pairs of an index of m below one of t, and m's holomorphic
    factors crossing t's antiholomorphic ones."""
    crossed = holo.bit_count()
    for t_holo, t_anti, below_holo, below_anti, t_deg, value in terms:
        if not (t_holo & holo or t_anti & anti):
            out.append((t_holo | holo, t_anti | anti, value,
                        ((holo & below_holo).bit_count()
                         + (anti & below_anti).bit_count()
                         + t_deg * crossed + odd) & 1))
    return out


def _index_order(term) -> tuple[IndexTuple, IndexTuple]:
    """Sort key of a (monomial, value) pair: (I, J) as index tuples."""
    holo, anti = term[0]
    return _bits(holo), _bits(anti)


class Form:
    """A finite combination of basis monomials with SymScalar coefficients.

    Mixed-bidegree combinations are allowed (d produces them); most public
    operators consume and return pure bidegrees.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[BasisMonomial, SymScalar] | None = None):
        data: dict[BasisMonomial, SymScalar] = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = _coerce_sym(coeff)
                if coeff:
                    data[mono] = coeff
        object.__setattr__(self, "_terms", data)

    def __setattr__(self, name, value):
        raise AttributeError("Form is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls) -> "Form":
        return _FORM_ZERO

    @staticmethod
    def _of(terms: dict[BasisMonomial, SymScalar]) -> "Form":
        """The form of `terms`, unchecked (see the module docstring)."""
        form = _new(Form)
        _set_terms(form, terms)
        return form

    @staticmethod
    def sum(forms: Iterable["Form"]) -> "Form":
        """The sum of forms, collected once; zero forms are skipped, and a
        single nonzero form is returned as it is."""
        nonzero = [form for form in forms if form]
        if len(nonzero) > 1:
            return Form._of(collect(chain.from_iterable(
                form._terms.items() for form in nonzero)))
        return nonzero[0] if nonzero else _FORM_ZERO

    @classmethod
    def monomial(cls, mono: BasisMonomial, coeff=1) -> "Form":
        return cls({mono: _coerce_sym(coeff)})

    @classmethod
    def generator(cls, j: int) -> "Form":
        return cls.monomial(BasisMonomial((j,), ()))

    @classmethod
    def conj_generator(cls, j: int) -> "Form":
        return cls.monomial(BasisMonomial((), (j,)))

    # -- queries --------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def terms(self) -> list[tuple[BasisMonomial, SymScalar]]:
        """The (monomial, coefficient) pairs by (I, J) as index tuples, for
        callers whose result depends on which term comes first: text, and
        the opaque symbol that `ext_d` names."""
        return sorted(self._terms.items(), key=_index_order)

    def items(self) -> Iterable[tuple[BasisMonomial, SymScalar]]:
        """The (monomial, coefficient) pairs unsorted, for callers that only
        build dicts, sums or maxima of them."""
        return self._terms.items()

    def bidegrees(self) -> list[Bidegree]:
        return sorted({m.bidegree for m in self._terms})

    def pure_bidegree(self) -> Bidegree | None:
        """The common bidegree, or None if zero or mixed."""
        degs = self.bidegrees()
        return degs[0] if len(degs) == 1 else None

    def is_constant_coefficient(self) -> bool:
        return all(c.is_constant() for c in self._terms.values())

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        return Form._of(collect(chain(self._terms.items(),
                                      other._terms.items())))

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def __neg__(self) -> "Form":
        return Form._of({m: -c for m, c in self._terms.items()})

    def __mul__(self, scalar) -> "Form":
        scalar = _coerce_sym(scalar)
        if not scalar:
            return _FORM_ZERO
        # nonzero times nonzero is nonzero, as scalars have no zero divisors
        return Form._of({m: c * scalar for m, c in self._terms.items()})

    __rmul__ = __mul__

    def wedge(self, other: "Form") -> "Form":
        left = _wedge_terms(self._terms.items())
        products = []
        for (holo, anti), c2 in other._terms.items():
            for t_holo, t_anti, c1, odd in _wedge_hits(left, holo, anti, 0, []):
                products.append((BasisMonomial.of_masks(t_holo, t_anti),
                                 -(c1 * c2) if odd else c1 * c2))
        return Form(collect(products))

    def conj(self, symbols: dict[str, FunctionSymbol]) -> "Form":
        """Termwise, (I,J) -> (-1)^{pq} (J,I) with conjugate coefficients."""
        data: dict[BasisMonomial, SymScalar] = {}
        for (holo, anti), coeff in self._terms.items():
            new = coeff.conj(symbols)
            data[BasisMonomial.of_masks(anti, holo)] = (
                -new if holo.bit_count() * anti.bit_count() % 2 else new)
        return Form(data)

    def project(self, pq: Bidegree) -> "Form":
        return Form._of({m: c for m, c in self._terms.items()
                         if m.bidegree == pq})

    def components(self) -> dict[Bidegree, "Form"]:
        out: dict[Bidegree, dict] = {}
        for mono, coeff in self._terms.items():
            out.setdefault(mono.bidegree, {})[mono] = coeff
        return {pq: Form._of(terms) for pq, terms in sorted(out.items())}

    # -- equality / rendering ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self):
        return f"Form<{self.render()}>"

    def render(self) -> str:
        """Signed terms `coeff*phi{I,J}`; a coefficient of several terms is
        parenthesized, as in `(F + G)*phi{123,}`."""
        return join_terms(
            scaled_name(coeff.render() if len(coeff._terms) == 1
                        else f"({coeff.render()})", mono.render())
            for mono, coeff in self.terms())


_new = object.__new__
_set_terms = Form._terms.__set__
_FORM_ZERO = Form()


def basis_of(pq: Bidegree, n: int) -> list[BasisMonomial]:
    """The ordered monomial basis of Lambda^{p,q}; this ordering is the
    global matrix row/column convention."""
    p, q = pq
    if not (0 <= p <= n and 0 <= q <= n):
        return []
    holos = [_mask(holo) for holo in combinations(range(1, n + 1), p)]
    antis = [_mask(anti) for anti in combinations(range(1, n + 1), q)]
    return [BasisMonomial.of_masks(holo, anti)
            for holo in holos for anti in antis]


@functools.cache
def basis_index(pq: Bidegree, n: int) -> dict[BasisMonomial, int]:
    """{monomial: position} over basis_of(pq, n), in order; a plain mask
    pair (holo, anti) finds its position too."""
    return {m: i for i, m in enumerate(basis_of(pq, n))}


def bidegree_dim(pq: Bidegree, n: int) -> int:
    p, q = pq
    if not (0 <= p <= n and 0 <= q <= n):
        return 0
    return comb(n, p) * comb(n, q)


def bidegrees_of_degree(k: int, n: int) -> list[Bidegree]:
    """All valid (p, q) with p + q = k, p ascending."""
    return [(p, k - p) for p in range(max(0, k - n), min(n, k) + 1)]


# --------------------------------------------------------------------------
# Real-coframe substitution.
#
# A pairing maps each complex index j to the pair (a_j, b_j) of real coframe
# indices with phi^j = e^{a_j} + i e^{b_j}.  Real forms are plain dicts from
# ascending real index tuples to SymScalar.

Pairing = tuple[tuple[int, int], ...]
RealForm = dict[IndexTuple, SymScalar]


def check_pairing(pairing: Pairing, n: int) -> None:
    flat = [idx for pair in pairing for idx in pair]
    if len(pairing) != n or sorted(flat) != list(range(1, 2 * n + 1)):
        raise ValueError(f"pairing {pairing} is not a perfect matching of "
                         f"{{1..{2 * n}}}")


_HALF = SymScalar.const(GaussianRational(1, 0) / 2)
_MINUS_HALF_I = SymScalar.const(GaussianRational(0, -1) / 2)


def real_to_complex(rform: Mapping[IndexTuple, SymScalar], pairing: Pairing) -> Form:
    """Substitute e^{a_j} = (phi^j + phibar^j)/2, e^{b_j} = -i(phi^j - phibar^j)/2."""
    role: dict[int, tuple[int, bool]] = {}
    for j, (a_idx, b_idx) in enumerate(pairing, start=1):
        role[a_idx] = (j, False)
        role[b_idx] = (j, True)
    terms = []
    for mono, coeff in rform.items():
        acc = Form({SCALAR_MONOMIAL: coeff})
        for idx in mono:
            j, is_imag = role[idx]
            if is_imag:
                factor = (Form.generator(j) - Form.conj_generator(j)) * _MINUS_HALF_I
            else:
                factor = (Form.generator(j) + Form.conj_generator(j)) * _HALF
            acc = acc.wedge(factor)
        terms.append(acc)
    return Form.sum(terms)

