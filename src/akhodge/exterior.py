"""The bigraded exterior algebra over a (1,0)-coframe.

A basis monomial phi^I wedge phibar^J is stored as the pair of strictly
ascending index tuples (I, J); every sign in the engine derives from this one
ordering convention (holomorphic factors first, each block ascending).
Bidegrees are plain (p, q) tuples.

The module also carries the real-coframe substitution used by
complexification: phi^j = e^{a_j} + i e^{b_j} for a declared pairing of
real indices, with real monomials stored as ascending index tuples.

Sums of forms and wedges and their signed-term text come from the one
`scalars` helper: `collect` and `join_terms`.
"""

from __future__ import annotations

from itertools import chain, combinations
from math import comb
from typing import Iterable, Mapping

from .scalars import (GaussianRational, SymbolTable, SymScalar, _coerce_sym,
                      collect, join_terms, scaled_name)

Bidegree = tuple[int, int]
IndexTuple = tuple[int, ...]


def merge_indices(a: IndexTuple, b: IndexTuple) -> tuple[int, IndexTuple] | None:
    """Merge two ascending tuples, returning (permutation sign, merged).

    None signals a repeated index (the wedge annihilates).
    """
    if not a:
        return 1, b
    if not b:
        return 1, a
    out = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining len(a)-i factors of a
            if (len(a) - i) % 2:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return sign, tuple(out)


class BasisMonomial(tuple):
    """phi^I wedge phibar^J, I and J strictly ascending."""

    __slots__ = ()

    def __new__(cls, holo: Iterable[int], anti: Iterable[int]):
        holo = tuple(holo)
        anti = tuple(anti)
        if any(holo[i] >= holo[i + 1] for i in range(len(holo) - 1)):
            raise ValueError(f"holomorphic indices not ascending: {holo}")
        if any(anti[i] >= anti[i + 1] for i in range(len(anti) - 1)):
            raise ValueError(f"antiholomorphic indices not ascending: {anti}")
        return tuple.__new__(cls, (holo, anti))

    @classmethod
    def ordered(cls, holo: IndexTuple, anti: IndexTuple) -> "BasisMonomial":
        """From index tuples known to be strictly ascending, unchecked."""
        return tuple.__new__(cls, (holo, anti))

    @property
    def holo(self) -> IndexTuple:
        return self[0]

    @property
    def anti(self) -> IndexTuple:
        return self[1]

    @property
    def bidegree(self) -> Bidegree:
        return (len(self[0]), len(self[1]))

    def render(self) -> str:
        return "phi{%s,%s}" % ("".join(map(str, self[0])), "".join(map(str, self[1])))

    def __repr__(self):
        return self.render()


SCALAR_MONOMIAL = BasisMonomial((), ())


def wedge_monomials(a: BasisMonomial, b: BasisMonomial
                    ) -> tuple[int, BasisMonomial] | None:
    """Signed product of two monomials, or None if an index repeats."""
    mh = merge_indices(a.holo, b.holo)
    if mh is None:
        return None
    ma = merge_indices(a.anti, b.anti)
    if ma is None:
        return None
    sign_h, holo = mh
    sign_a, anti = ma
    # b's holomorphic block crosses a's antiholomorphic block
    sign = sign_h * sign_a * (-1 if (len(a.anti) * len(b.holo)) % 2 else 1)
    return sign, BasisMonomial.ordered(holo, anti)


def conj_monomial(m: BasisMonomial) -> tuple[int, BasisMonomial]:
    """Conjugate of a monomial: (I,J) -> (-1)^{pq} (J,I)."""
    p, q = m.bidegree
    sign = -1 if (p * q) % 2 else 1
    return sign, BasisMonomial.ordered(m.anti, m.holo)


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

    @classmethod
    def monomial(cls, mono: BasisMonomial, coeff=1) -> "Form":
        return cls({mono: _coerce_sym(coeff)})

    @classmethod
    def one(cls) -> "Form":
        return cls({SCALAR_MONOMIAL: SymScalar.one()})

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
        return sorted(self._terms.items())

    def coeff(self, mono: BasisMonomial) -> SymScalar:
        return self._terms.get(mono, SymScalar.zero())

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
        return Form(collect(chain(self._terms.items(), other._terms.items())))

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def __neg__(self) -> "Form":
        return Form({m: -c for m, c in self._terms.items()})

    def __mul__(self, scalar) -> "Form":
        scalar = _coerce_sym(scalar)
        return Form({m: c * scalar for m, c in self._terms.items()})

    __rmul__ = __mul__

    def wedge(self, other: "Form") -> "Form":
        products = []
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                hit = wedge_monomials(m1, m2)
                if hit is not None:
                    sign, mono = hit
                    products.append((mono, c1 * c2 if sign == 1
                                     else -(c1 * c2)))
        return Form(collect(products))

    def conj(self, table: SymbolTable) -> "Form":
        data: dict[BasisMonomial, SymScalar] = {}
        for mono, coeff in self._terms.items():
            sign, swapped = conj_monomial(mono)
            new = coeff.conj(table)
            data[swapped] = new if sign == 1 else -new
        return Form(data)

    def project(self, pq: Bidegree) -> "Form":
        return Form({m: c for m, c in self._terms.items() if m.bidegree == pq})

    def components(self) -> dict[Bidegree, "Form"]:
        out: dict[Bidegree, dict] = {}
        for mono, coeff in self._terms.items():
            out.setdefault(mono.bidegree, {})[mono] = coeff
        return {pq: Form(terms) for pq, terms in sorted(out.items())}

    # -- equality / rendering ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple(sorted((m, c._key()) for m, c in self._terms.items())))

    def __repr__(self):
        return f"Form<{self.render()}>"

    def render(self) -> str:
        """Signed terms `coeff*phi{I,J}`; a coefficient of several terms is
        parenthesized, as in `(F + G)*phi{123,}`."""
        return join_terms(
            scaled_name(coeff.render() if len(coeff._terms) == 1
                        else f"({coeff.render()})", mono.render())
            for mono, coeff in self.terms())


_FORM_ZERO = Form()


def basis_of(pq: Bidegree, n: int) -> list[BasisMonomial]:
    """The ordered monomial basis of Lambda^{p,q}; this ordering is the
    global matrix row/column convention."""
    p, q = pq
    if not (0 <= p <= n and 0 <= q <= n):
        return []
    return [BasisMonomial.ordered(holo, anti)
            for holo in combinations(range(1, n + 1), p)
            for anti in combinations(range(1, n + 1), q)]


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
    total = Form()
    for mono, coeff in rform.items():
        acc = Form({SCALAR_MONOMIAL: coeff})
        for idx in mono:
            j, is_imag = role[idx]
            if is_imag:
                factor = (Form.generator(j) - Form.conj_generator(j)) * _MINUS_HALF_I
            else:
                factor = (Form.generator(j) + Form.conj_generator(j)) * _HALF
            acc = acc.wedge(factor)
        total = total + acc
    return total

