"""Built-in manifold specs: the four worked examples (two symbolic tori, the
H(1,2) x T^3 nilmanifold, the almost-Kahler Iwasawa manifold), flat-torus
baselines in dimensions 6 and 4, and the Kodaira-Thurston manifold as the
non-integrable 4-dimensional testbed.

The catalog is one table, `_ENTRIES`, with one record per entry: its
provenance, its DSL text, an optional real-coframe presentation (from which
the complex structure equations are re-derived and must agree), and a
declarative list of expected results, which `reports` alone evaluates.
The table's order is the order of `keys()`.  Each entry also ships as
`specs/<key>.akspec`, the `render_spec` of its parsed DSL.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from .hodge import CHECK_IDS
from .model import (ManifoldSpec, RealFramePresentation, parse_spec,
                    real_two_form)


class UnknownKeyError(KeyError):
    pass


@dataclass
class CatalogEntry:
    key: str
    spec: ManifoldSpec
    provenance: str
    real_presentation: RealFramePresentation | None = None
    expected: list[dict] = field(default_factory=list)


class _Record(NamedTuple):
    provenance: str
    dsl: str
    expected: list[dict]
    real: RealFramePresentation | None = None


def _flags(constant_coefficient: bool, unitary_scale: str | None,
           integrable: bool) -> dict:
    # every catalog entry is almost-Kahler
    return {"kind": "flags", "almost_kahler": True,
            "constant_coefficient": constant_coefficient,
            "unitary_scale": unitary_scale, "integrable": integrable}


def _check(check: str, status: str, **extra) -> dict:
    return {"kind": "check", "check": check, "status": status, **extra}


def _theorem_checks(strict21: bool) -> list[dict]:
    """Holds for every check but prop41 (real dimension 4 only) and
    inclusion21, whose strictness is an expectation of its own."""
    return ([_check(c, "Holds") for c in CHECK_IDS
             if c not in ("prop41", "inclusion21")]
            + [_check("inclusion21", "Holds", strict=strict21)])


_ERRATUM_BASIS = (
    "the printed third generator phi{13,3} + phi{23,3} is not harmonic (its "
    "projection onto im(delbar) is nonzero under every diagonal metric); the "
    "invariant harmonic space contains phi{13,3} + i*phi{23,3} instead")

_ERRATUM_MEMBER = (
    "the form equals (eta + i*(phi{13,1}+phi{23,2})) + L(phi3), a primitive "
    "harmonic (2,1)-form plus L of a harmonic (1,0)-form, so it IS contained "
    "in the direct sum; the strictness of the inclusion (the actual "
    "proposition) survives with witness phi{13,3} + i*phi{23,3}")

_ENTRIES: dict[str, _Record] = {
    "torus6_flat": _Record(
        "flat 6-torus baseline (integrable Kahler case)",
        """\
manifold torus6_flat
dim 6
coframe phi1 phi2 phi3
omega = 1/2*i*phi{1,1} + 1/2*i*phi{2,2} + 1/2*i*phi{3,3}
""",
        [_flags(True, "1", True),
         {"kind": "harmonic_dim", "op": "delbar", "pq": [1, 1], "dim": 9},
         *_theorem_checks(strict21=False),
         _check("prop41", "Inapplicable")]),
    "torus4_flat": _Record(
        "flat 4-torus degeneration for the dimension-4 Laplacian equality",
        """\
manifold torus4_flat
dim 4
coframe phi1 phi2
omega = 1/2*i*phi{1,1} + 1/2*i*phi{2,2}
""",
        [_flags(True, "1", True),
         *_theorem_checks(strict21=False),
         _check("prop41", "Holds")]),
    # T^6 with J twisted by a function f(x_2); F stands for f', E for e^f.
    # The metric factor e^{-f} makes omega non-unitary, so this entry only
    # feeds the symbolic mu/mubar identities (the norm-equivalence route to
    # Delta_delbar != Delta_del) and the validation example.
    "torus6_f": _Record(
        "6-torus, non-invariant J twisted by f(x_2); metric carries e^{-f}",
        """\
manifold torus6_f
dim 6
coframe phi1 phi2 phi3
symbol F real nonzero d = opaque
symbol E real nonzero invertible d = 1/2*F*E*phi{2,} + 1/2*F*E*phi{,2}
d phi1 = -1/4*F*phi{12,} - 1/4*F*phi{2,1} - 1/4*F*phi{1,2} + 1/4*F*phi{,12}
omega = 1/2*i*E^-1*phi{1,1} + 1/2*i*phi{2,2} + 1/2*i*phi{3,3}
""",
        [_flags(False, None, False),
         {"kind": "validate", "expect": {"d2_phi1": "SkippedOpaque",
                                         "omega_closed": "Verified"}},
         {"kind": "component_image", "id": "mubar_image_ex42",
          "op": "mubar", "form": "phi{1,3}", "equals": "1/4*F*phi{,123}",
          "nonzeroness": "NonzeroDeclared",
          "note": "(Delta_delbar - Delta_del)(phi{1,3}) = "
                  "-mubar*mubar(phi{1,3}) != 0 via the norm route: "
                  "||mubar(phi{1,3})||^2 != 0 iff mubar(phi{1,3}) != 0"},
         {"kind": "component_image", "id": "mu_image_ex42",
          "op": "mu", "form": "phi{1,3}", "equals": "0"}]),
    # T^6 with J twisted by g(x_3, y_3); V3g stands for V_3(g).
    "torus6_g": _Record(
        "6-torus, non-invariant J twisted by g(x_3, y_3); separates del- from "
        "delbar-harmonicity on (1,1)",
        """\
manifold torus6_g
dim 6
coframe phi1 phi2 phi3
symbol V3g conj V3g_bar nonzero
symbol V3g_bar conj V3g nonzero
d phi1 = V3g*phi{3,1} - V3g_bar*phi{,13}
omega = 1/2*i*phi{1,1} + 1/2*i*phi{2,2} + 1/2*i*phi{3,3}
""",
        [_flags(False, "1", False),
         {"kind": "component_image", "id": "delbar_image_ex45",
          "op": "delbar", "form": "phi{1,2}", "equals": "V3g*phi{3,12}",
          "nonzeroness": "NonzeroDeclared"},
         {"kind": "membership", "id": "not_delbar_harmonic", "op": "delbar",
          "form": "phi{1,2}", "status": "NotHarmonic",
          "witness": "V3g*phi{3,12}"},
         {"kind": "membership", "id": "del_harmonic", "op": "del",
          "form": "phi{1,2}", "status": "Harmonic"},
         _check("thm34", "Inapplicable")]),
    # H(1,2) x T^3 with psi^j = e^j + i e^{j+4}; the complex equations are
    # derived from de^5 = -e^{23}, de^6 = -e^{13} (complexify_match).
    "h12_t3": _Record(
        "8-dimensional nilmanifold H(1,2) x T^3, left-invariant almost-Kahler "
        "structure",
        """\
manifold h12_t3
dim 8
coframe phi1 phi2 phi3 phi4
d phi1 = -1/4*i*phi{23,} - 1/4*i*phi{2,3} + 1/4*i*phi{3,2} - 1/4*i*phi{,23}
d phi2 = -1/4*i*phi{13,} - 1/4*i*phi{1,3} + 1/4*i*phi{3,1} - 1/4*i*phi{,13}
omega = 1/2*i*phi{1,1} + 1/2*i*phi{2,2} + 1/2*i*phi{3,3} + 1/2*i*phi{4,4}
""",
        [_flags(True, "1", False),
         {"kind": "complexify_match"},
         {"kind": "component_image", "id": "mubar_image_ex43",
          "op": "mubar", "form": "phi{1,4}", "equals": "-1/4*i*phi{,234}"},
         {"kind": "component_image", "id": "mu_image_ex43",
          "op": "mu", "form": "phi{1,4}", "equals": "0"},
         {"kind": "laplacian_diff_nonzero", "id": "laplacians_differ",
          "form": "phi{1,4}", "pq": [1, 1]},
         {"kind": "kernel_equality", "id": "kernels_coincide_11",
          "ops": ["delbar", "del"], "pq": [1, 1], "expect": True},
         *_theorem_checks(strict21=False)],
        RealFramePresentation(
            n=4, de={5: real_two_form([(-1, 2, 3)]),
                     6: real_two_form([(-1, 1, 3)])},
            pairing=((1, 5), (2, 6), (3, 7), (4, 8)))),
    # Iwasawa manifold with the non-integrable J: phi1 = e1 + i e6,
    # phi2 = e2 + i e5, phi3 = e3 + i e4, omega = i sum phi^{j jbar}
    # (scale 2).
    "iwasawa_ak": _Record(
        "Iwasawa manifold with non-integrable left-invariant J and omega = "
        "2(e^{16}+e^{25}+e^{34})",
        """\
manifold iwasawa_ak
dim 6
coframe phi1 phi2 phi3
d phi1 = -1/4*phi{13,} - 1/4*i*phi{23,} + 1/4*phi{1,3} + 1/4*phi{3,1} - 1/4*i*phi{2,3} + 1/4*i*phi{3,2} + 1/4*phi{,13} - 1/4*i*phi{,23}
d phi2 = -1/4*i*phi{13,} + 1/4*phi{23,} - 1/4*i*phi{1,3} + 1/4*i*phi{3,1} - 1/4*phi{2,3} - 1/4*phi{3,2} - 1/4*i*phi{,13} - 1/4*phi{,23}
omega = i*phi{1,1} + i*phi{2,2} + i*phi{3,3}
""",
        [_flags(True, "2", False),
         {"kind": "complexify_match"},
         {"kind": "harmonic_dim", "op": "delbar", "pq": [2, 1], "dim": 3},
         {"kind": "harmonic_span", "id": "paper_basis_21",
          "op": "delbar", "pq": [2, 1],
          "generators": ["phi{13,1} + phi{23,2}",
                         "phi{13,2} + phi{23,1} - 2*i*phi{23,2}",
                         "phi{13,3} + phi{23,3}"],
          "erratum": _ERRATUM_BASIS},
         {"kind": "harmonic_span", "id": "corrected_basis_21",
          "op": "delbar", "pq": [2, 1],
          "generators": ["phi{13,1} + phi{23,2}",
                         "phi{13,2} + phi{23,1} - 2*i*phi{23,2}",
                         "phi{13,3} + i*phi{23,3}"]},
         {"kind": "L_image_line", "id": "invariant_L_H10",
          "generator": "phi{13,1} + phi{23,2}"},
         {"kind": "member_sum21", "id": "paper_nonmembership",
          "form": "phi{13,2} + phi{23,1} - 2*i*phi{23,2}",
          "expect": False, "erratum": _ERRATUM_MEMBER},
         *_theorem_checks(strict21=True)],
        RealFramePresentation(
            n=3, de={5: real_two_form([(-1, 1, 3), (1, 2, 4)]),
                     6: real_two_form([(-1, 1, 4), (-1, 2, 3)])},
            pairing=((1, 6), (2, 5), (3, 4)))),
    # Kodaira-Thurston manifold: de^4 = e^{12}, phi1 = e1 + i e3,
    # phi2 = e4 + i e2, omega = e^{13} + e^{42}.
    "kt4": _Record(
        "Kodaira-Thurston manifold, non-integrable almost-Kahler "
        "4-dimensional testbed (engine-chosen)",
        """\
manifold kt4
dim 4
coframe phi1 phi2
d phi2 = -1/4*i*phi{12,} + 1/4*i*phi{1,2} + 1/4*i*phi{2,1} + 1/4*i*phi{,12}
omega = 1/2*i*phi{1,1} + 1/2*i*phi{2,2}
""",
        [_flags(True, "1", False),
         {"kind": "complexify_match"},
         *_theorem_checks(strict21=False),
         _check("prop41", "Holds")],
        RealFramePresentation(n=2, de={4: real_two_form([(1, 1, 2)])},
                              pairing=((1, 3), (4, 2)))),
}


def _record(key: str) -> _Record:
    if key not in _ENTRIES:
        raise UnknownKeyError(key)
    return _ENTRIES[key]


@lru_cache(maxsize=None)
def get(key: str) -> CatalogEntry:
    provenance, dsl, expected, real = _record(key)
    return CatalogEntry(key, parse_spec(dsl), provenance, real, expected)


def keys() -> tuple[str, ...]:
    return tuple(_ENTRIES)


def dsl_source(key: str) -> str:
    return _record(key).dsl
