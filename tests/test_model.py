import sys

import pytest

from akhodge import catalog
from akhodge.exterior import BasisMonomial, Form
from akhodge.model import (DegreeMismatchError, InvalidSpecError,
                           NonRealOmegaError, RealFramePresentation,
                           SpecSyntaxError, UnknownSymbolError, complexify,
                           parse_form, parse_spec, real_two_form,
                           render_spec, validate)
from akhodge.scalars import GaussianRational, I, SymScalar

from oracles import coeff_of, complex_to_real

FLAT6 = """\
manifold flat
dim 6
coframe phi1 phi2 phi3
omega = 1/2*i*phi{1,1} + 1/2*i*phi{2,2} + 1/2*i*phi{3,3}
"""


def test_flat_torus_flags():
    spec = parse_spec(FLAT6)
    assert spec.n == 3
    assert spec.constant_coefficient
    assert spec.almost_kahler
    assert str(spec.unitary_scale) == "1"
    assert spec.structure == {}


def test_parse_torus6_g_structure():
    spec = catalog.get("torus6_g").spec
    v = SymScalar.symbol("V3g")
    vbar = SymScalar.symbol("V3g_bar")
    expected = Form({BasisMonomial((3,), (1,)): v,
                     BasisMonomial((), (1, 3)): -vbar})
    assert spec.structure[1] == expected
    assert spec.symbols["V3g"].conj_name == "V3g_bar"
    assert spec.symbols["V3g"].nonzero


def test_degree_mismatch_rejected():
    bad = FLAT6.replace("omega =", "d phi1 = phi{123,}\nomega =")
    with pytest.raises(DegreeMismatchError) as err:
        parse_spec(bad)
    assert err.value.line == 4


def test_unknown_symbol_position():
    bad = FLAT6.replace("omega =", "d phi1 = W*phi{12,}\nomega =")
    with pytest.raises(UnknownSymbolError) as err:
        parse_spec(bad)
    assert err.value.line == 4 and err.value.col is not None


def test_syntax_error_position():
    with pytest.raises(SpecSyntaxError) as err:
        parse_spec(FLAT6.replace("omega =", "omega = $bad +"))
    assert err.value.line == 4


def test_non_real_omega_rejected():
    bad = FLAT6.replace(
        "omega = 1/2*i*phi{1,1} + 1/2*i*phi{2,2} + 1/2*i*phi{3,3}",
        "omega = i*phi{1,2}")
    with pytest.raises(NonRealOmegaError):
        parse_spec(bad)


def test_omega_without_a_space_before_equals_parses():
    assert parse_spec(FLAT6.replace("omega =", "omega=")) == parse_spec(FLAT6)
    assert parse_spec(FLAT6.replace("omega = ", "omega=")) == parse_spec(FLAT6)


def test_omega_with_nothing_after_equals_is_a_located_error():
    with pytest.raises(SpecSyntaxError, match="line 4: empty expression"):
        parse_spec(FLAT6.split("omega")[0] + "omega=\n")


@pytest.mark.parametrize("omega, positive", [
    ("1/2*i*phi{1,1} + 1/2*i*phi{2,2} + 1/2*i*phi{3,3}", True),
    ("0", False),
    ("1/2*i*phi{1,1} + 1/2*i*phi{2,2}", False),  # rank 2 of 3
    ("-1/2*i*phi{1,1} - 1/2*i*phi{2,2} - 1/2*i*phi{3,3}", False),
    # H = [[2, 1, 0], [1, 2, 1], [0, 1, 2]]: pivots 2, 3/2, 4/3
    ("i*phi{1,1} + 1/2*i*phi{1,2} + 1/2*i*phi{2,1} + i*phi{2,2}"
     " + 1/2*i*phi{2,3} + 1/2*i*phi{3,2} + i*phi{3,3}", True),
    # H = [[1, 2, 0], [2, 1, 0], [0, 0, 1]]: every diagonal entry positive,
    # det -3
    ("1/2*i*phi{1,1} + i*phi{1,2} + i*phi{2,1} + 1/2*i*phi{2,2}"
     " + 1/2*i*phi{3,3}", False),
])
def test_almost_kahler_needs_a_positive_constant_omega(omega, positive):
    spec = parse_spec(FLAT6.split("omega")[0] + f"omega = {omega}\n")
    assert spec.omega_positive is positive
    assert spec.almost_kahler is positive
    statuses = {i.check: i.status for i in validate(spec).items}
    assert statuses["omega_positive"] == ("Verified" if positive
                                          else "Failed")


def test_symbolic_omega_is_flagged_by_closedness_alone():
    # a negative symbol value is not checked: positivity needs constants
    spec = parse_spec(FLAT6.split("omega")[0]
                      + "symbol F real d = 0\nomega = i*F*phi{1,1} + "
                      "1/2*i*phi{2,2} + 1/2*i*phi{3,3}\n")
    assert spec.omega_positive is None
    assert spec.almost_kahler
    assert "omega_positive" not in {i.check for i in validate(spec).items}


def test_duplicate_structure_equation_rejected():
    bad = FLAT6.replace(
        "omega =", "d phi1 = phi{23,}\nd phi1 = phi{23,}\nomega =")
    with pytest.raises(SpecSyntaxError):
        parse_spec(bad)


def test_nonclosed_omega_is_soft():
    # d(phi1) = phi{23,} keeps d^2 = 0 but breaks d(omega) = 0
    spec = parse_spec(FLAT6.replace("omega =",
                                    "d phi1 = phi{23,}\nomega ="))
    assert not spec.almost_kahler
    report = validate(spec)
    statuses = {i.check: i.status for i in report.items}
    assert statuses["omega_closed"] == "Failed"
    assert not report.ok


def test_d_squared_violation_is_hard():
    # d(phi1) = phi{2,3} with d(phi3) = phi{12,} gives
    # d^2(phi1) = -phi2 ^ conj(d phi3) = -phi{2,12} != 0
    text = FLAT6.replace("omega =",
                         "d phi1 = phi{2,3}\nd phi3 = phi{12,}\nomega =")
    spec = parse_spec(text)
    with pytest.raises(InvalidSpecError, match="d\\^2"):
        validate(spec)


def test_roundtrip_all_catalog_entries():
    for key in catalog.keys():
        spec = catalog.get(key).spec
        assert parse_spec(render_spec(spec)) == spec


def test_render_spec_writes_a_zero_form_as_0():
    spec = parse_spec("manifold z\ndim 4\ncoframe phi1 phi2\n"
                      "symbol F real d = 0*phi{1,}\nomega = 0*phi{1,1}\n")
    rendered = render_spec(spec)
    assert rendered == ("manifold z\ndim 4\ncoframe phi1 phi2\n"
                        "symbol F real d = 0\nomega = 0\n")
    assert parse_spec(rendered) == spec


@pytest.mark.parametrize("equation", ["0", "0*phi{2,2}"])
def test_zero_structure_equation_is_not_stored(equation):
    spec = parse_spec(FLAT6.replace("omega =",
                                    f"d phi1 = {equation}\nomega ="))
    assert spec.structure == {}
    assert parse_spec(render_spec(spec)) == spec
    assert spec == parse_spec(FLAT6)


def test_duplicate_of_a_zero_structure_equation_rejected():
    bad = FLAT6.replace("omega =", "d phi1 = 0\nd phi1 = phi{23,}\nomega =")
    with pytest.raises(SpecSyntaxError, match="duplicate structure equation"):
        parse_spec(bad)


def test_iwasawa_complexify_matches_printed_equations():
    entry = catalog.get("iwasawa_ak")
    derived = complexify(entry.real_presentation)
    assert derived[1] == entry.spec.structure[1]
    assert derived[2] == entry.spec.structure[2]
    assert 3 not in derived


def test_real_two_form_sums_triples_by_index_pair():
    assert real_two_form([(1, 1, 2), (-1, 1, 2)]) == {}
    assert real_two_form([(2, 1, 3), (1, 2, 4), (-2, 1, 3), (0, 5, 6)]) == \
        {(2, 4): SymScalar.const(1)}
    with pytest.raises(ValueError, match=r"must ascend: \(2,1\)"):
        real_two_form([(1, 1, 3), (1, 2, 1)])


def test_complexify_of_closed_frame_is_zero():
    real = RealFramePresentation(n=2, de={},
                                 pairing=((1, 2), (3, 4)))
    assert complexify(real) == {}


def test_complexify_realify_roundtrip():
    for key in ("iwasawa_ak", "h12_t3", "kt4"):
        entry = catalog.get(key)
        real = entry.real_presentation
        derived = complexify(real)
        for j, (a_idx, b_idx) in enumerate(real.pairing, start=1):
            # complex_to_real(d phi^j) = de^{a_j} + i de^{b_j}
            back = complex_to_real(derived.get(j, Form.zero()), real.pairing)
            expected = {}
            for mono, c in real.de.get(a_idx, {}).items():
                expected[mono] = c
            for mono, c in real.de.get(b_idx, {}).items():
                cur = expected.get(mono, SymScalar.zero()) + \
                    c * SymScalar.const(I)
                if cur:
                    expected[mono] = cur
                else:
                    expected.pop(mono, None)
            assert back == expected


def test_validate_idempotent():
    spec = catalog.get("iwasawa_ak").spec
    first = validate(spec).to_dict()
    second = validate(spec).to_dict()
    assert first == second


def test_validate_iwasawa_scale():
    report = validate(catalog.get("iwasawa_ak").spec)
    statuses = {i.check: (i.status, i.detail) for i in report.items}
    assert statuses["unitary_mode"] == ("Verified", "scale = 2")
    assert statuses["omega_closed"][0] == "Verified"


def test_validate_torus6_f_skips_opaque():
    report = validate(catalog.get("torus6_f").spec)
    statuses = {i.check: i.status for i in report.items}
    assert statuses["d2_phi1"] == "SkippedOpaque"
    assert statuses["omega_closed"] == "Verified"


def test_parse_form_standalone():
    f = parse_form("phi{13,2} + phi{23,1} - 2*i*phi{23,2}", 3)
    assert coeff_of(f, BasisMonomial((2, 3), (2,))) == \
        SymScalar.const(GaussianRational(0, -2))


def test_odd_dimension_rejected():
    with pytest.raises(SpecSyntaxError):
        parse_spec("manifold x\ndim 5\ncoframe a b\nomega = i*phi{1,1}")


def test_dimension_of_non_decimal_digits_rejected():
    # "²".isdigit() holds, but int("²") raises ValueError
    with pytest.raises(SpecSyntaxError, match="expected: dim <2n>") as err:
        parse_spec(FLAT6.replace("dim 6", "dim \u00b2"))
    assert err.value.line == 2


@pytest.mark.parametrize("text, col, char", [
    ("\u0661/2*phi{1,1}", 1, "\u0661"),       # ARABIC-INDIC DIGIT ONE
    ("1/\u0662*phi{1,1}", 2, "/"),             # `1` is a number, `/` is not
    ("phi{\u0661,1}", 4, "{"),                # `phi` is a name, `{` is not
    ("F^\u0662*phi{1,1}", 2, "^"),
    ("\uff11*phi{1,1}", 1, "\uff11"),         # FULLWIDTH DIGIT ONE
])
def test_parse_form_reads_ascii_digits_only(text, col, char):
    symbols = catalog.get("torus6_f").spec.symbols
    with pytest.raises(SpecSyntaxError) as err:
        parse_form(text, 2, symbols, line=3)
    assert (err.value.line, err.value.col) == (3, col)
    assert str(err.value) == \
        f"line 3, col {col}: unexpected character {char!r}"


def big_spec_text(n):
    coframe = " ".join(f"phi{j}" for j in range(1, n + 1))
    omega = " + ".join(f"1/2*i*phi{{{j},{j}}}" for j in range(1, min(n, 9) + 1))
    return (f"manifold big\ndim {2 * n}\ncoframe {coframe}\n"
            f"omega = {omega}\n")


def test_dimension_above_single_digit_indices_rejected():
    with pytest.raises(SpecSyntaxError) as err:
        parse_spec(big_spec_text(12))
    assert err.value.line == 2
    assert "limit 18" in str(err.value)
    with pytest.raises(SpecSyntaxError) as err:
        parse_spec(big_spec_text(10))
    assert err.value.line == 2


def test_dimension_at_limit_accepted():
    spec = parse_spec(big_spec_text(9))
    assert spec.n == 9 and spec.unitary_scale == 1


# Longer than CPython's default limit of 4300 digits for converting a string
# to an int; an interpreter without the limit may parse it.
BIG = "7" * 5000
INT_STR_LIMITED = 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() \
    < len(BIG)


@pytest.mark.parametrize("text, line", [
    (FLAT6.replace("omega =", f"d phi1 = {BIG}*phi{{2,2}}\nomega ="), 4),
    (FLAT6.replace("omega =", f"d phi1 = 1/{BIG}*phi{{2,2}}\nomega ="), 4),
    (FLAT6.replace("omega =", "symbol F real\n"
                   f"d phi1 = F^-{BIG}*phi{{2,2}}\nomega ="), 5),
    (FLAT6.replace("dim 6", f"dim {BIG}"), 2),
], ids=["coefficient", "denominator", "exponent", "dim"])
def test_oversized_number_is_a_located_syntax_error(text, line):
    try:
        parse_spec(text)
    except SpecSyntaxError as err:
        assert err.line == line
        if INT_STR_LIMITED:
            assert err.col is not None
            assert "characters is too long" in str(err)
    else:
        assert not INT_STR_LIMITED
