"""Property tests of the front door: generated DSL text always ends in a
result or a SpecError (exit 2 from the CLI), the parser agrees with the
reference parser of `oracles` on generated text and on every form the
catalog prints, and generated valid specs round-trip through render_spec;
of the "d" block and the full-degree d, whose columns agree with the
Leibniz-rule oracle on generated constant-coefficient specs; of
harmonic membership: the engine's pointwise route agrees with the block
oracle on random constant forms, and on every catalog entry, with constant
and symbolic forms, the engine's short-circuit agrees with both equations
taken eagerly, by the blocks where the form and spec are constant and
pointwise otherwise; and of subspaces: a kernel's lazily built basis is the
eager one, and spans and kernels agree with sympy on equality,
membership, equations and intersection."""

import contextlib
import io
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st
from sympy.polys.domains import QQ_I
from sympy.polys.matrices import DomainMatrix

from akhodge import catalog, hodge, operators as ops
from akhodge.cli import main
from akhodge.exterior import (BasisMonomial, Form, basis_of,
                              bidegrees_of_degree)
from akhodge.model import (SpecError, SpecSyntaxError, _parse_expr,
                           parse_form, parse_spec, render_spec)
from akhodge.scalars import GaussianRational, SymScalar

from oracles import (block_membership, dense, leibniz_d, matrix_to_sympy,
                     pointwise_membership, reference_parse_form,
                     transposed_stack_intersect)

DSL_WORDS = (
    "manifold", "dim", "coframe", "symbol", "d", "omega", "=", "real", "conj",
    "nonzero", "invertible", "opaque", "i", "*", "+", "-", "/", "^", "^-1",
    "^2", "^-0", "#", "phi1", "phi2", "phi3", "F", "G", "E", "0", "1", "2",
    "3", "4", "6", "18", "20", "1/2", "1/0", "-3/4", "phi{1,1}", "phi{12,}",
    "phi{,2}", "phi{21,1}", "phi{,}", "phi{9,9}", "phi{1,2}", "phi{2,1}",
    "{", "}", ",", "(", ")", "(1/2-i)", "\t", "é", "φ",
    # phrases that reach past the first word of a directive
    "symbol F", "symbol G conj", "symbol E real", "d phi1 =", "d phi2 =",
    "omega =", "dim 4", "coframe phi1 phi2", "d = opaque", "d =")

_token = st.one_of(st.sampled_from(DSL_WORDS),
                   st.text(st.characters(blacklist_categories=("Cs",)),
                           max_size=3))
_line = st.builds(lambda sep, words: sep.join(words),
                  st.sampled_from((" ", "", "*")),
                  st.lists(_token, max_size=8))
_PREFIXES = (
    "",
    "manifold m\ndim 4\ncoframe phi1 phi2\n",
    "manifold m\ndim 6\ncoframe phi1 phi2 phi3\nsymbol F real d = opaque\n"
    "symbol G conj E nonzero\nsymbol E conj G d = phi{1,}\n",
)
_OMEGAS = ("", "omega = 1/2*i*phi{1,1} + 1/2*i*phi{2,2}\n",
           "omega = i*F*phi{1,1}\n")
spec_texts = st.builds(lambda head, lines, omega: head + "\n".join(lines)
                       + "\n" + omega,
                       st.sampled_from(_PREFIXES), st.lists(_line, max_size=6),
                       st.sampled_from(_OMEGAS))


@given(spec_texts)
@settings(max_examples=300, deadline=None)
def test_parse_spec_ends_in_a_spec_or_a_spec_error(text):
    try:
        parse_spec(text)
    except SpecError:
        pass


@given(_line, st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_parse_form_ends_in_a_form_or_a_spec_error(text, n):
    symbols = catalog.get("torus6_f").spec.symbols
    try:
        parse_form(text, n, symbols)
    except SpecError:
        pass


@given(spec_texts)
@settings(max_examples=100, deadline=None)
def test_cli_validate_exits_0_1_or_2_with_a_message(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.akspec"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", "--spec", str(path)])
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
    else:
        assert out.getvalue().startswith("spec ")


# -- generated valid specs -----------------------------------------------------

_SYMBOL_NAMES = ("A", "B", "E", "F", "G", "H")
_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _term(draw, n, degree, symbols):
    """One DSL term coefficient*phi{I,J} of total degree `degree`: a nonzero
    rational, times i or not, times a symbol power or not."""
    factors = [str(draw(_rationals.filter(bool)))]
    if draw(st.booleans()):
        factors.append("i")
    if symbols and draw(st.booleans()):
        name = draw(st.sampled_from(symbols))
        exponent = draw(st.sampled_from((1, 2, -1)))
        factors.append(name if exponent == 1 else f"{name}^{exponent}")
    p = draw(st.integers(max(0, degree - n), min(degree, n)))
    holo = draw(st.sets(st.integers(1, n), min_size=p, max_size=p))
    anti = draw(st.sets(st.integers(1, n), min_size=degree - p,
                        max_size=degree - p))
    monomial = ("phi{" + "".join(map(str, sorted(holo))) + ","
                + "".join(map(str, sorted(anti))) + "}")
    return (monomial, "*".join(factors))


@st.composite
def _form(draw, n, degree, symbols):
    """A sum of terms on distinct monomials as DSL text (never zero)."""
    terms = dict(draw(st.lists(_term(n, degree, symbols), min_size=1,
                               max_size=3)))
    return " + ".join(f"{coeff}*{mono}" for mono, coeff in terms.items())


@st.composite
def valid_spec_texts(draw, symbolic: bool = True):
    """Valid spec DSL; with symbolic false it declares no symbols, so every
    coefficient is constant."""
    n = draw(st.integers(1, 3))
    names = draw(st.lists(st.sampled_from(_SYMBOL_NAMES), unique=True,
                          max_size=4)) if symbolic else []
    conj = {}
    while names:
        name = names.pop()
        if names and draw(st.booleans()):
            partner = names.pop()
            conj[name], conj[partner] = partner, name
        else:
            conj[name] = name
    symbols = sorted(conj)
    lines = [f"manifold gen{draw(st.integers(0, 99))}", f"dim {2 * n}",
             "coframe " + " ".join(f"phi{j}" for j in range(1, n + 1))]
    for name in symbols:
        attrs = ["real" if conj[name] == name else f"conj {conj[name]}"]
        attrs += draw(st.lists(st.sampled_from(("nonzero", "invertible")),
                               unique=True, max_size=2))
        derivative = draw(st.sampled_from(("", "opaque", "0*phi{1,}",
                                           "form")))
        if derivative == "form":
            derivative = draw(_form(n, 1, symbols))
        if derivative:
            attrs.append(f"d = {derivative}")
        lines.append(f"symbol {name} " + " ".join(attrs))
    for j in range(1, n + 1):
        if draw(st.booleans()):
            lines.append(f"d phi{j} = " + draw(_form(n, 2, symbols)))
    real = [name for name in symbols if conj[name] == name]
    if real and draw(st.booleans()):
        lines.append(f"omega = i*{real[0]}*phi{{1,1}}")
    else:
        scale = draw(st.fractions(min_value=Fraction(1, 4), max_value=4,
                                  max_denominator=4).filter(bool))
        lines.append("omega = " + " + ".join(
            f"{scale / 2}*i*phi{{{j},{j}}}" for j in range(1, n + 1)))
    return "\n".join(lines) + "\n"


@given(valid_spec_texts())
@settings(max_examples=150, deadline=None)
def test_render_spec_round_trips_generated_specs(text):
    spec = parse_spec(text)
    rendered = render_spec(spec)
    assert parse_spec(rendered) == spec
    assert render_spec(parse_spec(rendered)) == rendered


# -- the parser against the reference parser ----------------------------------

def _catalog_forms() -> list:
    """(text, n, symbols) of every form `render_spec` prints for a catalog
    entry: omega, the structure equations and the symbol derivatives."""
    out = []
    for key in sorted(catalog.keys()):
        spec = catalog.get(key).spec
        forms = [spec.omega, *spec.structure.values()]
        forms += [sym.derivative for sym in spec.symbols.values()
                  if sym.derivative is not None]
        out += [(form.render(), spec.n, spec.symbols) for form in forms]
    return out


CATALOG_FORMS = _catalog_forms()
# indices at and past the ends of 1..9, and out of order
_EDGE_MONOMIALS = ("phi{0,}", "phi{,19}", "phi{123456789,9}", "phi{98,}")
# ARABIC-INDIC ONE and FOUR, FULLWIDTH TWO, SUPERSCRIPT TWO (not decimal)
_OTHER_DIGITS = ("\u0661", "\u0664", "\uff12", "phi{\u0661,}", "\u00b2")


@st.composite
def _parser_cases(draw):
    """(text, n, symbols, column offset): DSL-token text at n = 1..9 with
    torus6_f's symbols; a form the catalog prints, with its spec's n and
    symbols; or a generated form at n = 1..9 with torus6_f's symbols, its
    terms joined by `+` or by `-`.  A form may get a token spliced in, and
    a quarter of the cases draw their tokens with non-ASCII digits among
    them."""
    token = st.one_of(_token, st.sampled_from(_EDGE_MONOMIALS))
    if not draw(st.integers(0, 3)):
        token = st.one_of(token, st.sampled_from(_OTHER_DIGITS))
    symbols = catalog.get("torus6_f").spec.symbols
    source = draw(st.sampled_from(("tokens", "catalog", "generated")))
    if source == "tokens":
        words = draw(st.lists(token, max_size=8))
        text = draw(st.sampled_from((" ", "", "*"))).join(words)
        n = draw(st.integers(1, 9))
    elif source == "catalog":
        text, n, symbols = draw(st.sampled_from(CATALOG_FORMS))
    else:
        n = draw(st.integers(1, 9))
        text = draw(_form(n, draw(st.integers(0, 2 * n)), sorted(symbols)))
        text = text.replace(" + ", draw(st.sampled_from((" + ", " - "))))
    if source != "tokens" and draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(token) + text[at:]
    return text, n, symbols, draw(st.integers(0, 20))


def _parse_outcome(parse, *args):
    try:
        form = parse(*args)
    except SpecError as exc:
        return type(exc), str(exc), exc.line, exc.col
    return form, list(form.items())


@given(_parser_cases())
@settings(max_examples=300, deadline=None)
def test_parser_matches_the_reference_parser(case):
    # equal forms, with their terms in the same order, or the same error
    # at the same line and column; only a non-ASCII digit, which the
    # reference reads as a digit, may make the parser alone refuse a text
    text, n, symbols, offset = case
    new = _parse_outcome(_parse_expr, text, offset, n, symbols, 7)
    ref = _parse_outcome(reference_parse_form, text, n, symbols, 7, offset)
    if new != ref:
        assert any(ch.isdecimal() and not ch.isascii() for ch in text)
        assert new[0] is SpecSyntaxError
        assert "unexpected character" in new[1]


def test_parser_matches_the_reference_parser_on_every_catalog_form():
    for text, n, symbols in CATALOG_FORMS:
        assert _parse_outcome(parse_form, text, n, symbols) == \
            _parse_outcome(reference_parse_form, text, n, symbols)


# -- harmonic membership -------------------------------------------------------

@st.composite
def _constant_forms(draw, n):
    """Up to 4 terms on random monomials of any bidegrees, so the form may
    be zero or mixed, with Q(i) coefficients."""
    indices = st.sets(st.integers(1, n)).map(sorted)
    monomials = st.builds(BasisMonomial, indices, indices)
    coeffs = st.builds(GaussianRational, _rationals, _rationals)
    terms = draw(st.dictionaries(monomials, coeffs, max_size=4))
    return Form({m: SymScalar.const(c) for m, c in terms.items()})


@st.composite
def _membership_cases(draw):
    spec = catalog.get(draw(st.sampled_from(("iwasawa_ak", "kt4")))).spec
    return spec, draw(st.sampled_from(("del", "delbar"))), \
        draw(_constant_forms(spec.n))


@given(_membership_cases())
@settings(max_examples=200, deadline=None)
def test_membership_block_route_matches_the_pointwise_route(case):
    spec, D, form = case
    assert hodge.harmonic_membership(spec, D, form) == \
        block_membership(spec, D, form)


@st.composite
def _forms(draw, spec):
    """A form of `_constant_forms`, or one whose coefficients may each carry
    up to two powers of the spec's symbols."""
    form = draw(_constant_forms(spec.n))
    names = sorted(spec.symbols)
    if not names or draw(st.booleans()):
        return form
    factors = st.one_of(st.just(SymScalar.const(1)),
                        st.builds(SymScalar.symbol, st.sampled_from(names),
                                  st.sampled_from((1, 2))))
    return Form({m: c * draw(factors) * draw(factors)
                 for m, c in form.terms()})


@st.composite
def _catalog_membership_cases(draw):
    spec = catalog.get(draw(st.sampled_from(sorted(catalog.keys())))).spec
    return spec, draw(st.sampled_from(("del", "delbar"))), draw(_forms(spec))


def _outcome(membership, spec, D, form):
    try:
        return membership(spec, D, form)
    except ops.NotUnitaryModeError as exc:
        return f"NotUnitaryModeError: {exc}"


@given(_catalog_membership_cases())
@settings(max_examples=200, deadline=None)
def test_membership_matches_the_eager_route_on_every_catalog_entry(case):
    # the engine stops at the first failing equation; the oracles compute
    # both, so Unknown reasons, witnesses and the refusal of non-unitary
    # specs must come out the same either way: the block oracle for a
    # constant form on a constant-coefficient spec, else the eager
    # pointwise one
    spec, _, form = case
    oracle = (block_membership if spec.constant_coefficient
              and form.is_constant_coefficient() else pointwise_membership)
    assert _outcome(hodge.harmonic_membership, *case) == \
        _outcome(oracle, *case)


# -- the "d" block ------------------------------------------------------------

@st.composite
def _d_block_cases(draw):
    """A generated constant-coefficient spec (rational coefficients with
    denominators up to 4, so the blocks' shared denominator varies) and one
    of its basis monomials."""
    spec = parse_spec(draw(valid_spec_texts(symbolic=False)))
    indices = st.sets(st.integers(1, spec.n)).map(sorted)
    return spec, draw(st.builds(BasisMonomial, indices, indices))


def _column_form(matrix, col: int, targets, n: int) -> Form:
    """The form of column col of matrix, whose rows run over the
    concatenated bases of the target bidegrees."""
    monos = [m for t in targets for m in basis_of(t, n)]
    column = matrix.columns([col])
    image = Form.zero()
    for i, m in enumerate(monos):
        value = column.entries(i).get(0)
        if value is not None:
            image += Form.monomial(m, value)
    return image


@given(_d_block_cases())
@settings(max_examples=200, deadline=None)
def test_d_block_columns_match_the_leibniz_oracle(case):
    # the monomial's column of its "d" block and of the full-degree d
    spec, mono = case
    n, pq = spec.n, mono.bidegree
    k = pq[0] + pq[1]
    expected = leibniz_d(spec, mono)
    block = ops.operator_block(spec, "d", pq)
    assert _column_form(block, basis_of(pq, n).index(mono),
                        ops.op_targets("d", pq, n), n) == expected
    source = [m for b in bidegrees_of_degree(k, n) for m in basis_of(b, n)]
    assert _column_form(ops.full_degree_matrix(spec, k), source.index(mono),
                        bidegrees_of_degree(k + 1, n), n) == expected


# rows of Lambda^{1,1} at n = 3: nine columns, about a third of the entries 0
_ENTRIES = [GaussianRational(0)] * 4 + [
    GaussianRational(a, b) for a, b in ((1, 0), (-1, 0), (2, 0), (0, 1),
                                        (Fraction(1, 2), 0), (-1, 1),
                                        (Fraction(-3, 4), 2))]
_rows_of_9 = st.lists(st.lists(st.sampled_from(_ENTRIES), min_size=9,
                               max_size=9), max_size=8)


@given(_rows_of_9)
@settings(max_examples=150, deadline=None)
def test_kernel_form_builds_the_eager_basis(rows):
    # dim read before the basis is built, then the lazily built basis and
    # pivots, against the subspace spanned by the eager nullspace
    matrix = dense(rows, 9)
    space = hodge.Subspace.kernel((1, 1), 3, matrix)
    eager = hodge.Subspace((1, 1), 3, matrix.nullspace())
    assert space.dim == eager.dim
    assert (space.basis, space.pivots) == (eager.basis, eager.pivots)
    assert space == eager


def _exact(matrix) -> DomainMatrix:
    """An engine matrix as a sympy DomainMatrix over Q(i)."""
    return DomainMatrix.from_Matrix(matrix_to_sympy(matrix)).convert_to(QQ_I)


@given(_rows_of_9, _rows_of_9,
       st.lists(st.sampled_from(_ENTRIES), min_size=9, max_size=9))
@settings(max_examples=100, deadline=None)
def test_subspace_rules_match_sympy_in_all_four_pairings(first, second,
                                                         element):
    # a span and a kernel of each random matrix of Lambda^{1,1} at n = 3,
    # each with sympy rows spanning it, and every pairing of a space from
    # the first matrix with one from the second
    spaces = []
    for rows in (first, second):
        matrix = dense(rows, 9)
        spaces.append([(hodge.Subspace((1, 1), 3, matrix), _exact(matrix)),
                       (hodge.Subspace.kernel((1, 1), 3, matrix),
                        _exact(matrix).nullspace())])
    # members: the element, and up to two basis rows of each space
    candidates = [dense([element], 9)] + [
        U.basis.row_slice(i, i + 1)
        for U, _ in spaces[0] + spaces[1] for i in range(min(U.dim, 2))]
    candidates = [(vector, _exact(vector)) for vector in candidates]
    for U, spanning in spaces[0] + spaces[1]:
        rank = spanning.rank()
        assert U.dim == rank
        # the equations are the reduced kernel of the basis, and annihilate it
        reduced, pivots = spanning.nullspace().rref()
        assert _exact(U.equations()).to_Matrix() == \
            reduced.to_Matrix()[:len(pivots), :]
        assert U.equations().apply(U.basis).is_zero()
        for vector, exact in candidates:
            assert U.member(vector) == (spanning.vstack(exact).rank() == rank)
    for U, u_span in spaces[0]:
        for V, v_span in spaces[1]:
            assert (U == V) == (u_span.rank() == v_span.rank()
                                == u_span.vstack(v_span).rank())
            assert (V == U) == (U == V)
            assert U.intersect(V) == transposed_stack_intersect(U, V)
            assert V.intersect(U) == U.intersect(V)
