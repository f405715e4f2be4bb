"""Manifold specifications: the `.akspec` DSL, real-coframe ingestion, and
structural validation (d^2 = 0, omega real/closed/positive, unitary-mode
detection).

The DSL is line-oriented UTF-8 with `#` comments:

    manifold <name>
    dim <2n>
    coframe phi1 .. phin
    symbol <name> [real | conj <other>] [nonzero] [invertible]
                  [d = <1-form expr> | d = opaque]
    d phi<j> = <sum of coeff * monomial>
    omega = <(1,1)-form expr>

A directive word ends at whitespace or at `=`, so `omega=...` reads as
`omega = ...`.

Digits are ASCII `0-9`.  Monomials are written `phi{I,J}` with one digit
per index (e.g. `phi{13,2}` for phi^13 wedge phibar^2, hence 2n <= 18).  A
form is the text that `Form.render` writes, such as
`(1/2-i)*phi{1,1} + (F + (1+i)*G^-1)*phi{2,2}`:

    form   := "0" | sum
    sum    := term (("+" | "-") term)*
    term   := ("+" | "-")* factor ("*" factor)*
    factor := a[/b] | "i" | name ["^" [-]k] | "(" sum ")" | phi{I,J}

where a term of the form has one monomial and a term in parentheses, nested
at most `MAX_NESTING` deep, has none.

The `invertible` flag is informational: `parse_spec` accepts it and
`render_spec` writes it back, but nothing else reads it, and a negative
exponent is accepted on any symbol, flagged or not.

`ManifoldSpec.symbols` is a plain dict from name to `FunctionSymbol`.  The
parser owns every check on it: `_parse_symbol_line` rejects a name declared
twice, and `parse_spec` rejects a conjugate partner that is undeclared or
does not pair back.  `manifold`, `dim`, `coframe` and `omega` each appear
once; a repeat is rejected at its line, as a second `d` line for one
generator is.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from . import operators
from .exterior import (BasisMonomial, Form, Pairing, RealForm,
                       check_pairing, real_to_complex)
from .scalars import (GaussianRational, I, FunctionSymbol, SymScalar,
                      ZERO, collect, decimal_text, from_ints)


MAX_DIM = 18  # indices in `phi{I,J}` are single digits 1..9
MAX_NESTING = 100  # levels of parentheses, each one recursive call


class SpecError(Exception):
    """Base for every spec-processing failure."""

    def __init__(self, message: str, line: int | str | None = None,
                 col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            where = line if isinstance(line, str) else f"line {line}"
            where += f", col {col}" if col is not None else ""
            message = f"{where}: {message}"
        super().__init__(message)


class SpecSyntaxError(SpecError):
    pass


class UnknownSymbolError(SpecError):
    pass


class DegreeMismatchError(SpecError):
    pass


class NonRealOmegaError(SpecError):
    pass


class InvalidSpecError(SpecError):
    """A structural check failed with every needed derivative known."""


class ManifoldSpec:
    """An immutable manifold description; flags are computed once.

    `unitary_scale` is the positive rational c with
    omega = (i c / 2) * sum_j phi^{j jbar}, or None.  `almost_kahler` holds
    when d(omega) = 0 and `omega_positive` is not False (see `_read_omega`);
    a symbolic omega whose constant diagonal admits a metric is flagged by
    closedness alone.
    """

    def __init__(self, name: str, n: int, coframe: tuple[str, ...],
                 symbols: dict[str, FunctionSymbol],
                 structure: dict[int, Form], omega: Form):
        self.name = name
        self.n = n
        self.coframe = tuple(coframe)
        self.symbols = symbols
        # a zero equation is no equation, as `render_spec` writes it
        self.structure = {j: form for j, form in structure.items() if form}
        self.omega = omega
        self._cache: dict = {}
        self.constant_coefficient = (
            omega.is_constant_coefficient()
            and all(f.is_constant_coefficient() for f in structure.values()))
        self.unitary_scale, self.omega_positive = _read_omega(omega, n)
        self._domega_status, closed = _closedness_of_omega(self)
        self.almost_kahler = closed and self.omega_positive is not False

    def d_generator(self, j: int) -> Form:
        return self.structure.get(j, Form.zero())

    def __eq__(self, other):
        if not isinstance(other, ManifoldSpec):
            return NotImplemented
        return (self.name == other.name and self.n == other.n
                and self.coframe == other.coframe
                and self.symbols == other.symbols
                and self.structure == other.structure
                and self.omega == other.omega)

    __hash__ = None  # mutable cache inside

    def __repr__(self):
        return f"ManifoldSpec({self.name!r}, n={self.n})"


def _read_omega(omega: Form, n: int) -> tuple[Fraction | None, bool | None]:
    """(unitary_scale, omega_positive) of omega = sum c_jk phi^j ^ phibar^k,
    read from H = (-2i c_jk), Hermitian as omega is real.

    The scale is c when H = c I with c real and positive.  `omega_positive`
    is whether H is positive definite, that is whether every pivot of its
    elimination in order (the D of H = L D L^H) is real and positive.  Such
    an H has a real, positive diagonal, so a constant diagonal entry that is
    not gives False even when other entries are symbolic; otherwise a
    symbolic H gives (None, None)."""
    H = [[ZERO] * n for _ in range(n)]
    for monomial, coeff in omega.terms():
        (j,), (k,) = monomial.holo, monomial.anti
        H[j - 1][k - 1] = (coeff.constant_value() * GaussianRational(0, -2)
                           if coeff.is_constant() else None)
    if any(H[k][k] is not None and (H[k][k].im or H[k][k].re <= 0)
           for k in range(n)):
        return None, False
    if any(None in row for row in H):
        return None, None
    c = H[0][0]
    unitary = H == [[c if j == k else ZERO for k in range(n)]
                    for j in range(n)]
    for k in range(n):
        pivot = H[k][k]
        if pivot.im or pivot.re <= 0:
            return None, False
        for i in range(k + 1, n):
            factor = -H[i][k] / pivot
            for j in range(k + 1, n):
                H[i][j] += factor * H[k][j]
    return (c.re if unitary else None), True


def _closedness_of_omega(spec: ManifoldSpec) -> tuple[str, bool]:
    try:
        domega = operators.ext_d(spec, spec.omega)
    except operators.OpaqueDerivativeError:
        return "opaque", False
    return ("closed", True) if domega.is_zero() else ("nonclosed", False)


# ---------------------------------------------------------------------------
# Expression parsing: tokens are (kind, text, col) tuples, an operator's
# kind its own character; nothing keyed by the text is cached.

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<mono>phi\{(?P<holo>[0-9]*),(?P<anti>[0-9]*)\})"
    r"|(?P<number>[0-9]+(?:/[0-9]+)?)"
    r"|(?P<pow>\^-?[0-9]+)"
    r"|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op>[+\-*()])"
    r"|(?P<bad>\S))")

# the mask of each of the 2^9 strictly ascending index strings
_MASKS = {"".join(map(str, c)): sum(1 << j for j in c)
          for k in range(10) for c in combinations(range(1, 10), k)}


def _tokenize(text: str, line: int | str, col_offset: int = 0) -> list[tuple]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        tok = m.group(kind)
        col = col_offset + m.start(kind) + 1
        if kind == "mono":
            tokens.append((kind, tok, col, *m.group("holo", "anti")))
        elif kind == "bad":
            raise SpecSyntaxError(f"unexpected character {tok!r}", line, col)
        else:
            tokens.append((tok if kind == "op" else kind, tok, col))
    return tokens


def _index_error(tok: tuple, n: int, line: int | str) -> SpecSyntaxError:
    """The error of a phi{I,J} token whose I, else J, is not a strictly
    ascending string of indices 1..n."""
    for digits in tok[3:]:
        bad = [ch for ch in digits if not 1 <= int(ch) <= n]
        if bad or digits not in _MASKS:
            return SpecSyntaxError(
                f"coframe index {bad[0]} out of range 1..{n}" if bad else
                f"indices {digits!r} must be strictly ascending", line, tok[2])


def _number(text: str, line: int | str, col: int) -> tuple[int, int]:
    """The ints (a, b) of a literal `a` (b = 1) or `a/b`; SpecSyntaxError
    past the interpreter's int string-conversion limit."""
    num, _, den = text.partition("/")
    try:
        return int(num), int(den or 1)
    except ValueError:
        raise SpecSyntaxError(
            f"number literal of {len(text)} characters is too long",
            line, col) from None


def _parse_terms(tokens: list[tuple], pos: int, n: int,
                 symbols: dict[str, FunctionSymbol], line: int | str,
                 groups: tuple[int, ...] = ()) -> tuple[list[tuple], int]:
    """The signed (monomial, coefficient) terms from tokens[pos] on, and
    where they stop: the end, or the ')' closing the '(' at column
    groups[-1].  A term of the expression has one monomial; a term in
    parentheses has none.

    A term's coefficient is built once: its numbers, `i` and sign multiply
    the Q(i) constant (re + im*i)/den, its symbols add their exponents, and
    its parenthesized sums multiply that product."""
    end = len(tokens)
    terms = []
    while True:
        re, im, den = 1, 0, 1
        while pos < end and tokens[pos][0] in ("+", "-"):
            if tokens[pos][0] == "-":
                re = -re
            pos += 1
        exponents, sums, monomial = {}, [], None
        expect_factor = True
        while pos < end:
            tok = tokens[pos]
            kind = tok[0]
            if kind in ("+", "-"):
                break
            if kind == ")":
                if not groups:
                    raise SpecSyntaxError("unmatched ')'", line, tok[2])
                break
            if kind == "*":
                if expect_factor:
                    raise SpecSyntaxError("misplaced '*'", line, tok[2])
                expect_factor = True
                pos += 1
                continue
            if not expect_factor:
                raise SpecSyntaxError(f"missing '*' before {tok[1]!r}",
                                      line, tok[2])
            if kind == "mono":
                if monomial is not None:
                    raise SpecSyntaxError("two monomials in one term",
                                          line, tok[2])
                holo, anti = _MASKS.get(tok[3]), _MASKS.get(tok[4])
                if holo is None or anti is None or (holo | anti) >> n + 1:
                    raise _index_error(tok, n, line)
                monomial = BasisMonomial.of_masks(holo, anti)
            elif kind == "number":
                num, div = _number(tok[1], line, tok[2])
                if not div:
                    raise SpecSyntaxError(f"zero denominator in {tok[1]!r}",
                                          line, tok[2])
                re, im, den = re * num, im * num, den * div
            elif kind == "name":
                name = tok[1]
                if name == "i":
                    re, im = -im, re
                elif name not in symbols:
                    raise UnknownSymbolError(f"unknown symbol {name!r}",
                                             line, tok[2])
                else:
                    exponent = 1
                    if pos + 1 < end and tokens[pos + 1][0] == "pow":
                        pos += 1
                        exponent = _number(tokens[pos][1][1:], line,
                                           tokens[pos][2])[0]
                    exponents[name] = exponents.get(name, 0) + exponent
            elif kind == "(":
                if pos + 1 < end and tokens[pos + 1][0] == ")":
                    raise SpecSyntaxError("empty parentheses", line, tok[2])
                if len(groups) == MAX_NESTING:
                    raise SpecSyntaxError(
                        f"parentheses nested deeper than {MAX_NESTING}",
                        line, tok[2])
                inner, pos = _parse_terms(tokens, pos + 1, n, symbols, line,
                                          groups + (tok[2],))
                sums.append(sum((c for _, c in inner), SymScalar.zero()))
            else:
                raise SpecSyntaxError(f"unexpected token {tok[1]!r}",
                                      line, tok[2])
            expect_factor = False
            pos += 1
        if groups and pos == end:
            raise SpecSyntaxError("unclosed '('", line, groups[-1])
        if expect_factor:
            raise SpecSyntaxError("dangling operator", line)
        if groups and monomial is not None:
            raise SpecSyntaxError("a basis monomial inside parentheses",
                                  line, groups[-1])
        if not groups and monomial is None:
            raise SpecSyntaxError("term lacks a basis monomial phi{..,..}",
                                  line)
        value = from_ints(re, im, den)
        coeff = (SymScalar._of_const(value) if value and not exponents else
                 SymScalar({tuple(sorted((name, k) for name, k
                                         in exponents.items() if k)): value}))
        for factor in sums:
            coeff = coeff * factor
        terms.append((monomial, coeff))
        if pos == end or tokens[pos][0] == ")":
            return terms, pos


def parse_form(text: str, n: int,
               symbols: dict[str, FunctionSymbol] | None = None,
               line: int | str = "form") -> Form:
    """Parse a form expression in the DSL grammar; errors are located at
    `line` (a spec line number, or a name such as "--form")."""
    return _parse_expr(text, 0, n, symbols or {}, line)


def _parse_expr(text: str, col_offset: int, n: int,
                symbols: dict[str, FunctionSymbol], line: int | str) -> Form:
    """parse_form of an expression that starts after column col_offset of
    its line, so that errors give columns of the raw line."""
    tokens = _tokenize(text, line, col_offset)
    if not tokens:
        raise SpecSyntaxError("empty expression", line)
    if len(tokens) == 1 and tokens[0][1] == "0":
        return Form.zero()
    terms, _ = _parse_terms(tokens, 0, n, symbols, line)
    return Form._of(collect(terms))


# ---------------------------------------------------------------------------
# Spec parsing

def parse_spec(text: str) -> ManifoldSpec:
    name = None
    n = None
    coframe: list[str] = []
    symbols: dict[str, FunctionSymbol] = {}
    structure: dict[int, Form] = {}
    omega: Form | None = None
    pending_derivatives: list[tuple[str, str, int, int]] = []
    declared_at: dict[str, int] = {}
    first_at: dict[str, int] = {}  # the line of each once-only directive

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        lead = len(raw) - len(raw.lstrip())  # the index of line[0] in raw
        words = line.split()
        head = re.split(r"[\s=]", line, maxsplit=1)[0]  # "omega=" too
        if head in ("manifold", "dim", "coframe", "omega"):
            if head in first_at:
                raise SpecSyntaxError(f"duplicate {head} line (first at line "
                                      f"{first_at[head]})", line_no)
            first_at[head] = line_no
        if head == "manifold":
            if len(words) != 2:
                raise SpecSyntaxError("expected: manifold <name>", line_no)
            name = words[1]
        elif head == "dim":
            if len(words) != 2 or not re.fullmatch("[0-9]+", words[1]):
                raise SpecSyntaxError("expected: dim <2n>", line_no)
            dim = _number(words[1], line_no, raw.find(words[1]) + 1)[0]
            if dim % 2 or dim < 2:
                raise SpecSyntaxError(f"dim must be even and positive, got {dim}",
                                      line_no)
            if dim > MAX_DIM:
                raise SpecSyntaxError(
                    f"dim {dim} exceeds the limit {MAX_DIM}: coframe indices "
                    "are single digits 1..9", line_no)
            n = dim // 2
        elif head == "coframe":
            coframe = words[1:]
            if n is None:
                raise SpecSyntaxError("dim must precede coframe", line_no)
            if len(coframe) != n:
                raise SpecSyntaxError(
                    f"coframe lists {len(coframe)} names, expected {n}", line_no)
            if len(set(coframe)) != n:
                raise SpecSyntaxError("duplicate coframe names", line_no)
        elif head == "symbol":
            if n is None:
                raise SpecSyntaxError("dim must precede symbol declarations",
                                      line_no)
            sym_name = _parse_symbol_line(line, line_no, lead, symbols,
                                          pending_derivatives)
            declared_at[sym_name] = line_no
        elif head == "d":
            if n is None or not coframe:
                raise SpecSyntaxError("coframe must precede structure equations",
                                      line_no)
            rest = line[1:].lstrip()
            if "=" not in rest:
                raise SpecSyntaxError("expected: d <generator> = <2-form>",
                                      line_no)
            gen_name, expr = rest.split("=", 1)
            gen_name = gen_name.strip()
            if gen_name not in coframe:
                raise SpecSyntaxError(f"{gen_name!r} is not a coframe generator",
                                      line_no)
            j = coframe.index(gen_name) + 1
            if j in structure:
                raise SpecSyntaxError(f"duplicate structure equation for "
                                      f"{gen_name}", line_no)
            form = _parse_expr(expr, lead + line.index("=") + 1, n, symbols,
                               line_no)
            bad = [pq for pq in form.bidegrees() if pq[0] + pq[1] != 2]
            if bad:
                raise DegreeMismatchError(
                    f"d {gen_name} contains a term of bidegree {bad[0]}, "
                    "expected total degree 2", line_no)
            structure[j] = form
        elif head == "omega":
            rest = line[5:].lstrip()
            if not rest.startswith("="):
                raise SpecSyntaxError("expected: omega = <(1,1)-form>", line_no)
            if n is None:
                raise SpecSyntaxError("dim must precede omega", line_no)
            omega = _parse_expr(rest[1:], lead + line.index("=") + 1, n,
                                symbols, line_no)
            if omega.bidegrees() not in ([], [(1, 1)]):
                raise DegreeMismatchError(
                    f"omega has bidegrees {omega.bidegrees()}, expected (1,1)",
                    line_no)
        else:
            raise SpecSyntaxError(f"unknown directive {head!r}", line_no)

    if name is None:
        raise SpecSyntaxError("missing manifold line")
    if n is None:
        raise SpecSyntaxError("missing dim line")
    if not coframe:
        raise SpecSyntaxError("missing coframe line")
    if omega is None:
        raise SpecSyntaxError("missing omega line")

    for sym in symbols.values():
        partner = symbols.get(sym.conj_name)
        if partner is None:
            raise SpecSyntaxError(f"symbol {sym.name!r} pairs with undeclared "
                                  f"{sym.conj_name!r}", declared_at[sym.name])
        if partner.conj_name != sym.name:
            raise SpecSyntaxError(
                f"conjugate pairing {sym.name!r} <-> {sym.conj_name!r} is not "
                "involutive", declared_at[sym.name])
    for sym_name, expr, line_no, col_offset in pending_derivatives:
        form = _parse_expr(expr, col_offset, n, symbols, line_no)
        if any(p + q != 1 for p, q in form.bidegrees()):
            raise DegreeMismatchError(
                f"derivative of {sym_name} must be a 1-form", line_no)
        symbols[sym_name].derivative = form

    if omega.conj(symbols) != omega:
        raise NonRealOmegaError("omega is not a real form")

    return ManifoldSpec(name, n, tuple(coframe), symbols, structure, omega)


def _parse_symbol_line(line: str, line_no: int, lead: int,
                       symbols: dict[str, FunctionSymbol],
                       pending: list[tuple[str, str, int, int]]) -> str:
    """Declare the symbol of one `symbol` line, which starts after column
    lead of the raw line, and return its name."""
    m = re.match(r"symbol\s+([A-Za-z_]\w*)\s*(.*)$", line)
    if m is None:
        raise SpecSyntaxError("expected: symbol <name> [...]", line_no)
    sym_name, rest = m.group(1), m.group(2)
    if sym_name in ("i", "d", "opaque"):
        raise SpecSyntaxError(f"reserved symbol name {sym_name!r}", line_no)
    derivative_expr: str | None = None
    dm = re.search(r"(?:^|\s)d\s*=\s*(.*)$", rest)
    if dm:
        body = dm.group(1).strip()
        if not body:
            raise SpecSyntaxError("expected: d = <1-form> | d = opaque",
                                  line_no)
        if body != "opaque":
            derivative_expr = body
            derivative_col = lead + m.start(2) + dm.start(1)
        rest = rest[:dm.start()].strip()
    conj_name = sym_name
    nonzero = invertible = False
    attrs = iter(rest.split())
    for word in attrs:
        if word == "real":
            conj_name = sym_name
        elif word == "conj":
            conj_name = next(attrs, None)
            if conj_name is None:
                raise SpecSyntaxError("conj needs a partner name", line_no)
        elif word == "nonzero":
            nonzero = True
        elif word == "invertible":
            invertible = True
        else:
            raise SpecSyntaxError(f"unknown symbol attribute {word!r}", line_no)
    if sym_name in symbols:
        raise SpecSyntaxError(f"symbol {sym_name!r} declared twice", line_no)
    symbols[sym_name] = FunctionSymbol(sym_name, conj_name, nonzero=nonzero,
                                       invertible=invertible)
    if derivative_expr is not None:
        pending.append((sym_name, derivative_expr, line_no, derivative_col))
    return sym_name


# ---------------------------------------------------------------------------
# Rendering (canonical, round-trips through parse_spec)

def render_spec(spec: ManifoldSpec) -> str:
    lines = [f"manifold {spec.name}", f"dim {2 * spec.n}",
             "coframe " + " ".join(spec.coframe)]
    for sym in spec.symbols.values():
        attrs = ["real" if sym.is_real else f"conj {sym.conj_name}"]
        if sym.nonzero:
            attrs.append("nonzero")
        if sym.invertible:
            attrs.append("invertible")
        attrs.append("d = " + ("opaque" if sym.derivative is None
                               else sym.derivative.render()))
        lines.append(f"symbol {sym.name} " + " ".join(attrs))
    for j in range(1, spec.n + 1):
        form = spec.structure.get(j)
        if form:
            lines.append(f"d {spec.coframe[j - 1]} = " + form.render())
    lines.append("omega = " + spec.omega.render())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Real presentations

@dataclass
class RealFramePresentation:
    """Structure equations on a real coframe e^1..e^{2n} plus the matching
    phi^j = e^{a_j} + i e^{b_j}."""

    n: int
    de: dict[int, RealForm] = field(default_factory=dict)
    pairing: Pairing = ()

    def __post_init__(self):
        check_pairing(self.pairing, self.n)
        for a, form in self.de.items():
            if not 1 <= a <= 2 * self.n:
                raise ValueError(f"de^{a}: index out of range")
            if any(len(mono) != 2 for mono in form):
                raise ValueError(f"de^{a} is not a 2-form")


def real_two_form(terms: list[tuple[int, int, int]]) -> RealForm:
    """Build a real 2-form from (coefficient, i, j) triples with i < j."""
    pairs = []
    for coeff, i, j in terms:
        if not i < j:
            raise ValueError(f"real indices must ascend: ({i},{j})")
        pairs.append(((i, j), SymScalar.const(coeff)))
    return collect(pairs)


def complexify(real: RealFramePresentation) -> dict[int, Form]:
    """Express each d(phi^j) = d e^{a_j} + i d e^{b_j} in the complex basis."""
    out: dict[int, Form] = {}
    for j, (a_idx, b_idx) in enumerate(real.pairing, start=1):
        form = (real_to_complex(real.de.get(a_idx, {}), real.pairing)
                + real_to_complex(real.de.get(b_idx, {}), real.pairing) * I)
        if not form.is_zero():
            out[j] = form
    return out


# ---------------------------------------------------------------------------
# Validation

@dataclass
class ValidationItem:
    check: str
    status: str  # Verified | SkippedOpaque | Failed | Info
    detail: str = ""

    def to_dict(self) -> dict:
        return {"check_id": self.check, "status": self.status,
                "detail": self.detail}


@dataclass
class ValidationReport:
    spec_name: str
    items: list[ValidationItem]

    @property
    def ok(self) -> bool:
        return all(item.status != "Failed" for item in self.items)

    def to_dict(self) -> dict:
        return {"spec_name": self.spec_name, "ok": self.ok,
                "items": [item.to_dict() for item in self.items]}


def validate(spec: ManifoldSpec) -> ValidationReport:
    """Structural checks; raises InvalidSpecError on a hard failure."""
    items: list[ValidationItem] = []
    for j in range(1, spec.n + 1):
        gen = spec.coframe[j - 1]
        try:
            dd = operators.ext_d(spec, spec.d_generator(j))
        except operators.OpaqueDerivativeError as exc:
            items.append(ValidationItem(f"d2_{gen}", "SkippedOpaque",
                                        f"needs d({exc.symbol})"))
            continue
        if dd.is_zero():
            items.append(ValidationItem(f"d2_{gen}", "Verified"))
        else:
            raise InvalidSpecError(
                f"d^2({gen}) = {dd.render()} != 0 with all derivatives known")

    if spec.omega.conj(spec.symbols) == spec.omega:
        items.append(ValidationItem("omega_real", "Verified"))
    else:
        raise InvalidSpecError("omega is not real")

    flag = "almost_kahler = " + str(spec.almost_kahler).lower()
    if spec._domega_status == "closed":
        items.append(ValidationItem("omega_closed", "Verified", flag))
    elif spec._domega_status == "opaque":
        items.append(ValidationItem("omega_closed", "SkippedOpaque", flag))
    else:
        items.append(ValidationItem("omega_closed", "Failed",
                                    "d(omega) != 0; " + flag))

    if spec.unitary_scale is not None:
        items.append(ValidationItem("unitary_mode", "Verified",
                                    "scale = "
                                    + decimal_text(spec.unitary_scale)))
        if spec.constant_coefficient:
            items.append(ValidationItem("omega_positive", "Verified",
                                        "unitary coframe, positivity automatic"))
    else:
        items.append(ValidationItem("unitary_mode", "Info",
                                    "omega is not of unitary shape"))
        if spec.omega_positive is not None:
            items.append(ValidationItem(
                "omega_positive",
                "Verified" if spec.omega_positive else "Failed",
                "H = -2i(c_jk) is "
                + ("" if spec.omega_positive else "not ")
                + "positive definite"))
    return ValidationReport(spec.name, items)
