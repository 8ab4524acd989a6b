"""Text surface for structure equations, templates and parameter bindings.

The notation is ASCII-only.  ``(0,0,0,0,13+42,14+23)`` declares a real algebra
by the differentials of its coframe, a term ``13`` meaning ``e^1 /\\ e^3``.
``(0, 0, w12 + B*w1~2 + abs(B-1)*w2~1)`` declares a complex-structure template:
``w12`` is ``w^1 /\\ w^2``, ``w1~2`` is ``w^1 /\\ wbar^2``, and coefficients are
exact Gaussian literals (``1/4``, ``i``, ``2+3i``), parameter names, ``conj(P)``
or declared modulus symbols ``abs(P)`` / ``abs(P-1)``.  Bindings read
``D=1/2+0i; lambda=0``.  Indices are single digits 1-9 and a duplicated index
inside one term is a parse error, not a silent zero.

A modulus symbol is bound by name: ``abs`` and the parameter, then ``m`` and
the shift's literal with ``/``, ``+`` and ``-`` spelt ``_``, ``p`` and ``m``.
So ``abs(B)`` is ``absB``, ``abs(B-1)`` is ``absBm1`` and ``abs(B-1/2+2i)`` is
``absBm1_2p2i``.

The lexical grammar is one table of compiled patterns at the top of this
module (whitespace, identifiers, digits and rationals, the index digit, the
imaginary unit), and the scanner reads every token by matching one of them
at its position.  Digits are ASCII ``0-9`` only: a superscript or an
Arabic-Indic digit is a parse error, never a number.  Both grammars share one
loop for ``( entry , ... )`` and one for ``term (+|-) term ...``, and the
catalog's predicate language reads its tokens and sums through the same
table and loop; the sign of a two-index term such as ``21`` or ``w21`` is
that of :func:`nilcohom.algebra.wedge_elements`.

Errors carry 1-based line/column positions pointing inside the offending
token.
"""

from __future__ import annotations

import re
from dataclasses import replace
from fractions import Fraction

from .algebra import BasisElement, Form, Gaussian, ONE, wedge_elements
from .model import ComplexStructureTemplate, Lit, Mod, Param, RealAlgebra

# The lexical grammar, ASCII only: the scanner reads each token by matching
# one of these patterns at its position.  Punctuation is read as literal text.
_WS = re.compile(r"[ \t\r\n]*")
_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_DIGITS = re.compile(r"[0-9]+")
# sign, numerator, slash, denominator; each may be empty, so that a malformed
# rational is reported at the part that is missing
_RATIONAL = re.compile(r"(-?)([0-9]*)(/?)([0-9]*)")
_INDEX = re.compile(r"[1-9]")
_I = re.compile(r"i(?![A-Za-z0-9_])")  # the imaginary unit, not the start of a name
_LITERAL = re.compile(r"[0-9-]|" + _I.pattern)  # the start of a Gaussian literal
_SIGN = re.compile(r"[+-]")
_ZERO = re.compile(r"0(?![0-9])")  # a zero entry, not the start of a literal
_W_TERM = re.compile(r"w[0-9]")  # a term with no coefficient
_COMPARATOR = re.compile(r"!=|<=|>=|=|<|>")


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        self.message = message
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def at(self, pattern: re.Pattern) -> bool:
        return pattern.match(self.text, self.pos) is not None

    def scan(self, pattern: re.Pattern, expected: str | None = None) -> str | None:
        """The token ``pattern`` matches here, consumed; if none matches, None,
        or the parse error ``expected`` when it is given."""
        m = pattern.match(self.text, self.pos)
        if m is None:
            if expected is not None:
                self.error(expected)
            return None
        self.pos = m.end()
        return m.group()

    def skip_ws(self):
        self.pos = _WS.match(self.text, self.pos).end()

    def location(self, pos: int | None = None) -> tuple[int, int]:
        pos = self.pos if pos is None else pos
        pos = min(pos, len(self.text))
        line = self.text.count("\n", 0, pos) + 1
        last_newline = self.text.rfind("\n", 0, pos)
        return line, pos - last_newline

    def error(self, message: str, pos: int | None = None):
        line, column = self.location(pos)
        raise ParseError(message, line, column)

    # -- punctuation, then the tokens of the table ---------------------------

    def accept(self, token: str) -> bool:
        """Consume ``token`` if the text goes on with it here."""
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def match(self, token: str) -> bool:
        self.skip_ws()
        return self.accept(token)

    def expect(self, token: str):
        if not self.match(token):
            self.error(f"expected '{token}'")

    def scan_index(self) -> tuple[int, int]:
        """One index digit 1-9, returned with its position."""
        pos = self.pos
        return int(self.scan(_INDEX, "expected an index digit 1-9")), pos

    def scan_ident(self) -> tuple[str, int]:
        self.skip_ws()
        pos = self.pos
        return self.scan(_IDENT, "expected an identifier"), pos

    def scan_unsigned(self) -> int:
        return int(self.scan(_DIGITS, "expected digits"))

    def scan_rational(self) -> Fraction:
        m = _RATIONAL.match(self.text, self.pos)
        minus, num, slash, den = m.groups()
        if not num:
            self.error("expected digits after '-'" if minus else "expected digits", m.start(2))
        if slash and not den:
            self.error("malformed rational: expected a positive denominator", m.start(4))
        den = int(den or 1)
        if not den:
            self.error("malformed rational: zero denominator", m.start(4))
        self.pos = m.end()
        value = Fraction(int(num), den)
        return -value if minus else value

    def scan_gaussian(self) -> Gaussian:
        """``rational [ (+|-) rational? i ] | rational? i`` with backtracking."""
        self.skip_ws()
        if self.scan(_I):
            return Gaussian.of(0, 1)
        re_part = self.scan_rational()
        self.skip_ws()
        if self.scan(_I):
            return Gaussian.of(0, re_part)
        mark = self.pos
        sign = self.scan(_SIGN)
        if sign:
            self.skip_ws()
            magnitude = self.scan_rational() if self.at(_DIGITS) else Fraction(1)
            self.skip_ws()
            if self.scan(_I):
                return Gaussian.of(re_part, -magnitude if sign == "-" else magnitude)
            self.pos = mark  # the sign belongs to the surrounding expression
        return Gaussian.of(re_part, 0)


def parse_gaussian(text: str) -> Gaussian:
    """Parse a standalone Gaussian literal, requiring full consumption."""
    sc = _Scanner(text)
    value = sc.scan_gaussian()
    sc.skip_ws()
    if not sc.at_end():
        sc.error("trailing characters after Gaussian literal")
    return value


# ---------------------------------------------------------------------------
# shared grammar: tuples, signed sums, two-index monomials
# ---------------------------------------------------------------------------

def _parse_tuple(sc: _Scanner, parse_entry) -> list:
    """``( entry , ... )`` filling the whole input; ``parse_entry`` returns a list."""
    sc.expect("(")
    entries = parse_entry(sc)
    while sc.match(","):
        entries += parse_entry(sc)
    sc.expect(")")
    sc.skip_ws()
    if not sc.at_end():
        sc.error("trailing characters after ')'")
    return entries


def _parse_sum(sc: _Scanner, parse_term) -> list:
    """``term (+|-) term ...`` as a list of (sign, position, term)."""
    terms = []
    sign = 1
    while True:
        sc.skip_ws()
        terms.append((sign, sc.pos, parse_term(sc)))
        sc.skip_ws()
        op = sc.scan(_SIGN)
        if op is None:
            return terms
        sign = -1 if op == "-" else 1


def _parse_pair(sc: _Scanner, conjugable: bool) -> tuple[BasisElement, int]:
    """``ab``, or ``a~b`` if ``conjugable``: the monomial and its reordering sign."""
    a, _ = sc.scan_index()
    conjugated = conjugable and sc.accept("~")
    b, pos = sc.scan_index()
    second = BasisElement((), (b,)) if conjugated else BasisElement((b,), ())
    merged = wedge_elements(BasisElement((a,), ()), second)
    if merged is None:
        sc.error(f"duplicate index {a} inside one term", pos)
    return merged


# ---------------------------------------------------------------------------
# real algebras
# ---------------------------------------------------------------------------

def parse_real_algebra(src: str) -> RealAlgebra:
    sc = _Scanner(src)
    raw_entries = _parse_tuple(sc, _parse_real_entry)
    dim = len(raw_entries)
    forms = []
    for terms in raw_entries:
        parts = []
        for sign, pos, (elem, orient) in terms:
            if elem.holo[1] > dim:
                sc.error(f"index out of range for dimension {dim}", pos)
            parts.append((elem, Gaussian.of(sign * orient)))
        forms.append(Form(parts))
    return RealAlgebra(dim, forms)


def _parse_real_entry(sc: _Scanner) -> list:
    """One entry, or k empty entries for ``0^k``."""
    if sc.match("0"):
        count = sc.scan_index()[0] if sc.accept("^") else 1
        return [[]] * count
    return [_parse_sum(sc, lambda sc: _parse_pair(sc, False))]


# ---------------------------------------------------------------------------
# complex-structure templates
# ---------------------------------------------------------------------------

def parse_complex_structure(src: str) -> ComplexStructureTemplate:
    sc = _Scanner(src)
    raw_entries = _parse_tuple(sc, _parse_cform)
    n = len(raw_entries)
    params: list[str] = []
    moduli: dict[str, Mod] = {}
    entries = []
    for terms in raw_entries:
        out = []
        for sign, pos, (coeff, (elem, orient)) in terms:
            if max(elem.holo + elem.anti) > n:
                sc.error(f"index out of range for complex dimension {n}", pos)
            if sign * orient < 0:
                coeff = _negate_expr(coeff)
            if isinstance(coeff, Param) and coeff.name not in params:
                params.append(coeff.name)
            if isinstance(coeff, Mod):
                mod = replace(coeff, negated=False)
                if moduli.setdefault(mod.name, mod) != mod:
                    sc.error(f"conflicting declarations of {mod.name}", pos)
                if mod.param not in params:
                    params.append(mod.param)
            out.append((coeff, elem))
        entries.append(tuple(out))
    return ComplexStructureTemplate(
        n, entries, params=params, moduli=list(moduli.values())
    )


def _negate_expr(expr):
    if isinstance(expr, Lit):
        return Lit(-expr.value)
    return replace(expr, negated=not expr.negated)


def _parse_cform(sc: _Scanner) -> list:
    sc.skip_ws()
    if sc.scan(_ZERO):
        return [[]]
    return [_parse_sum(sc, lambda sc: (_parse_cterm_coeff(sc), _parse_wfactor(sc)))]


# a shift's literal in a modulus name: '/', '+', '-' are spelt '_', 'p', 'm'
_SPELLING = str.maketrans("/+-", "_pm")


def _parse_cterm_coeff(sc: _Scanner):
    """The optional ``coeff *`` prefix of a term; defaults to the literal 1."""
    sc.skip_ws()
    if sc.at(_W_TERM):
        return Lit(ONE)
    if sc.at(_LITERAL):
        coeff = Lit(sc.scan_gaussian())
    else:
        word = sc.scan(_IDENT, "expected a coefficient or a w-term")
        if word == "conj" and sc.accept("("):
            name, _ = sc.scan_ident()
            sc.expect(")")
            coeff = Param(name, conjugated=True)
        elif word == "abs" and sc.accept("("):
            name, _ = sc.scan_ident()
            shift = Gaussian.of(0)
            if sc.match("-"):
                shift = sc.scan_gaussian()
            sc.expect(")")
            mod_name = "abs" + name + ("m" + str(shift).translate(_SPELLING) if shift else "")
            coeff = Mod(mod_name, name, shift)
        else:
            coeff = Param(word)
    sc.expect("*")
    return coeff


def _parse_wfactor(sc: _Scanner) -> tuple[BasisElement, int]:
    if not sc.match("w"):
        sc.error("expected a w-term")
    return _parse_pair(sc, True)


# ---------------------------------------------------------------------------
# bindings
# ---------------------------------------------------------------------------

def parse_binding(src: str) -> dict[str, Gaussian]:
    sc = _Scanner(src)
    values: dict[str, Gaussian] = {}
    sc.skip_ws()
    while not sc.at_end():
        name, pos = sc.scan_ident()
        if name in values:
            sc.error(f"repeated assignment to {name}", pos)
        sc.expect("=")
        values[name] = sc.scan_gaussian()
        if not sc.match(";") and not sc.at_end():
            sc.error("expected ';' or end of input")
        sc.skip_ws()
    return values


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render(x) -> str:
    """Canonical text; parsing the result reproduces the value."""
    if isinstance(x, RealAlgebra):
        return _render_real(x)
    if isinstance(x, ComplexStructureTemplate):
        return _render_template(x)
    raise TypeError(f"cannot render {type(x).__name__}")


def _render_real(a: RealAlgebra) -> str:
    entries = []
    for f in a.d_of_e:
        if f.is_zero():
            entries.append("0")
            continue
        parts = []
        for elem, coeff in f.items():
            lo, hi = elem.holo
            if coeff.re == 1 and not coeff.im:
                parts.append(f"{lo}{hi}")
            elif coeff.re == -1 and not coeff.im:
                # negative terms are encoded by swapping the indices
                parts.append(f"{hi}{lo}")
            else:
                raise ValueError(f"coefficient {coeff} is not renderable as ab/ba")
        entries.append("+".join(parts))
    return "(" + ",".join(entries) + ")"


def _coeff_text(expr) -> tuple[str, bool]:
    """Return (text-without-leading-minus, subtract) for one coefficient."""
    if isinstance(expr, Lit):
        v = expr.value
        if v.re < 0 or (not v.re and v.im < 0):
            return _lit_text(-v), True
        return _lit_text(v), False
    if isinstance(expr, Param):
        body = f"conj({expr.name})*" if expr.conjugated else f"{expr.name}*"
        return body, expr.negated
    body = f"abs({expr.param})*" if not expr.shift else f"abs({expr.param}-{expr.shift})*"
    return body, expr.negated


def _lit_text(v: Gaussian) -> str:
    return "" if v == ONE else f"{v}*"


def _render_template(t: ComplexStructureTemplate) -> str:
    entries = []
    for entry in t.d_of_omega:
        if not entry:
            entries.append("0")
            continue
        ordered = sorted(entry, key=lambda ce: (ce[1].bidegree != (2, 0), ce[1]))
        # the grammar has no leading minus on a symbol: lead with another term
        lead = next((k for k, (coeff, _) in enumerate(ordered)
                     if isinstance(coeff, Lit) or not coeff.negated), 0)
        ordered.insert(0, ordered.pop(lead))
        entries.append("".join(_term_text(coeff, elem, k == 0)
                               for k, (coeff, elem) in enumerate(ordered)))
    return "(" + ",".join(entries) + ")"


def _term_text(coeff, elem: BasisElement, leading: bool) -> str:
    body, subtract = _coeff_text(coeff)
    if not leading:
        return ("-" if subtract else "+") + f"{body}{elem}"
    if not subtract:
        return f"{body}{elem}"
    if isinstance(coeff, Lit):
        return f"{coeff.value}*{elem}"  # signed literal is grammar-legal
    if elem.bidegree == (2, 0):
        lo, hi = elem.holo
        return f"{body}w{hi}{lo}"  # the swapped indices carry the sign
    raise ValueError("cannot render a leading negated symbol")


def render_binding(b: dict[str, Gaussian]) -> str:
    return "; ".join(f"{name}={value}" for name, value in sorted(b.items()))
