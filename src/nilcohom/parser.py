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

Both grammars share one loop for ``( entry , ... )`` and one for
``term (+|-) term ...``, which the catalog's predicate language uses too;
the sign of a two-index term such as ``21`` or ``w21`` is that of
:func:`nilcohom.algebra.wedge_elements`.

Errors carry 1-based line/column positions pointing inside the offending
token.
"""

from __future__ import annotations

import re
from dataclasses import replace
from fractions import Fraction

from .algebra import BasisElement, Form, Gaussian, ONE, wedge_elements
from .model import ComplexStructureTemplate, Lit, Mod, Param, RealAlgebra


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

    # -- low-level ----------------------------------------------------------

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, offset: int = 0) -> str:
        k = self.pos + offset
        return self.text[k] if k < len(self.text) else ""

    def advance(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def skip_ws(self):
        while not self.at_end() and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def location(self, pos: int | None = None) -> tuple[int, int]:
        pos = self.pos if pos is None else pos
        pos = min(pos, len(self.text))
        line = self.text.count("\n", 0, pos) + 1
        last_newline = self.text.rfind("\n", 0, pos)
        return line, pos - last_newline

    def error(self, message: str, pos: int | None = None):
        line, column = self.location(pos)
        raise ParseError(message, line, column)

    # -- token helpers --------------------------------------------------------

    def expect(self, ch: str):
        self.skip_ws()
        if self.peek() != ch:
            self.error(f"expected '{ch}'")
        self.advance()

    def match(self, ch: str) -> bool:
        self.skip_ws()
        if self.peek() == ch:
            self.advance()
            return True
        return False

    def at_imaginary_unit(self) -> bool:
        """At a lone ``i``: the imaginary unit, not the start of a name."""
        after = self.peek(1)
        return self.peek() == "i" and not (after.isalnum() or after == "_")

    def at_gaussian(self) -> bool:
        """At the first character of a Gaussian literal."""
        ch = self.peek()
        return ch.isdigit() or ch == "-" or self.at_imaginary_unit()

    def scan_index(self) -> tuple[int, int]:
        """One index digit 1-9, returned with its position."""
        pos = self.pos
        ch = self.peek()
        if not ch.isdigit() or ch == "0":
            self.error("expected an index digit 1-9")
        self.advance()
        return int(ch), pos

    def scan_ident(self) -> tuple[str, int]:
        self.skip_ws()
        pos = self.pos
        m = re.match(r"[A-Za-z][A-Za-z0-9_]*", self.text[self.pos:])
        if not m:
            self.error("expected an identifier")
        self.pos += m.end()
        return m.group(0), pos

    def scan_unsigned(self) -> int:
        start = self.pos
        while self.peek().isdigit():
            self.advance()
        if self.pos == start:
            self.error("expected digits")
        return int(self.text[start:self.pos])

    def scan_rational(self) -> Fraction:
        self.skip_ws()
        negative = False
        if self.peek() == "-":
            self.advance()
            negative = True
            if not self.peek().isdigit():
                self.error("expected digits after '-'")
        num = self.scan_unsigned()
        den = 1
        if self.peek() == "/":
            mark = self.pos
            self.advance()
            if not self.peek().isdigit():
                self.error("malformed rational: expected a positive denominator")
            den = self.scan_unsigned()
            if den == 0:
                self.error("malformed rational: zero denominator", mark + 1)
        value = Fraction(num, den)
        return -value if negative else value

    def scan_gaussian(self) -> Gaussian:
        """``rational [ (+|-) rational? i ] | rational? i`` with backtracking."""
        self.skip_ws()
        if self.at_imaginary_unit():
            self.advance()
            return Gaussian.of(0, 1)
        re_part = self.scan_rational()
        self.skip_ws()
        if self.at_imaginary_unit():
            self.advance()
            return Gaussian.of(0, re_part)
        if self.peek() in "+-":
            mark = self.pos
            sign = -1 if self.advance() == "-" else 1
            self.skip_ws()
            magnitude = Fraction(1)
            if self.peek().isdigit():
                magnitude = self.scan_rational()
            self.skip_ws()
            if self.at_imaginary_unit():
                self.advance()
                return Gaussian.of(re_part, sign * magnitude)
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
        if sc.peek() == "+":
            sign = 1
        elif sc.peek() == "-":
            sign = -1
        else:
            return terms
        sc.advance()


def _parse_pair(sc: _Scanner, conjugable: bool) -> tuple[BasisElement, int]:
    """``ab``, or ``a~b`` if ``conjugable``: the monomial and its reordering sign."""
    a, _ = sc.scan_index()
    conjugated = conjugable and sc.peek() == "~"
    if conjugated:
        sc.advance()
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
    sc.skip_ws()
    if sc.peek() == "0":
        sc.advance()
        count = 1
        if sc.peek() == "^":
            sc.advance()
            count, _ = sc.scan_index()
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
    if sc.peek() == "0" and not sc.peek(1).isdigit():
        sc.advance()
        return [[]]
    return [_parse_sum(sc, lambda sc: (_parse_cterm_coeff(sc), _parse_wfactor(sc)))]


# a shift's literal in a modulus name: '/', '+', '-' are spelt '_', 'p', 'm'
_SPELLING = str.maketrans("/+-", "_pm")


def _parse_cterm_coeff(sc: _Scanner):
    """The optional ``coeff *`` prefix of a term; defaults to the literal 1."""
    sc.skip_ws()
    ch = sc.peek()
    if ch == "w" and sc.peek(1).isdigit():
        return Lit(ONE)
    if sc.at_gaussian():
        coeff = Lit(sc.scan_gaussian())
    elif ch.isalpha():
        word, pos = sc.scan_ident()
        if word == "conj" and sc.peek() == "(":
            sc.advance()
            name, _ = sc.scan_ident()
            sc.expect(")")
            coeff = Param(name, conjugated=True)
        elif word == "abs" and sc.peek() == "(":
            sc.advance()
            name, _ = sc.scan_ident()
            shift = Gaussian.of(0)
            if sc.match("-"):
                shift = sc.scan_gaussian()
            sc.expect(")")
            mod_name = "abs" + name + ("m" + str(shift).translate(_SPELLING) if shift else "")
            coeff = Mod(mod_name, name, shift)
        else:
            coeff = Param(word)
    else:
        sc.error("expected a coefficient or a w-term")
    sc.expect("*")
    return coeff


def _parse_wfactor(sc: _Scanner) -> tuple[BasisElement, int]:
    sc.skip_ws()
    if sc.peek() != "w":
        sc.error("expected a w-term")
    sc.advance()
    return _parse_pair(sc, True)


# ---------------------------------------------------------------------------
# bindings
# ---------------------------------------------------------------------------

def parse_binding(src: str) -> dict[str, Gaussian]:
    sc = _Scanner(src)
    values: dict[str, Gaussian] = {}
    sc.skip_ws()
    if sc.at_end():
        return values
    while True:
        name, pos = sc.scan_ident()
        if name in values:
            sc.error(f"repeated assignment to {name}", pos)
        sc.expect("=")
        values[name] = sc.scan_gaussian()
        sc.skip_ws()
        if sc.match(";"):
            sc.skip_ws()
            if sc.at_end():
                break
            continue
        if sc.at_end():
            break
        sc.error("expected ';' or end of input")
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
