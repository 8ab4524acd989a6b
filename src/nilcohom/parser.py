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
imaginary unit).  Digits are ASCII ``0-9`` only: a superscript or an
Arabic-Indic digit is a parse error, never a number.

The scanner matches one token of the table at a time.  A real algebra is
read by it alone: one scanner loop for ``( entry , ... )`` and one for
``term (+|-) term ...``, which the catalog's predicate language shares with
its tokens; the sign of a two-index term such as ``21`` or ``w21`` is that
of :func:`nilcohom.algebra.wedge_elements`, looked up in a table of all 162
pairs.

A template or a binding is read by one loop over its items, each taken
with one match of a pattern composed from the table's pieces: ``_ITEM``
for a template term or zero entry with its separator (``3/37+17/111i*w1~2,``,
``D*w2~2+``, ``w12)``, ``0,``), ``_ASSIGNMENT`` for a binding's
``name = literal`` with its ``;``.  One builder makes a reduced triple of a
literal's integers for both.  The scanner reads, from its start, only an
item that this match cannot take: a ``conj(..)`` or ``abs(..)``
coefficient, a repeated index or name, a zero entry after a sign, and
every error, so that each error keeps its message and position.  A text
that the patterns read whole makes no scanner.

Errors carry 1-based line/column positions pointing inside the offending
token.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import BasisElement, Form, Gaussian, ONE, _reduced, wedge_elements
from .model import ComplexStructureTemplate, Lit, Mod, Param, RealAlgebra

# The lexical grammar, ASCII only: the scanner reads each token by matching
# one of these patterns at its position, and the readers' patterns below are
# composed from them.  Punctuation is read as literal text.
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
_DENOMINATOR = re.compile(r"0*[1-9][0-9]*")  # positive: the scanner reports a zero one
# a Gaussian literal in eight groups, built by _gaussian: 'i', or a rational
# then 'i' or a signed tail '(+|-) rational? i'
_GAUSSIAN = (r"(?:({i})|(-?)({d})(?:/({q}))?{s}(?:({i})|({sign}){s}(?:({d})(?:/({q}))?)?{s}{i})?)"
             .format(i=_I.pattern, d=_DIGITS.pattern, q=_DENOMINATOR.pattern, s=_WS.pattern,
                     sign=_SIGN.pattern))
# one item of a template, at the start of an entry or after a sign:
# a zero entry, or a whole term ``[coeff *] w a [~] b``, then the separator
# after it.  The coefficient, absent from a bare w-term, is a literal or a
# plain name that is not a w-term.  A zero is never backtracked into a
# literal: '0/7*w12' is not a term here.
_END = re.compile(r"[,)]")  # the end of an entry, the separator after a zero entry
_SEPARATOR = re.compile(r"[-+,)]")  # the separator after a term
_ITEM = re.compile(
    r"(?:{zero}(?={s}{end})|(?!{zero})(?:({lit}|((?!{w}){name})){s}\*{s})?w({x}~?{x}))"
    r"{s}({sep}){s}".format(
        zero=_ZERO.pattern, end=_END.pattern, lit=_GAUSSIAN, s=_WS.pattern,
        w=_W_TERM.pattern, name=_IDENT.pattern, x=_INDEX.pattern, sep=_SEPARATOR.pattern))
_OPEN = re.compile(r"{s}\({s}".format(s=_WS.pattern))
# one item of a binding: ``name = literal``, then ';' or the end
_ASSIGNMENT = re.compile(r"{s}({name}){s}={s}{lit}{s}(?:;{s}|\Z)".format(
    s=_WS.pattern, name=_IDENT.pattern, lit=_GAUSSIAN))


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

    def scan_gaussian(self, tail: bool = True) -> Gaussian:
        """``rational [ (+|-) rational? i ] | rational? i`` with backtracking;
        with ``tail`` false, only ``rational``, ``rational i`` or ``i``."""
        self.skip_ws()
        if self.scan(_I):
            return Gaussian.of(0, 1)
        re_part = self.scan_rational()
        self.skip_ws()
        if self.scan(_I):
            return Gaussian.of(0, re_part)
        mark = self.pos
        sign = self.scan(_SIGN) if tail else None
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
# shared grammar: signed sums, two-index monomials
# ---------------------------------------------------------------------------

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


# every two-index term 'ab' and 'a~b': its monomial and reordering sign, or
# None for a repeated index
_PAIRS = {f"{a}{bar}{b}": wedge_elements(BasisElement((a,), ()),
                                         BasisElement((), (b,)) if bar else BasisElement((b,), ()))
          for a in range(1, 10) for b in range(1, 10) for bar in ("", "~")}
_UNIT = Lit(ONE)  # the coefficient of a bare w-term


def _parse_pair(sc: _Scanner, conjugable: bool) -> tuple[BasisElement, int]:
    """``ab``, or ``a~b`` if ``conjugable``: the monomial and its reordering sign."""
    a, _ = sc.scan_index()
    bar = "~" if conjugable and sc.accept("~") else ""
    b, pos = sc.scan_index()
    merged = _PAIRS[f"{a}{bar}{b}"]
    if merged is None:
        sc.error(f"duplicate index {a} inside one term", pos)
    return merged


# ---------------------------------------------------------------------------
# real algebras
# ---------------------------------------------------------------------------

def parse_real_algebra(src: str) -> RealAlgebra:
    sc = _Scanner(src)
    sc.expect("(")
    raw_entries = _parse_real_entry(sc)
    while sc.match(","):
        raw_entries += _parse_real_entry(sc)
    sc.expect(")")
    sc.skip_ws()
    if not sc.at_end():
        sc.error("trailing characters after ')'")
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
    sc = None  # the scanner, made on demand

    def error(message: str, pos: int):
        (sc or _Scanner(src)).error(message, pos)

    m = _OPEN.match(src)
    if m is None:
        error("expected '('", _WS.match(src).end())
    pos, sep, raw_entries = m.end(), ",", []
    while sep != ")":
        sign = -1 if sep == "-" else 1
        if sep == ",":  # an entry starts here
            terms = []
            raw_entries.append((pos, terms))
        m = _ITEM.match(src, pos)
        if m is not None:
            coeff, *literal, name, pair, sep = m.groups()
            merged = _PAIRS.get(pair)  # None for a zero entry and for a repeated index
            if merged is not None or not (pair or terms):  # a term, or a zero opening an entry
                if merged is not None:  # its coefficient: a name, a literal, or a bare w-term's 1
                    coeff = Param(name) if name else Lit(_gaussian(*literal)) if coeff else _UNIT
                    terms.append((sign, pos, (coeff, merged)))
                pos = m.end()
                continue
        # conj(..), abs(..), a repeated index, a zero after a sign or an error:
        # the scanner reads this one item from its start, and raises on an error
        sc = sc or _Scanner(src)
        sc.pos = pos
        zero = not terms and sc.scan(_ZERO)
        if not zero:
            terms.append((sign, pos, _parse_cterm(sc)))
        sc.skip_ws()
        sep = sc.scan(_END if zero else _SEPARATOR, "expected ')'")
        sc.skip_ws()
        pos = sc.pos
    if pos < len(src):
        error("trailing characters after ')'", pos)
    n = len(raw_entries)
    if n > 9:  # no term can name a tenth generator, and the table grows like 4^n
        error("too many entries: generators are numbered 1-9", raw_entries[9][0])
    params: list[str] = []
    moduli: dict[str, Mod] = {}
    entries = []
    for _, terms in raw_entries:
        out = []
        for sign, pos, (coeff, (elem, orient)) in terms:
            if max(elem.holo + elem.anti) > n:
                error(f"index out of range for complex dimension {n}", pos)
            if sign * orient < 0:
                coeff = _negate_expr(coeff)
            if isinstance(coeff, Param) and coeff.name not in params:
                params.append(coeff.name)
            if isinstance(coeff, Mod):
                mod = coeff._replace(negated=False)
                if moduli.setdefault(mod.name, mod) != mod:
                    error(f"conflicting declarations of {mod.name}", pos)
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
    return expr._replace(negated=not expr.negated)


def _gaussian(unit, minus, num, den, imag, sign, mag, mag_den) -> Gaussian:
    """The literal that the eight groups of ``_GAUSSIAN`` spell."""
    # an absent numerator or denominator is 1
    x, d = (-1 if minus else 1) * int(num or 1), int(den or 1)
    y, e = ((-1 if sign == "-" else 1) * int(mag or 1), int(mag_den or 1)) if sign else (0, 1)
    if unit or imag:
        (x, d), (y, e) = (0, 1), (x, d)
    return _reduced(x * e, y * d, d * e)


# a shift's literal in a modulus name: '/', '+', '-' are spelt '_', 'p', 'm'
_SPELLING = str.maketrans("/+-", "_pm")


def _parse_cterm(sc: _Scanner) -> tuple:
    """``[coeff *] w-term``: the coefficient, the literal 1 if there is none,
    and the w-term's monomial and reordering sign."""
    sc.skip_ws()
    coeff = _UNIT
    if not sc.at(_W_TERM):
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
    if not sc.match("w"):
        sc.error("expected a w-term")
    return coeff, _parse_pair(sc, True)


# ---------------------------------------------------------------------------
# bindings
# ---------------------------------------------------------------------------

def parse_binding(src: str) -> dict[str, Gaussian]:
    values, pos, sc = {}, 0, None
    while pos < len(src):
        m = _ASSIGNMENT.match(src, pos)
        if m is not None and m[1] not in values:
            name, *literal = m.groups()
            values[name] = _gaussian(*literal)
            pos = m.end()
            continue
        sc = sc or _Scanner(src)  # it reads this assignment from its start
        sc.pos = pos
        sc.skip_ws()
        if sc.at_end():  # a text of whitespace
            break
        name, at = sc.scan_ident()
        if name in values:
            sc.error(f"repeated assignment to {name}", at)
        sc.expect("=")
        values[name] = sc.scan_gaussian()
        if not sc.match(";") and not sc.at_end():
            sc.error("expected ';' or end of input")
        sc.skip_ws()
        pos = sc.pos
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
