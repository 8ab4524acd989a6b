"""Exact arithmetic over the Gaussian rationals and the bigraded exterior algebra.

Every scalar in the engine is a :class:`Gaussian` number ``a + b*i`` with
arbitrary-precision rational real and imaginary parts, so no computation ever
rounds.  It is stored as three integers, ``(x + y*i) / den`` with ``den > 0``
and ``gcd(x, y, den) == 1``; every sum, product and quotient restores that
reduced form with one gcd, so equal values have equal triples.

Forms are finite sums of canonical wedge monomials ``w^I /\\ wbar^J``.  A form
has no dimension of its own: its indices refer to the coframe of ``n``
holomorphic generators of the structure it is used with.  The sign
conventions are normalized once here and every other module relies on them:

* all holomorphic factors precede all antiholomorphic ones,
* within each block indices are strictly ascending, between 1 and ``n``,
* the sign of the sorting permutation is folded into the coefficient,
* zero coefficients are dropped eagerly, so form equality is structural.

A monomial is a :class:`BasisElement` of index tuples outside, for text,
ordering and printing, and a pair of ``(holo, anti)`` bitmasks inside
(:func:`masks`, :func:`element`, memoized); :func:`wedge_masks` is the one
routine that computes a reordering sign, for every product and for ``d``.

``d`` is linear in the structure constants (Chevalley and Eilenberg, Trans.
AMS 63 (1948): the transpose of the bracket, extended as a derivation), so
where each constant lands depends only on the layout, the counts of
holomorphic and antiholomorphic generators.  This module owns that layout
and that Leibniz rule, each kept by layout and never per structure:
:func:`degree_basis` orders the monomials of one total degree, :func:`slots`
gives the p of its (p, k-p) slots and :func:`slot_start` where each slot
starts, which at p = k + 1 is the size of the degree; a term of a
generator's ``d`` is keyed by its generator j, the place s of its 2-form
monomial in :func:`degree_basis` and its side (the factor ``w^j``, or
``wbar^j`` when there are conjugates), and :func:`leibniz_rows` holds one
table per layout and term, ``{k: where the term lands in d on degree k}``,
as :func:`leibniz` computes it the first time degree k is read.
:mod:`nilcohom.model` adds the constants along those rows, and knows
neither the masks nor the Leibniz rule.  No term lands in degree 0 or in
the top degree, so a structure builds neither from its tables.  Next to
them, :func:`wedge_row` maps a monomial of degree k and each 2-form
monomial, both by their places in :func:`degree_basis`, to the place in
degree k + 2 and the sign of their wedge, so :mod:`nilcohom.metrics` wedges
integral columns as ``apply`` returns them, with the sign rule of
:func:`wedge_masks`.  No other module reads a mask, enumerates monomials by
``combinations`` or sums binomials, into a slot's start, a slot's range or
a degree's size.

Every operation here keeps that form without checking it; it is checked
once, where monomials enter: by the parser and by the structure constructors
of :mod:`nilcohom.model`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb, gcd, lcm
from typing import Iterable, Iterator, NamedTuple


def _as_pair(v) -> tuple[int, int]:
    """Numerator and positive denominator, in lowest terms, of an exact rational."""
    if isinstance(v, int):
        return int(v), 1
    if isinstance(v, Fraction):
        return v.numerator, v.denominator
    raise TypeError(f"expected an exact rational, got {type(v).__name__}")


class Gaussian:
    """A complex number with exact rational real and imaginary parts.

    The value is stored as three integers, ``(x + y*i) / den``, with
    ``den > 0`` and ``gcd(x, y, den) == 1``.  That form is unique, so equality
    and hashing compare the triple.  Instances are immutable by convention.
    """

    __slots__ = ("x", "y", "den")

    def __init__(self, re, im):
        a, b = _as_pair(re)
        c, e = _as_pair(im)
        # lcm of denominators of two reduced fractions leaves no common factor
        den = b if b == e else lcm(b, e)
        self.x = a * (den // b)
        self.y = c * (den // e)
        self.den = den

    # -- construction -----------------------------------------------------

    @staticmethod
    def of(re, im=0) -> "Gaussian":
        return Gaussian(re, im)

    @property
    def re(self) -> Fraction:
        return Fraction(self.x, self.den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.y, self.den)

    # -- predicates --------------------------------------------------------

    def is_real(self) -> bool:
        return not self.y

    def __bool__(self) -> bool:
        return self.x != 0 or self.y != 0

    def __eq__(self, other):
        if other.__class__ is not Gaussian:
            return NotImplemented
        return self.x == other.x and self.y == other.y and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.x, self.y, self.den))

    # -- field operations ----------------------------------------------------
    # a sum, product or quotient is reduced by one gcd, in _reduced

    def __add__(self, o):
        if o.__class__ is not Gaussian:
            o = _coerce(o)
            if o is None:
                return NotImplemented
        d, e = self.den, o.den
        return _reduced(self.x * e + o.x * d, self.y * e + o.y * d, d * e)

    __radd__ = __add__

    def __sub__(self, o):
        if o.__class__ is not Gaussian:
            o = _coerce(o)
            if o is None:
                return NotImplemented
        return self + _triple(-o.x, -o.y, o.den)

    def __neg__(self) -> "Gaussian":
        return _triple(-self.x, -self.y, self.den)

    def __mul__(self, o):
        if o.__class__ is not Gaussian:
            o = _coerce(o)
            if o is None:
                return NotImplemented
        a, b, c, e = self.x, self.y, o.x, o.y
        return _reduced(a * c - b * e, a * e + b * c, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, o):
        # (a + b i)/d / ((c + e i)/f) = (a + b i)(c - e i) f / (d (c^2 + e^2))
        if o.__class__ is not Gaussian:
            o = _coerce(o)
            if o is None:
                return NotImplemented
        a, b, c, e, f = self.x, self.y, o.x, o.y, o.den
        norm = c * c + e * e
        if not norm:
            raise ZeroDivisionError("division of Gaussian rationals by zero")
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self.den * norm)

    def conjugate(self) -> "Gaussian":
        return _triple(self.x, -self.y, self.den)

    def modulus_squared(self) -> Fraction:
        return Fraction(self.x * self.x + self.y * self.y, self.den * self.den)

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        """Canonical literal, e.g. ``2/3``, ``i``, ``-1i``, ``1/2-3i``."""
        re, im = self.re, self.im
        if not im:
            return str(re)
        if im == 1:
            im_txt = "i"
        elif im == -1:
            im_txt = "-1i" if not re else "-i"
        else:
            im_txt = f"{im}i"
        if not re:
            return im_txt
        sep = "" if im_txt.startswith("-") else "+"
        return f"{re}{sep}{im_txt}"

    def __repr__(self) -> str:
        return f"Gaussian({self})"


_new = object.__new__


def _triple(x: int, y: int, den: int) -> Gaussian:
    """The Gaussian ``(x + y*i) / den`` from a triple already in reduced form."""
    g = _new(Gaussian)
    g.x = x
    g.y = y
    g.den = den
    return g


def _reduced(x: int, y: int, den: int) -> Gaussian:
    """The Gaussian ``(x + y*i) / den`` for ``den > 0``, by one gcd."""
    g = gcd(x, y, den)
    if g == 1:
        return _triple(x, y, den)
    return _triple(x // g, y // g, den // g)


def _coerce(v) -> Gaussian | None:
    """A bare int or Fraction operand as a Gaussian; None for any other type."""
    if not isinstance(v, (int, Fraction)):
        return None
    num, den = _as_pair(v)
    return _triple(num, 0, den)


ZERO = Gaussian.of(0)
ONE = Gaussian.of(1)
I = Gaussian.of(0, 1)


class BasisElement(NamedTuple):
    """Canonical wedge monomial ``w^holo /\\ wbar^anti``, each tuple ascending."""

    holo: tuple[int, ...]
    anti: tuple[int, ...]

    @property
    def bidegree(self) -> tuple[int, int]:
        return (len(self.holo), len(self.anti))

    def __str__(self) -> str:
        if not self.holo and not self.anti:
            return "1"
        holo = "".join(str(j) for j in self.holo)
        anti = "".join(f"~{j}" for j in self.anti)
        return f"w{holo}{anti}"


@cache
def masks(elem: BasisElement) -> tuple[int, int]:
    """The ``(holo, anti)`` bitmasks of a monomial: bit ``j`` for generator ``j``."""
    return sum(1 << j for j in elem.holo), sum(1 << j for j in elem.anti)


@cache
def element(holo: int, anti: int) -> BasisElement:
    """The monomial of two bitmasks; the inverse of :func:`masks`."""
    return BasisElement(*(tuple(j for j in range(m.bit_length()) if m >> j & 1)
                          for m in (holo, anti)))


def wedge_masks(h1: int, a1: int, h2: int, a2: int):
    """Wedge two monomials given by masks; ``(holo, anti, odd)`` or None on a repeat.

    ``odd`` is the parity of the permutation putting ``x /\\ y`` in canonical
    order: y's holomorphic factors move left past x's antiholomorphic ones,
    and in each block every factor of x moves right past y's lower indices.
    """
    if h1 & h2 or a1 & a2:
        return None
    odd = h2.bit_count() * a1.bit_count()
    for mine, other in ((h1, h2), (a1, a2)):
        while mine:
            low = mine & -mine
            odd += (other & (low - 1)).bit_count()
            mine ^= low
    return h1 | h2, a1 | a2, odd & 1


def wedge_elements(x: BasisElement, y: BasisElement):
    """Wedge two monomials; return (element, sign) or None if a factor repeats."""
    merged = wedge_masks(*masks(x), *masks(y))
    if merged is None:
        return None
    holo, anti, odd = merged
    return element(holo, anti), -1 if odd else 1


class Form:
    """A finite sum of canonical monomials with Gaussian coefficients.

    ``terms`` maps :class:`BasisElement` to a nonzero :class:`Gaussian`.  A
    form has no dimension of its own: the coframe is that of the structure
    it is used with.  Instances are immutable by convention: all operations
    return fresh forms.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[BasisElement, Gaussian]] = ()):
        acc: dict[BasisElement, Gaussian] = {}
        for elem, coeff in terms:
            cur = acc.get(elem)
            new = coeff if cur is None else cur + coeff
            if new:
                acc[elem] = new
            elif elem in acc:
                del acc[elem]
        self.terms = acc

    # -- constructors ------------------------------------------------------

    @staticmethod
    def single(elem: BasisElement, coeff: Gaussian = ONE) -> "Form":
        return Form([(elem, coeff)])

    @staticmethod
    def generator(j: int, conjugated: bool = False) -> "Form":
        """The 1-form ``w^j`` (or ``wbar^j``)."""
        elem = BasisElement((), (j,)) if conjugated else BasisElement((j,), ())
        return Form.single(elem)

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def bidegrees(self) -> set[tuple[int, int]]:
        return {e.bidegree for e in self.terms}

    def items(self) -> Iterator[tuple[BasisElement, Gaussian]]:
        return iter(sorted(self.terms.items(), key=lambda kv: kv[0]))

    def coefficient(self, elem: BasisElement) -> Gaussian:
        return self.terms.get(elem, ZERO)

    def __eq__(self, other) -> bool:
        return isinstance(other, Form) and self.terms == other.terms

    # -- linear operations ----------------------------------------------------

    def __add__(self, other: "Form") -> "Form":
        return Form(list(self.terms.items()) + list(other.terms.items()))

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def __neg__(self) -> "Form":
        return Form([(e, -c) for e, c in self.terms.items()])

    def scale(self, coeff) -> "Form":
        coeff = coeff if isinstance(coeff, Gaussian) else Gaussian.of(coeff)
        if not coeff:
            return Form()
        return Form([(e, c * coeff) for e, c in self.terms.items()])

    # -- multiplicative structure ---------------------------------------------

    def wedge(self, other: "Form") -> "Form":
        out: list[tuple[BasisElement, Gaussian]] = []
        for e1, c1 in self.terms.items():
            h1, a1 = masks(e1)
            for e2, c2 in other.terms.items():
                merged = wedge_masks(h1, a1, *masks(e2))
                if merged is not None:
                    holo, anti, odd = merged
                    c = c1 * c2
                    out.append((element(holo, anti), -c if odd else c))
        return Form(out)

    def conjugate(self) -> "Form":
        """Complex conjugation: swaps the blocks, conjugates coefficients."""
        out = []
        for e, c in self.terms.items():
            holo, anti, odd = wedge_masks(0, *masks(e), 0)
            c = c.conjugate()
            out.append((element(holo, anti), -c if odd else c))
        return Form(out)

    def component(self, p: int, q: int) -> "Form":
        """The pure (p, q) part; summing over all bidegrees recovers the form."""
        return Form([(e, c) for e, c in self.terms.items() if e.bidegree == (p, q)])

    # -- misc -----------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.items():
            txt = str(e)
            if c == ONE:
                parts.append(txt)
            else:
                parts.append(f"({c})*{txt}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Form({self})"


def basis(n: int, p: int, q: int) -> list[BasisElement]:
    """All C(n,p)*C(n,q) monomials of bidegree (p, q), lexicographically.

    This is the order of the (p, q) slot within :func:`degree_basis`, which
    indexes every matrix row and column in the engine.
    """
    if not (0 <= p <= n and 0 <= q <= n):
        raise ValueError(f"bidegree ({p},{q}) out of range for n={n}")
    idx = range(1, n + 1)
    return [
        BasisElement(h, a)
        for h in combinations(idx, p)
        for a in combinations(idx, q)
    ]


@cache
def degree_basis(holo: int, anti: int, k: int) -> tuple[tuple[BasisElement, ...], dict]:
    """The monomials of total degree k over ``holo`` holomorphic and ``anti``
    antiholomorphic generators, and each one's place among them.

    Its (p, k-p) slots go by ascending p, each in the lexicographic order of
    :func:`basis`; this order indexes the rows and columns of every ``d``.
    """
    monomials = tuple(BasisElement(h, a) for p in slots(holo, anti, k)
                      for h in combinations(range(1, holo + 1), p)
                      for a in combinations(range(1, anti + 1), k - p))
    return monomials, {e: i for i, e in enumerate(monomials)}


def slots(holo: int, anti: int, k: int) -> range:
    """The p of every (p, k-p) slot of total degree k, ascending."""
    return range(max(0, k - anti), min(holo, k) + 1)


@cache
def slot_start(holo: int, anti: int, k: int, p: int) -> int:
    """The place in :func:`degree_basis` where the (p, k-p) slot of total
    degree k starts: the sum of the sizes of the slots before it.  Slot p
    ends where slot p + 1 starts, and at p = k + 1 this is the size of
    degree k."""
    return sum(comb(holo, s) * comb(anti, k - s) for s in range(p))


class _LeibnizRows(dict):
    """``{k: leibniz(holo, anti, k, j, s, bar)}`` of one layout and term,
    each degree filled the first time it is read."""

    __slots__ = ("term",)

    def __init__(self, *term):
        super().__init__()
        self.term = term

    def __missing__(self, k: int) -> tuple:
        holo, anti, *key = self.term
        rows = self[k] = leibniz(holo, anti, k, *key)
        return rows


@cache
def leibniz_rows(holo: int, anti: int, j: int, s: int, bar: bool) -> dict:
    """Where the term of ``d w^j`` on the 2-form monomial with place ``s`` in
    :func:`degree_basis` lands in d on each degree: ``rows[k]`` is
    :func:`leibniz` of that term, for the factor ``w^j``, or ``wbar^j`` if
    ``bar``.

    One table per layout and term, shared by every structure of that layout
    that holds the term; a degree's entry is computed the first time a
    structure reads it, so no table is built whole."""
    return _LeibnizRows(holo, anti, j, s, bar)


def leibniz(holo: int, anti: int, k: int, j: int, s: int, bar: bool) -> tuple:
    """Where the term ``w^dh wbar^da`` of ``d w^j``, the 2-form monomial with
    place ``s`` in :func:`degree_basis`, lands in d on degree k, on the
    factor ``w^j`` or, if ``bar``, ``wbar^j``: one flat tuple of ``(column,
    row, sign)`` triples, indexed by :func:`degree_basis`.

    By the graded Leibniz rule,

        d(x_0 /\\ .. /\\ x_m) = sum_i (-1)^i dx_i /\\ (x_0 /\\ .. x_i omitted .. /\\ x_m),

    so the term reaches every column holding the factor; ``dx_i`` is a
    2-form and moves to the front without a sign.  On the factor ``wbar^j``
    the term is read through its conjugate,
    ``(-1)^(|dh| |da|) w^da wbar^dh``, whose coefficient the caller
    conjugates.

    Degree 0 and the top degree ``holo + anti`` get no triple from any term:
    the monomial 1 has no factor, and a 2-form wedged onto a monomial with
    one factor less than the top always repeats a factor.
    """
    dh, da = masks(degree_basis(holo, anti, 2)[0][s])
    dh, da, sign = (da, dh, (-1) ** (dh.bit_count() * da.bit_count())) if bar else (dh, da, 1)
    bit, place, out = 1 << j, degree_basis(holo, anti, k + 1)[1], []
    for column, elem in enumerate(degree_basis(holo, anti, k)[0]):
        h, a = masks(elem)
        if not (a if bar else h) & bit:
            continue
        # the factor's place: the holomorphic ones first, each block ascending
        i = h.bit_count() + (a & (bit - 1)).bit_count() if bar else (h & (bit - 1)).bit_count()
        merged = wedge_masks(dh, da, h, a ^ bit) if bar else wedge_masks(dh, da, h ^ bit, a)
        if merged is not None:
            mh, ma, odd = merged
            out += (column, place[element(mh, ma)], -sign if (odd ^ i) & 1 else sign)
    return tuple(out)


@cache
def wedge_row(holo: int, anti: int, k: int, place: int) -> dict:
    """Where the monomial with place ``place`` in degree k lands when wedged
    with each 2-form monomial: ``{s: (row, sign)}`` maps the place ``s`` of a
    2-form monomial to the place ``row`` of the product in degree k + 2, both
    in :func:`degree_basis`, for each ``s`` that repeats no factor.  The signs
    are those of :func:`wedge_masks`, so ``x /\\ y`` of integral columns needs
    no form and no mask outside this module.

    A row of this wedge table is built the first time a column holds its
    monomial, so a layout's table is never built whole (2^(holo + anti)
    rows); callers only read it."""
    h, a = masks(degree_basis(holo, anti, k)[0][place])
    rows, lands = degree_basis(holo, anti, k + 2)[1], {}
    for s, two in enumerate(degree_basis(holo, anti, 2)[0]):
        merged = wedge_masks(h, a, *masks(two))
        if merged is not None:
            mh, ma, odd = merged
            lands[s] = rows[element(mh, ma)], (-1) ** odd
    return lands
