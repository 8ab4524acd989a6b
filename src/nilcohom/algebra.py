"""Exact arithmetic over the Gaussian rationals and the bigraded exterior algebra.

Every scalar in the engine is a :class:`Gaussian` number ``a + b*i`` with
arbitrary-precision rational real and imaginary parts, so no computation ever
rounds.  Forms are finite sums of canonical wedge monomials
``w^I /\\ wbar^J`` over a coframe of ``n`` holomorphic generators; the sign
conventions are normalized once here and every other module relies on them:

* all holomorphic factors precede all antiholomorphic ones,
* within each block indices are strictly ascending,
* the sign of the sorting permutation is folded into the coefficient,
* zero coefficients are dropped eagerly, so form equality is structural.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


@dataclass(frozen=True)
class Gaussian:
    """A complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    def __post_init__(self):
        object.__setattr__(self, "re", _as_fraction(self.re))
        object.__setattr__(self, "im", _as_fraction(self.im))

    # -- construction -----------------------------------------------------

    @staticmethod
    def of(re, im=0) -> "Gaussian":
        return Gaussian(_as_fraction(re), _as_fraction(im))

    @staticmethod
    def rational(x) -> "Gaussian":
        return Gaussian(_as_fraction(x), Fraction(0))

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- field operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Gaussian):
            return other
        if isinstance(other, (int, Fraction)):
            return Gaussian.rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Gaussian(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Gaussian(self.re - o.re, self.im - o.im)

    def __neg__(self) -> "Gaussian":
        return Gaussian(-self.re, -self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Gaussian(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.modulus_squared()
        if not d:
            raise ZeroDivisionError("division of Gaussian rationals by zero")
        return Gaussian(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def conjugate(self) -> "Gaussian":
        return Gaussian(self.re, -self.im)

    def modulus_squared(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        """Canonical literal, e.g. ``2/3``, ``i``, ``-1i``, ``1/2-3i``."""
        if not self.im:
            return str(self.re)
        if self.im == 1:
            im_txt = "i"
        elif self.im == -1:
            im_txt = "-1i" if not self.re else "-i"
        else:
            im_txt = f"{self.im}i"
        if not self.re:
            return im_txt
        sep = "" if im_txt.startswith("-") else "+"
        return f"{self.re}{sep}{im_txt}"

    def __repr__(self) -> str:
        return f"Gaussian({self})"


ZERO = Gaussian.of(0)
ONE = Gaussian.of(1)
I = Gaussian.of(0, 1)


@dataclass(frozen=True, order=True)
class BasisElement:
    """Canonical wedge monomial ``w^holo /\\ wbar^anti``, each tuple ascending."""

    holo: tuple[int, ...]
    anti: tuple[int, ...]

    def __post_init__(self):
        for block in (self.holo, self.anti):
            if any(block[k] >= block[k + 1] for k in range(len(block) - 1)):
                raise ValueError(f"indices not strictly ascending: {block}")
            if any(j < 1 for j in block):
                raise ValueError(f"indices must be >= 1: {block}")

    @property
    def bidegree(self) -> tuple[int, int]:
        return (len(self.holo), len(self.anti))

    def __str__(self) -> str:
        if not self.holo and not self.anti:
            return "1"
        holo = "".join(str(j) for j in self.holo)
        anti = "".join(f"~{j}" for j in self.anti)
        return f"w{holo}{anti}"


def _merge_ascending(a: tuple[int, ...], b: tuple[int, ...]):
    """Merge two ascending tuples; return (merged, sign) or None on a repeat."""
    if set(a) & set(b):
        return None
    inversions = 0
    for x in b:
        inversions += sum(1 for y in a if y > x)
    merged = tuple(sorted(a + b))
    return merged, (-1 if inversions % 2 else 1)


def wedge_elements(x: BasisElement, y: BasisElement):
    """Wedge two monomials; return (element, sign) or None if a factor repeats."""
    holo = _merge_ascending(x.holo, y.holo)
    if holo is None:
        return None
    anti = _merge_ascending(x.anti, y.anti)
    if anti is None:
        return None
    # moving y's holomorphic block left past x's antiholomorphic block
    sign = -1 if (len(y.holo) * len(x.anti)) % 2 else 1
    return BasisElement(holo[0], anti[0]), sign * holo[1] * anti[1]


class Form:
    """A finite sum of canonical monomials with Gaussian coefficients.

    ``n`` is the coframe dimension; ``terms`` maps :class:`BasisElement` to a
    nonzero :class:`Gaussian`.  Instances are immutable by convention: all
    operations return fresh forms.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Iterable[tuple[BasisElement, Gaussian]] = ()):
        acc: dict[BasisElement, Gaussian] = {}
        for elem, coeff in terms:
            if max(elem.holo + elem.anti, default=0) > n:
                raise ValueError(f"index out of range for coframe dimension {n}: {elem}")
            cur = acc.get(elem)
            new = coeff if cur is None else cur + coeff
            if new:
                acc[elem] = new
            elif elem in acc:
                del acc[elem]
        self.n = n
        self.terms = acc

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n: int) -> "Form":
        return Form(n)

    @staticmethod
    def single(n: int, elem: BasisElement, coeff: Gaussian = ONE) -> "Form":
        return Form(n, [(elem, coeff)])

    @staticmethod
    def generator(n: int, j: int, conjugated: bool = False) -> "Form":
        """The 1-form ``w^j`` (or ``wbar^j``)."""
        elem = BasisElement((), (j,)) if conjugated else BasisElement((j,), ())
        return Form.single(n, elem)

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
        return (
            isinstance(other, Form)
            and self.n == other.n
            and self.terms == other.terms
        )

    # -- linear operations ----------------------------------------------------

    def __add__(self, other: "Form") -> "Form":
        self._check_compatible(other)
        return Form(self.n, list(self.terms.items()) + list(other.terms.items()))

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def __neg__(self) -> "Form":
        return Form(self.n, [(e, -c) for e, c in self.terms.items()])

    def scale(self, coeff) -> "Form":
        coeff = coeff if isinstance(coeff, Gaussian) else Gaussian.rational(coeff)
        if not coeff:
            return Form.zero(self.n)
        return Form(self.n, [(e, c * coeff) for e, c in self.terms.items()])

    # -- multiplicative structure ---------------------------------------------

    def wedge(self, other: "Form") -> "Form":
        self._check_compatible(other)
        out: list[tuple[BasisElement, Gaussian]] = []
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                merged = wedge_elements(e1, e2)
                if merged is None:
                    continue
                elem, sign = merged
                out.append((elem, c1 * c2 * sign))
        return Form(self.n, out)

    def conjugate(self) -> "Form":
        """Complex conjugation: swaps the blocks, conjugates coefficients."""
        out = []
        for e, c in self.terms.items():
            p, q = e.bidegree
            sign = -1 if (p * q) % 2 else 1
            out.append((BasisElement(e.anti, e.holo), c.conjugate() * sign))
        return Form(self.n, out)

    def component(self, p: int, q: int) -> "Form":
        """The pure (p, q) part; summing over all bidegrees recovers the form."""
        return Form(
            self.n,
            [(e, c) for e, c in self.terms.items() if e.bidegree == (p, q)],
        )

    def with_dimension(self, n: int) -> "Form":
        """Reinterpret over a larger coframe (indices are unchanged)."""
        return Form(n, list(self.terms.items()))

    # -- misc -----------------------------------------------------------------

    def _check_compatible(self, other: "Form"):
        if not isinstance(other, Form):
            raise TypeError(f"expected a Form, got {type(other).__name__}")
        if self.n != other.n:
            raise ValueError(f"coframe dimensions differ: {self.n} != {other.n}")

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
        return f"Form({self.n}, {self})"


def wedge(a: Form, b: Form) -> Form:
    return a.wedge(b)


def conjugate_form(a: Form) -> Form:
    return a.conjugate()


def bidegree_component(f: Form, p: int, q: int) -> Form:
    return f.component(p, q)


def basis(n: int, p: int, q: int) -> list[BasisElement]:
    """All C(n,p)*C(n,q) monomials of bidegree (p, q), lexicographically.

    This fixed order indexes every matrix row and column in the engine.
    """
    if not (0 <= p <= n and 0 <= q <= n):
        raise ValueError(f"bidegree ({p},{q}) out of range for n={n}")
    idx = range(1, n + 1)
    return [
        BasisElement(h, a)
        for h in combinations(idx, p)
        for a in combinations(idx, q)
    ]


def basis_dimension(n: int, p: int, q: int) -> int:
    """dim of the (p, q) slot; zero outside the square 0..n x 0..n."""
    if not (0 <= p <= n and 0 <= q <= n):
        return 0
    return _binomial(n, p) * _binomial(n, q)


def _binomial(n: int, k: int) -> int:
    out = 1
    for j in range(k):
        out = out * (n - j) // (j + 1)
    return out
