"""Invariant Hermitian forms: positivity, pluriclosed and balanced tests.

A form is stored as its Hermitian coefficient matrix ``H`` against the
(1,0)-coframe; the associated real fundamental 2-form is
``Omega = i * F`` with ``F = sum_jk H_jk w^j /\\ wbar^k``.  Following the
classical parametrization ``Omega = i(r^2 w^{1~1} + s^2 w^{2~2} + t^2 w^{3~3})
+ u w^{1~2} - conj(u) w^{2~1} + ...`` the off-diagonal entries are
``H_12 = -i u`` and so on, so diagonal entries are the positive rationals
r^2, s^2, t^2.

A form is held as integers only: ``den``, the lcm of its entries' reduced
denominators, and the integer grid ``den * H``; an entry is read back from
its cell.  ``HermitianForm(entries)`` and ``hermitian_form`` read their
entries as reduced triples and share one check of them (a real positive
diagonal, each entry below it the conjugate of its mirror) before they
take them into the grid; ``hermitian_form`` writes each mirror as the
conjugate triple, and makes no :class:`Gaussian` on the way.  The form
also holds ``F``, ``den`` times the form, as one integral column of
degree 2.  Positivity is decided when the form is built, by Sylvester's
criterion on the grid: fraction-free (Bareiss) elimination of the grid has
its leading principal minors as its pivots, each step dividing exactly by
the previous pivot, so the form is positive when every pivot is.  ``is_positive`` returns the verdict,
and the pluriclosed and balanced tests read it first, so a form that is not
positive raises before the dimension check and before any d is taken.

All three tests pass through one gate, ``_d_of``: it checks that the form
and the structure have the same n and returns the form's ``F`` and ``dF``,
that column's image under ``matrix(2)`` (built with the structure by its
d^2 check) by :meth:`~nilcohom.linalg.ExactMatrix.apply`.  No :class:`Form`
is built and no ``d`` is called, and ``dF`` is built once per (structure,
form) pair: the form keeps the image of the last structure it met, keyed
by a weak reference to that structure, so a second test on the pair
applies no matrix, a test on another structure takes that structure's own
image, and no form keeps a structure alive.

``ddbar_of`` reports del delbar of ``F`` (without the overall i, which no
vanishing test sees): the classical six-dimensional families then have del
delbar of the standard form equal to a rational multiple of ``w^{12~1~2}``.
It is ``matrix(3)`` applied to the (1,2) rows of ``dF``: on an integrable
structure ``d = del + delbar`` and ``delbar^2 = 0``, so
``d(delbar F) = del delbar F``.  That needs ``d^2 = 0``, which every
:class:`~nilcohom.model.ComplexStructure` is checked for when it is built.
The column is ``den L^2`` times del delbar F, for the structure's scale
``L``; ``ddbar_of`` divides it out to return a form, and ``is_pluriclosed``
only asks whether the column is empty.

``is_balanced`` tests ``d(Omega^(n-1)) = 0``.  Omega has even degree, so
``d(Omega^(n-1)) = (n-1) dOmega /\\ Omega^(n-2)`` (Michelsohn, Acta Math. 149,
1982), a nonzero multiple of ``dF /\\ F^(n-2)`` for n >= 2; for n = 1, F has
top degree and ``dF = 0``.  So it wedges the column F onto ``dF`` n - 2
times, on integer pairs in the rows ``matrix(2).apply`` returns, and
applies no more d: each monomial of the power walks its landing rows,
:func:`~nilcohom.algebra.wedge_row`, and reads F at each 2-form place
there (3 of the 15 for a 3-form in complex dimension 3).  Where
a slot starts comes from :func:`~nilcohom.algebra.slot_start`, so this
module knows neither the masks nor the layout of a degree.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from math import lcm

from .algebra import Form, Gaussian, ZERO, _as_pair, _reduced, slot_start, wedge_row
from .model import ComplexStructure


class HermitianForm:
    """An n x n Hermitian coefficient matrix with positive rational diagonal.

    It is held as integers: ``den`` is the lcm of the entries' reduced
    denominators and ``grid`` the integer grid ``den * H``, one ``(x, y)``
    pair per cell, so ``entries`` and ``form[j, k]`` read each entry back
    from its cell, and two forms are equal when their grids and ``den``
    are.  ``column`` is F, the grid as an integral column of degree 2 (see
    :func:`_d_of`), and ``positive`` is the Sylvester verdict on the grid.
    All are set once, when the form is built, and never changed, so none
    of them can go stale; beside them the form keeps ``dF`` for the last
    structure it met.

    ``HermitianForm(entries)`` takes a square grid of entries and
    :func:`hermitian_form` a diagonal and the entries above it; each entry
    is a :class:`Gaussian`, an int or a Fraction, read by :func:`_cell`.
    Both end in :meth:`_hold`, the one check.
    """

    def __init__(self, entries):
        if any(len(row) != len(entries) for row in entries):
            raise ValueError("coefficient grid must be square")
        self._hold([[_cell(c) for c in row] for row in entries])

    def _hold(self, cells):
        """Take a grid of reduced ``(x, y, den)`` triples into integers, after
        checking it column by column, so that the first fault is the one
        raised: a real positive diagonal entry, then each entry below it the
        conjugate triple of its mirror."""
        n = self.n = len(cells)
        for j in range(n):
            x, y, _ = cells[j][j]
            if y or x <= 0:
                raise ValueError(f"diagonal entry {j + 1} must be a positive rational")
            for k in range(j + 1, n):
                x, y, d = cells[k][j]
                if cells[j][k] != (x, -y, d):
                    raise ValueError("coefficient grid is not Hermitian")
        den = self.den = lcm(*(d for row in cells for _, _, d in row))
        grid = self.grid = [[(x * (den // d), y * (den // d)) for x, y, d in row]
                            for row in cells]
        # w^j wbar^k is j*n + k in the (1,1) slot of degree 2
        start = slot_start(n, n, 2, 1)
        self.column = {start + j * n + k: c for j, row in enumerate(grid)
                       for k, c in enumerate(row) if c[0] or c[1]}
        self._df = None, None  # (weak reference to a structure, its dF)
        self.positive = all(p > 0 for p in _sylvester(grid))

    @property
    def entries(self) -> list:
        return [[_reduced(x, y, self.den) for x, y in row] for row in self.grid]

    def __getitem__(self, jk):
        x, y = self.grid[jk[0]][jk[1]]
        return _reduced(x, y, self.den)

    def __eq__(self, other) -> bool:
        return (isinstance(other, HermitianForm)
                and (self.n, self.den, self.grid) == (other.n, other.den, other.grid))

    def __repr__(self) -> str:
        return f"HermitianForm(n={self.n})"


def standard_form(n: int) -> HermitianForm:
    """The identity coefficient matrix: Omega = i sum_j w^j /\\ wbar^j."""
    return hermitian_form([1] * n)


def _cell(v) -> tuple[int, int, int]:
    """A Gaussian, int or Fraction as its reduced ``(x, y, den)`` triple."""
    if isinstance(v, Gaussian):
        return v.x, v.y, v.den
    num, den = _as_pair(v)
    return num, 0, den


def hermitian_form(diag, upper=None) -> HermitianForm:
    """Build from a rational diagonal and the strictly-upper entries H_jk.

    ``upper`` maps 1-based pairs (j, k) with j < k to values; each value,
    like each diagonal entry, is a Gaussian, an int or a Fraction, and any
    other type raises ``TypeError``.  Each mirror H_kj is written as the
    conjugate triple of H_jk, so only the diagonal can fail the check.
    """
    n = len(diag)
    cells = [[(0, 0, 1)] * n for _ in range(n)]
    for j, d in enumerate(diag):
        cells[j][j] = _cell(d)
    for (j, k), value in (upper or {}).items():
        if not 1 <= j < k <= n:
            raise ValueError(f"not a strictly upper index pair: {(j, k)}")
        x, y, den = _cell(value)
        cells[j - 1][k - 1], cells[k - 1][j - 1] = (x, y, den), (x, -y, den)
    h = HermitianForm.__new__(HermitianForm)
    h._hold(cells)
    return h


def form_from_uvz(r2, s2, t2, u=ZERO, v=ZERO, z=ZERO) -> HermitianForm:
    """The classical 3-dimensional parametrization (see module docstring)."""
    mi = Gaussian.of(0, -1)
    return hermitian_form(
        [r2, s2, t2],
        {(1, 2): mi * u, (2, 3): mi * v, (1, 3): mi * z},
    )


def _sylvester(grid) -> list[int]:
    """The leading principal minors of ``den * H``, given as its integer
    ``grid``, the k-th ``den^k`` times ``H``'s, up to the first one that is
    not positive.

    They are the pivots of fraction-free elimination without row exchanges
    (Bareiss, Math. Comp. 22, 1968): each step divides exactly by the
    previous pivot.  ``H`` is Hermitian, so every minor is a real integer.
    """
    a, prev, minors = [row[:] for row in grid], 1, []
    for k, top in enumerate(a):
        p = top[k][0]
        minors.append(p)
        if p <= 0:
            break
        for row in a[k + 1:]:
            x, y = row[k]
            for j in range(k + 1, len(a)):
                (u, v), (s, t) = top[j], row[j]
                row[j] = (p * s - x * u + y * v) // prev, (p * t - x * v - y * u) // prev
        prev = p
    return minors


def is_positive(h: HermitianForm) -> bool:
    """Whether ``h`` is positive definite: its verdict, decided when it was built."""
    return h.positive


def _d_of(cs: ComplexStructure, h: HermitianForm) -> tuple[int, dict, dict]:
    """``(den, F, dF)``: the form's ``F = den * sum_jk H_jk w^j /\\ wbar^k``
    (the form without the i), an integral column of degree 2, and ``dF`` its
    image under ``matrix(2)``, ``L * den`` times d of the form.

    ``dF`` is taken once per structure and form: the form keeps it with a
    weak reference to the structure, and takes it again for any other."""
    if cs.n != h.n:
        raise ValueError(f"dimension mismatch: structure n={cs.n}, form n={h.n}")
    of, df = h._df
    if of is None or of() is not cs:
        df = cs.matrix(2).apply([h.column])[0]
        h._df = weakref.ref(cs), df
    return h.den, h.column, df


def _ddbar(cs: ComplexStructure, h: HermitianForm) -> tuple[int, dict]:
    """``den`` and ``L^2 * den`` times del delbar of the form, a column of
    degree 4: ``matrix(3)`` applied to the (1,2) rows of ``dF``, those
    before the cut where the (2,1) slot starts; the (0,3) rows of ``dF`` are
    empty."""
    den, _, df = _d_of(cs, h)
    cut = slot_start(cs.n, cs.n, 3, 2)
    return den, cs.matrix(3).apply([{r: v for r, v in df.items() if r < cut}])[0]


def ddbar_of(cs: ComplexStructure, h: HermitianForm) -> Form:
    """The (2,2)-form del delbar of the coefficient form of ``h``."""
    den, column = _ddbar(cs, h)
    return cs._form(4, column, den * cs._scale ** 2)


def _require_positive(h: HermitianForm):
    if not h.positive:
        raise ValueError("the Hermitian form is not positive definite")


def is_pluriclosed(cs: ComplexStructure, h: HermitianForm) -> bool:
    """Whether del delbar Omega vanishes exactly (the SKT condition)."""
    _require_positive(h)
    return not _ddbar(cs, h)[1]


def _wedge(n: int, k: int, x: dict, f: dict) -> dict:
    """``x /\\ f`` for integral columns ``x`` of degree k and ``f`` of
    degree 2, over n generators and their conjugates, as a column of degree
    k + 2, each keyed by the places of :func:`~nilcohom.algebra.degree_basis`.

    Each monomial of ``x`` walks its landing rows and reads ``f`` at each
    2-form place there, so no pair that repeats a factor is read."""
    out = {}
    for place, (p, q) in x.items():
        for s, (row, sign) in wedge_row(n, n, k, place).items():
            if s in f:
                c, e = f[s]
                u, v = out.get(row, (0, 0))
                out[row] = u + sign * (p * c - q * e), v + sign * (p * e + q * c)
    return {row: v for row, v in out.items() if v[0] or v[1]}


def is_balanced(cs: ComplexStructure, h: HermitianForm) -> bool:
    """Whether d(Omega^(n-1)) vanishes exactly, read as dF /\\ F^(n-2)."""
    _require_positive(h)
    _, f, power = _d_of(cs, h)
    for k in range(3, 2 * cs.n - 1, 2):  # n - 2 wedges, from degree 3 on
        power = _wedge(cs.n, k, power, f)
    return not power


def random_positive_forms(n: int, count: int, seed: int = 0) -> list[HermitianForm]:
    """Deterministic sample of positive forms: small Hermitian perturbations
    of a random positive diagonal, with non-positive draws rejected.

    ``seed`` must be nonnegative: ``random.Random`` seeds an int by its
    absolute value, so seed -s would draw the forms of seed s."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    import random

    rng = random.Random(seed)
    out: list[HermitianForm] = []
    while len(out) < count:
        diag = [Fraction(rng.randint(1, 4)) for _ in range(n)]
        upper = {}
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                upper[(j, k)] = Gaussian.of(
                    Fraction(rng.randint(-2, 2), 2),
                    Fraction(rng.randint(-2, 2), 2),
                )
        candidate = hermitian_form(diag, upper)
        if is_positive(candidate):
            out.append(candidate)
    return out
