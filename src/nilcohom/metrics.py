"""Invariant Hermitian forms: positivity, pluriclosed and balanced tests.

A form is stored as its Hermitian coefficient matrix ``H`` against the
(1,0)-coframe; the associated real fundamental 2-form is
``Omega = i * F`` with ``F = sum_jk H_jk w^j /\\ wbar^k``.  Following the
classical parametrization ``Omega = i(r^2 w^{1~1} + s^2 w^{2~2} + t^2 w^{3~3})
+ u w^{1~2} - conj(u) w^{2~1} + ...`` the off-diagonal entries are
``H_12 = -i u`` and so on, so diagonal entries are the positive rationals
r^2, s^2, t^2.

Positivity is decided once per form, when it is built: ``HermitianForm``
runs Sylvester's criterion on its entries and keeps the verdict.
``is_positive`` returns it, and the pluriclosed and balanced tests read it
first, so a form that is not positive raises before the dimension check and
before any d is taken.

All three tests pass through one gate, ``_d_of``: it checks that the form
and the structure have the same n and returns ``F`` and ``dF``, which reads
``matrix(2)``, built with the structure by its d^2 check.

``ddbar_of`` reports del delbar of ``F`` (without the overall i, which no
vanishing test sees): the classical six-dimensional families then have del
delbar of the standard form equal to a rational multiple of ``w^{12~1~2}``.
It is ``d`` of the (1,2) part of ``dF``, read off ``matrix(3)``: on an
integrable structure ``d = del + delbar`` and ``delbar^2 = 0``, so
``d(delbar F) = del delbar F``.  That needs ``d^2 = 0``, which every
:class:`~nilcohom.model.ComplexStructure` is checked for when it is built.

``is_balanced`` tests ``d(Omega^(n-1)) = 0``.  Omega has even degree, so
``d(Omega^(n-1)) = (n-1) dOmega /\\ Omega^(n-2)`` (Michelsohn, Acta Math. 149,
1982), a nonzero multiple of ``dF /\\ F^(n-2)`` for n >= 2; for n = 1, F has
top degree and ``dF = 0``.  So it wedges F onto ``dF`` and applies no more d.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import BasisElement, Form, Gaussian, ZERO
from .model import ComplexStructure


class HermitianForm:
    """An n x n Hermitian coefficient matrix with positive rational diagonal.

    ``positive`` is its Sylvester verdict, taken once when it is built: the
    entries are copied then and never changed, so the verdict cannot go stale.
    """

    def __init__(self, entries):
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ValueError("coefficient grid must be square")
        for j in range(n):
            d = entries[j][j]
            if not d.is_real() or d.re <= 0:
                raise ValueError(f"diagonal entry {j + 1} must be a positive rational")
            for k in range(n):
                if entries[k][j] != entries[j][k].conjugate():
                    raise ValueError("coefficient grid is not Hermitian")
        self.n = n
        self.entries = [row[:] for row in entries]
        self.positive = _sylvester(self.entries)

    def __getitem__(self, jk):
        return self.entries[jk[0]][jk[1]]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HermitianForm)
            and self.n == other.n
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"HermitianForm(n={self.n})"


def standard_form(n: int) -> HermitianForm:
    """The identity coefficient matrix: Omega = i sum_j w^j /\\ wbar^j."""
    return hermitian_form([1] * n)


def hermitian_form(diag, upper=None) -> HermitianForm:
    """Build from a rational diagonal and the strictly-upper entries H_jk.

    ``upper`` maps 1-based pairs (j, k) with j < k to Gaussian values.
    """
    n = len(diag)
    entries = [[ZERO] * n for _ in range(n)]
    for j, d in enumerate(diag):
        entries[j][j] = d if isinstance(d, Gaussian) else Gaussian.of(d)
    for (j, k), value in (upper or {}).items():
        if not 1 <= j < k <= n:
            raise ValueError(f"not a strictly upper index pair: {(j, k)}")
        entries[j - 1][k - 1] = value
        entries[k - 1][j - 1] = value.conjugate()
    return HermitianForm(entries)


def form_from_uvz(r2, s2, t2, u=ZERO, v=ZERO, z=ZERO) -> HermitianForm:
    """The classical 3-dimensional parametrization (see module docstring)."""
    mi = Gaussian.of(0, -1)
    return hermitian_form(
        [r2, s2, t2],
        {(1, 2): mi * u, (2, 3): mi * v, (1, 3): mi * z},
    )


def _sylvester(entries) -> bool:
    """Positive-definiteness by Sylvester's criterion, exactly.

    Elimination without row exchanges makes the k-th leading principal minor
    the product of the first k pivots, so every leading minor is positive
    exactly when every pivot is a positive rational.
    """
    a, n = [row[:] for row in entries], len(entries)
    for k in range(n):
        pivot = a[k][k]
        if not pivot.is_real() or pivot.re <= 0:
            return False
        for i in range(k + 1, n):
            factor = a[i][k] / pivot
            for j in range(k + 1, n):
                a[i][j] = a[i][j] - factor * a[k][j]
    return True


def is_positive(h: HermitianForm) -> bool:
    """Whether ``h`` is positive definite: its verdict, decided when it was built."""
    return h.positive


def _d_of(cs: ComplexStructure, h: HermitianForm) -> tuple[Form, Form]:
    """``(F, dF)`` for ``F = sum_jk H_jk w^j /\\ wbar^k``, the form without the i."""
    if cs.n != h.n:
        raise ValueError(f"dimension mismatch: structure n={cs.n}, form n={h.n}")
    f = Form((BasisElement((j + 1,), (k + 1,)), c)
             for j, row in enumerate(h.entries) for k, c in enumerate(row))
    return f, cs.d(f)


def ddbar_of(cs: ComplexStructure, h: HermitianForm) -> Form:
    """The (2,2)-form del delbar of the coefficient form of ``h``."""
    return cs.d(_d_of(cs, h)[1].component(1, 2))


def _require_positive(h: HermitianForm):
    if not h.positive:
        raise ValueError("the Hermitian form is not positive definite")


def is_pluriclosed(cs: ComplexStructure, h: HermitianForm) -> bool:
    """Whether del delbar Omega vanishes exactly (the SKT condition)."""
    _require_positive(h)
    return ddbar_of(cs, h).is_zero()


def is_balanced(cs: ComplexStructure, h: HermitianForm) -> bool:
    """Whether d(Omega^(n-1)) vanishes exactly, read as dF /\\ F^(n-2)."""
    _require_positive(h)
    f, power = _d_of(cs, h)
    for _ in range(cs.n - 2):
        power = power.wedge(f)
    return power.is_zero()


def random_positive_forms(n: int, count: int, seed: int = 0) -> list[HermitianForm]:
    """Deterministic sample of positive forms: small Hermitian perturbations
    of a random positive diagonal, with non-positive draws rejected."""
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
