"""CPU-speed calibration shared by the benchmark and its set-up child.

On a shared VM the CPU's speed changes by up to 1.7x over seconds to
minutes, which no affordable run length averages out.  ``calibrate`` times a
fixed piece of work of the engine's kinds: integer arithmetic (as in the
fraction-free rank), ``Fraction`` arithmetic, and a wedge-like product of
two sums of monomials keyed by frozen dataclasses (as in the exterior
algebra).  It is the benchmark's own frozen code, so engine changes cannot
move it.  A latency ``t`` measured next to a calibration ``c`` is reported at
the reference speed as ``t * REF_CAL_S / c``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

# The reference speed is the one at which calibrate() takes 2.5 ms.
REF_CAL_S = 0.0025


@dataclass(frozen=True, order=True)
class _Monomial:
    holo: tuple
    anti: tuple


@dataclass(frozen=True)
class _Coeff:
    re: Fraction
    im: Fraction

    def __mul__(self, other):
        return _Coeff(self.re * other.re - self.im * other.im,
                      self.re * other.im + self.im * other.re)

    def __add__(self, other):
        return _Coeff(self.re + other.re, self.im + other.im)

    def __bool__(self):
        return bool(self.re or self.im)


_MIXED = [_Monomial((a,), (b,)) for a in range(1, 5) for b in range(1, 5)]
_LEFT = [(m, _Coeff(Fraction(i + 1, 3), Fraction(1 - i, 2))) for i, m in enumerate(_MIXED[:8])]
_RIGHT = [(m, _Coeff(Fraction(2, i + 2), Fraction(i, 5))) for i, m in enumerate(_MIXED[8:])]


def _wedge_like():
    out = {}
    for m1, c1 in _LEFT:
        for m2, c2 in _RIGHT:
            if set(m1.holo) & set(m2.holo) or set(m1.anti) & set(m2.anti):
                continue
            key = _Monomial(tuple(sorted(m1.holo + m2.holo)), tuple(sorted(m1.anti + m2.anti)))
            cur = out.get(key)
            new = c1 * c2 if cur is None else cur + c1 * c2
            if new:
                out[key] = new
            else:
                out.pop(key, None)
    return out


def calibrate() -> float:
    """Seconds taken by the fixed calibration work."""
    t0 = time.perf_counter()
    total = 0
    for i in range(5000):
        total += i * i % 7
    acc = {}
    third = Fraction(1, 3)
    for i in range(50):
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, 0) + third * Fraction(i % 7 + 1, 5)
    _wedge_like()
    return time.perf_counter() - t0


def scaled(seconds: float, calibration: float) -> float:
    return seconds * REF_CAL_S / calibration
