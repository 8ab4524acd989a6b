"""Region-wise constancy at points near each stored sample, and on conics.

The classification says every dimension is constant on each sub-case region,
and the catalog checks that at one stored sample per region.  Here each
parametrized 6d row is also checked at nearby points of its region: the
stored sample with one real coordinate moved by +-1/4, +-1/2, +-1 or +-2.
The real coordinates are re and im of the complex parameters D and B, and the
value of the real parameters c and lambda, which the classification takes
nonnegative.  A modulus symbol abs(P - s) is bound only where |P - s| is
rational, and a candidate is kept only when it passes every stored predicate;
at most four are kept per row, spread over the passing candidates.  At each
kept point the Bott-Chern, Betti and delta numbers must equal the row's
golden ones, and those of its 8d twin (the row times a torus) the twin's.
The pluriclosed flag is left out: it depends on the metric, not only on the
region.

Rows whose region lies on a conic (02c, 09d, 17b, 18b, 21b, 22) are left
out there, as moving one coordinate leaves the conic; they are checked at
rational points of a parametrisation of it instead.  With
u(t) = ((1 - t^2) + 2t i) / (1 + t^2) on the unit circle, for
t in {1/3, 1/2, 2/3, 2, 3, 1/5}:

* 02c: D = -1 + u(t), the circle |D + 1| = 1;
* 22: B = u(t);
* 17b, 18b, 21b: B = c u(t), the circle |B| = c, for c in {1, 2, 3/4},
  {1/2} and {1/5, 1/3, 2/5} respectively;
* 09d: lambda = (t^2 + 1) / 2t and im D = (t^2 - 1) / 2t, for t = 5, 6, 7, 9,
  the hyperbola im(D)^2 = lambda^2 - 1.

Every such point must pass every stored predicate, and its Bott-Chern,
Betti and delta numbers, and those of the 8d twin where there is one, must
equal the golden ones, as above.
"""

from fractions import Fraction
from math import isqrt

import pytest

from nilcohom import catalog
from nilcohom.algebra import Gaussian
from nilcohom.cohomology import full_table
from nilcohom.model import instantiate
from nilcohom.parser import render_binding
from real_oracle import product_with_torus

STEPS = [Fraction(s, 4) for s in (1, -1, 2, -2, 4, -4, 8, -8)]
REAL = {"c", "lambda"}
CONIC = {"02c", "09d", "17b", "18b", "21b", "22"}
KEPT = 4

CASES = {case.id: case for case in catalog.list_cases()}
ROWS = [case_id for case_id, case in CASES.items()
        if case.dim == 3 and case.binding and case_id not in CONIC]

# points kept per row, so that a change in what passes the predicates shows
POINTS = {
    "01a": 4, "01b": 0, "02a": 4, "02b": 4, "06a": 4, "06b": 0, "06c": 0,
    "07a": 0, "07b": 0, "09a": 4, "09b'": 2, "09b''": 3, "09c": 0, "09e": 1,
    "09f": 0, "15a": 4, "15b": 0, "16a": 0, "16b": 0, "17a": 4, "17c": 3,
    "17d": 0, "18a": 0, "18c": 0, "20a": 4, "20b": 0, "21a": 4, "21c": 4,
    "21d": 4, "21e": 0,
}


def _rational_sqrt(x: Fraction) -> Fraction | None:
    num, den = isqrt(x.numerator), isqrt(x.denominator)
    return Fraction(num, den) if (num * num, den * den) == (x.numerator, x.denominator) else None


def _with_moduli(case, binding: dict) -> dict | None:
    """``binding`` with every modulus symbol rebound, or None if one is irrational."""
    for mod in case.template.moduli:
        value = _rational_sqrt((binding[mod.param] - mod.shift).modulus_squared())
        if value is None:
            return None
        binding[mod.name] = Gaussian.of(value)
    return binding


def nearby_points(case) -> list[dict]:
    """At most ``KEPT`` bindings near the stored sample that lie in its region."""
    passing = []
    for name in case.template.params:
        for unit in (Gaussian.of(1),) if name in REAL else (Gaussian.of(1), Gaussian.of(0, 1)):
            for step in STEPS:
                binding = {**case.binding, name: case.binding[name] + unit * step}
                if name in REAL and binding[name].re < 0:
                    continue
                binding = _with_moduli(case, binding)
                if binding is not None and all(
                        catalog.evaluate_predicate(p, binding) for p in case.predicates):
                    passing.append(binding)
    kept = min(KEPT, len(passing))
    return [passing[i * len(passing) // kept] for i in range(kept)]


def _assert_golden(case, table, point: str):
    got = {(p, q): table.h_bc[p][q] for p, q in case.golden_bc}
    assert got == case.golden_bc, (case.id, point)
    assert table.betti[1:case.dim + 1] == case.golden_betti, (case.id, point)
    assert table.delta[1:case.dim + 1] == case.golden_delta, (case.id, point)


def _circle(t: Fraction) -> Gaussian:
    return Gaussian.of((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))


CIRCLE = [_circle(t) for t in map(Fraction, ("1/3", "1/2", "2/3", "2", "3", "1/5"))]


def _radii(*values: str) -> list[dict]:
    return [{"B": Gaussian.of(Fraction(c)) * u, "c": Gaussian.of(Fraction(c))}
            for c in values for u in CIRCLE]


CONIC_POINTS = {
    "02c": [{"D": u - Gaussian.of(1)} for u in CIRCLE],
    "09d": [{"lambda": Gaussian.of((t * t + 1) / (2 * t)),
             "D": Gaussian.of(0, (t * t - 1) / (2 * t))} for t in map(Fraction, (5, 6, 7, 9))],
    "17b": _radii("1", "2", "3/4"),
    "18b": _radii("1/2"),
    "21b": _radii("1/5", "1/3", "2/5"),
    "22": [{"B": u} for u in CIRCLE],
}


def conic_points(case) -> list[dict]:
    """The rational points of a conic row's parametrisation in its region."""
    return [binding for binding in CONIC_POINTS[case.id]
            if all(catalog.evaluate_predicate(p, binding) for p in case.predicates)]


def _assert_golden_at(case_id, bindings):
    case, twin = CASES[case_id], CASES.get(case_id + "_8D")
    for binding in bindings:
        point = render_binding(binding)
        cs = instantiate(case.template, binding)
        _assert_golden(case, full_table(cs), point)
        if twin is not None:
            _assert_golden(twin, full_table(product_with_torus(cs)), point)


def test_every_parametrized_6d_row_is_covered():
    assert set(POINTS) == set(ROWS)
    assert {case_id: len(nearby_points(CASES[case_id])) for case_id in ROWS} == POINTS
    assert set(CONIC) == set(CONIC_POINTS) == {case_id for case_id, case in CASES.items()
                                               if case.dim == 3 and case.binding} - set(ROWS)


@pytest.mark.parametrize("case_id", ROWS)
def test_golden_rows_hold_at_nearby_points_of_their_region(case_id):
    _assert_golden_at(case_id, nearby_points(CASES[case_id]))


def test_every_conic_point_lies_in_its_region():
    # every parametrised point passes the stored predicates; the 8d twins
    # of 02c and 09d are checked at the same points
    kept = {case_id: len(conic_points(CASES[case_id])) for case_id in CONIC}
    assert kept == {case_id: len(points) for case_id, points in CONIC_POINTS.items()}
    assert kept == {"02c": 6, "09d": 4, "17b": 18, "18b": 6, "21b": 18, "22": 6}
    assert {case_id for case_id in CONIC if case_id + "_8D" in CASES} == {"02c", "09d"}


@pytest.mark.parametrize("case_id", sorted(CONIC))
def test_golden_conic_rows_hold_at_rational_points_of_their_conic(case_id):
    _assert_golden_at(case_id, conic_points(CASES[case_id]))
