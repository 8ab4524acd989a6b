"""The classification catalog: cases, golden rows and curves.

Every catalog case is one sub-case row of the six- or eight-dimensional
classification tables: a real algebra, a complex-structure template, the
region predicates of the sub-case, one interior sample binding (the case's
``binding``), and the expected cohomology row (Bott-Chern numbers in table
column order, Betti numbers, the non-Kaehlerianity degrees, the pluriclosed
flag).  Golden data
lives in ``data/golden.txt`` and is loaded, never hard-coded: the engine
recomputes every row and diffs.

Predicates are exact comparisons in a tiny expression language over the
binding values: ``re(D)``, ``im(D)``, ``normsq(B-1)``, ``S(B,c)`` (the
classification quartic), the literals ``i``, ``2/3`` and ``2/3 i``, ``+ - * ^``,
a leading minus before any power (``-x^2`` is ``-(x^2)``), comparators
``= != < <= > >=`` and ``or``.  A literal has no signed tail, so ``+`` and
``-`` are always operators and ``1 - i*x`` is ``1 - (i*x)``.  Strict
inequalities are decided exactly, so a sample either satisfies its region or
the catalog refuses to load.

A deformation curve reports each ``pluriclosed`` and ``balanced`` flag of a
point by one rule: the flag is true when its test passes on any of the
standard form, the curve's own form (when it has one and it is positive at
that point), and a fixed seeded sweep of positive forms, tried in that
order.  So a false flag has failed on every one of them.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from fractions import Fraction
from functools import cached_property, lru_cache
from importlib import resources
from typing import TYPE_CHECKING, NamedTuple

from .algebra import Gaussian, ZERO
from .model import ComplexStructure, instantiate
from .parser import (_COMPARATOR, _IDENT, _LITERAL, _Scanner, _parse_sum, parse_binding,
                     parse_complex_structure, parse_real_algebra)

if TYPE_CHECKING:  # the engine itself is imported by the functions that run it
    from .cohomology import CohomologyTable
    from .metrics import HermitianForm


class CatalogError(Exception):
    pass


# Bott-Chern column order of the six- and eight-dimensional golden tables.
COLUMNS_6D = [
    (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1),
    (1, 2), (0, 3), (3, 1), (2, 2), (1, 3), (3, 2), (2, 3),
]
COLUMNS_8D = [
    (1, 0), (2, 0), (1, 1), (3, 0), (2, 1), (4, 0), (3, 1),
    (2, 2), (4, 1), (3, 2), (4, 2), (3, 3), (4, 3),
]


def s_invariant(abs_b_squared: Fraction, c: Fraction) -> Fraction:
    """The classification quartic ``c^4 - 2(|B|^2+1)c^2 + (|B|^2-1)^2``."""
    if c < 0:
        raise ValueError("c must be nonnegative")
    b2 = Fraction(abs_b_squared)
    c = Fraction(c)
    return c ** 4 - 2 * (b2 + 1) * c ** 2 + (b2 - 1) ** 2


# ---------------------------------------------------------------------------
# predicate language
# ---------------------------------------------------------------------------

_ORDERINGS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def evaluate_predicate(text: str, values: dict[str, Gaussian]) -> bool:
    """Evaluate one predicate (possibly an ``or``-chain) against a binding."""
    sc = _Scanner(text)
    result = _or_chain(sc, values)
    sc.skip_ws()
    if not sc.at_end():
        sc.error("trailing characters in predicate")
    return result


def _or_chain(sc: _Scanner, values) -> bool:
    result = _comparison(sc, values)
    while True:
        sc.skip_ws()
        mark = sc.pos
        if sc.scan(_IDENT) != "or":
            sc.pos = mark
            return result
        result = _comparison(sc, values) or result


def _comparison(sc: _Scanner, values) -> bool:
    left = _expr(sc, values)
    sc.skip_ws()
    op = sc.scan(_COMPARATOR, "expected a comparator")
    right = _expr(sc, values)
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if not left.is_real() or not right.is_real():
        sc.error(f"ordering comparison '{op}' needs real operands")
    return _ORDERINGS[op](left.re, right.re)


def _expr(sc: _Scanner, values) -> Gaussian:
    terms = _parse_sum(sc, lambda sc: _term(sc, values))
    return sum((term if sign > 0 else -term for sign, _, term in terms), ZERO)


def _term(sc: _Scanner, values) -> Gaussian:
    total = _power(sc, values)
    while sc.match("*"):
        total = total * _power(sc, values)
    return total


def _power(sc: _Scanner, values) -> Gaussian:
    if sc.match("-"):  # looser than ^: -x^2 is -(x^2)
        return -_power(sc, values)
    base = _primary(sc, values)
    if sc.match("^"):
        sc.skip_ws()
        exponent = sc.scan_unsigned()
        out = Gaussian.of(1)
        for _ in range(exponent):
            out = out * base
        return out
    return base


def _primary(sc: _Scanner, values) -> Gaussian:
    if sc.match("("):
        inner = _expr(sc, values)
        sc.expect(")")
        return inner
    if sc.at(_LITERAL):  # no signed tail: + and - stay operators
        return sc.scan_gaussian(tail=False)
    pos = sc.pos
    word = sc.scan(_IDENT, "expected a value")
    if word in ("re", "im", "normsq", "S") and sc.accept("("):
        first = _expr(sc, values)
        if word == "S":
            sc.expect(",")
            second = _expr(sc, values)
            sc.expect(")")
            if not second.is_real():
                sc.error("S(B,c) needs a real second argument")
            return Gaussian.of(s_invariant(first.modulus_squared(), second.re))
        sc.expect(")")
        if word == "re":
            return Gaussian.of(first.re)
        if word == "im":
            return Gaussian.of(first.im)
        return Gaussian.of(first.modulus_squared())
    if word in values:
        return values[word]
    sc.error(f"unknown parameter '{word}'", pos)


# ---------------------------------------------------------------------------
# catalog cases
# ---------------------------------------------------------------------------

class _CaseFields(NamedTuple):
    id: str
    algebra_text: str
    template_text: str
    binding_text: str
    predicates: list[str]
    golden_bc: dict[tuple[int, int], int]
    golden_betti: list[int]
    golden_delta: list[int]
    golden_skt: bool


class CatalogCase(_CaseFields):
    """One sub-case row of the classification with its golden expectations.

    The fields are a named tuple's; this subclass of it has an instance
    dictionary, which holds the cached properties."""

    @property
    def dim(self) -> int:
        return len(self.golden_betti)  # 3 or 4: b_1..b_n and delta_1..delta_n

    @property
    def columns(self):
        return COLUMNS_6D if self.dim == 3 else COLUMNS_8D

    @cached_property
    def real_algebra(self):
        return parse_real_algebra(self.algebra_text)

    @cached_property
    def template(self):
        return parse_complex_structure(self.template_text)

    @cached_property
    def binding(self) -> dict[str, Gaussian]:
        return parse_binding(self.binding_text)

    @cached_property
    def structure(self) -> ComplexStructure:
        return instantiate(self.template, self.binding)

    def predicate_violations(self) -> list[str]:
        values = self.binding
        return [p for p in self.predicates if not evaluate_predicate(p, values)]


def _parse_case(line: str) -> CatalogCase:
    fields = [f.strip() for f in line.split("|")]
    if len(fields) != 9:
        raise CatalogError(f"malformed catalog record ({len(fields)} fields): {line!r}")
    case_id, algebra, template, binding, predicates, bc, betti, delta, skt = fields
    bc_values = [int(x) for x in bc.split()]
    betti_values = [int(x) for x in betti.split()]
    delta_values = [int(x) for x in delta.split()]
    if len(betti_values) not in (3, 4) or len(delta_values) != len(betti_values):
        raise CatalogError(f"{case_id}: bad Betti/delta arity")
    columns = COLUMNS_6D if len(betti_values) == 3 else COLUMNS_8D
    if len(bc_values) != len(columns):
        raise CatalogError(
            f"{case_id}: expected {len(columns)} Bott-Chern numbers, got {len(bc_values)}"
        )
    if skt not in ("0", "1"):
        raise CatalogError(f"{case_id}: skt flag must be 0 or 1")
    return CatalogCase(
        id=case_id,
        algebra_text=algebra,
        template_text=template,
        binding_text=binding,
        predicates=[p.strip() for p in predicates.split(";") if p.strip()],
        golden_bc=dict(zip(columns, bc_values)),
        golden_betti=betti_values,
        golden_delta=delta_values,
        golden_skt=skt == "1",
    )


@lru_cache(maxsize=1)
def _load_cases() -> tuple[CatalogCase, ...]:
    text = resources.files("nilcohom").joinpath("data/golden.txt").read_text("ascii")
    cases: list[CatalogCase] = []
    seen: set[str] = set()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        case = _parse_case(line)
        if case.id in seen:
            raise CatalogError(f"duplicate case id {case.id}")
        seen.add(case.id)
        violations = case.predicate_violations()
        if violations:
            raise CatalogError(
                f"{case.id}: stored sample violates predicates: {violations}"
            )
        cases.append(case)
    return tuple(cases)


def list_cases(dim_filter: int | None = None) -> list[CatalogCase]:
    """All cases in stable catalog order, optionally by complex dimension."""
    cases = _load_cases()
    if dim_filter is None:
        return list(cases)
    return [c for c in cases if c.dim == dim_filter]


def case_by_id(case_id: str) -> CatalogCase:
    for case in _load_cases():
        if case.id == case_id:
            return case
    raise KeyError(f"no catalog case with id {case_id!r}")


# ---------------------------------------------------------------------------
# evaluation against the golden rows
# ---------------------------------------------------------------------------

class EvaluationResult(NamedTuple):
    case: CatalogCase
    table: CohomologyTable
    skt: bool
    diffs: list[str]

    @property
    def ok(self) -> bool:
        return not self.diffs


def evaluate(case_id: str) -> EvaluationResult:
    """Instantiate one case, compute its full table, diff against golden."""
    from .cohomology import full_table
    from .metrics import is_pluriclosed, standard_form

    case = case_by_id(case_id)
    cs = case.structure
    table = full_table(cs)
    skt = is_pluriclosed(cs, standard_form(cs.n))
    diffs = []
    for (p, q), expected in case.golden_bc.items():
        got = table.h_bc[p][q]
        if got != expected:
            diffs.append(f"h_bc[{p}][{q}]: computed {got}, golden {expected}")
    for k, expected in enumerate(case.golden_betti, start=1):
        if table.betti[k] != expected:
            diffs.append(f"b{k}: computed {table.betti[k]}, golden {expected}")
    for k, expected in enumerate(case.golden_delta, start=1):
        if table.delta[k] != expected:
            diffs.append(f"delta{k}: computed {table.delta[k]}, golden {expected}")
    if skt != case.golden_skt:
        diffs.append(f"skt: computed {skt}, golden {case.golden_skt}")
    return EvaluationResult(case=case, table=table, skt=skt, diffs=diffs)


def skt_scan(dim_filter: int | None = None, algebra: str | None = None) -> list[str]:
    """Ids of the cases whose standard form is pluriclosed."""
    from .metrics import is_pluriclosed, standard_form

    out = []
    for case in list_cases(dim_filter):
        if algebra is not None and case.algebra_text != algebra:
            continue
        cs = case.structure
        if is_pluriclosed(cs, standard_form(cs.n)):
            out.append(case.id)
    return out


# ---------------------------------------------------------------------------
# deformation curves
# ---------------------------------------------------------------------------

class CurvePoint(NamedTuple):
    label: str
    binding_text: str
    expected: dict


class DeformationCurve(NamedTuple):
    id: str
    algebra_text: str
    template_text: str
    points: list[CurvePoint]
    # the curve's own Hermitian form at a point's binding, if it has one
    form: Callable[[dict[str, Gaussian]], HermitianForm] | None = None


def _curve_c_form(b: dict[str, Gaussian]) -> HermitianForm:
    """Curve C's own form at a binding: r^2=1, s^2=1/2, t^2=1, u=i(D+s^2)."""
    from .metrics import form_from_uvz

    return form_from_uvz(1, Fraction(1, 2), 1, u=Gaussian.of(0, 1) * (b["D"] + Fraction(1, 2)))


_CURVES = [
    DeformationCurve(
        id="A",
        algebra_text="(0,0,0,0,12,34)",
        template_text="(0,0,t*w12+w1~1+t*w1~2+E*w2~2)",
        points=[
            CurvePoint("t=0", "t=0; E=i", {"h_bc(3,1)": 3, "pluriclosed": True}),
            CurvePoint("t=1/2", "t=1/2; E=1/4+i", {"h_bc(3,1)": 2, "pluriclosed": True}),
            CurvePoint("t=1", "t=1; E=1+i", {"h_bc(3,1)": 2, "pluriclosed": True}),
        ],
    ),
    DeformationCurve(
        id="B",
        algebra_text="(0,0,0,0,13+42,14+23)",
        template_text="(0,0,w12+w1~1+D*w2~2)",
        points=[
            CurvePoint("t=0", "D=1/2", {"h_bc(2,2)": 8, "pluriclosed": True}),
            CurvePoint("t=1/4", "D=1/2+1/4i", {"h_bc(2,2)": 7, "pluriclosed": True}),
            CurvePoint("t=1/2", "D=1/2+1/2i", {"h_bc(2,2)": 7, "pluriclosed": True}),
        ],
    ),
    DeformationCurve(
        id="C",
        algebra_text="(0,0,0,0,12,14+23)",
        template_text="(0,0,w12+w1~1+w1~2+D*w2~2)",
        points=[
            CurvePoint("D=1/8", "D=1/8", {"balanced": True, "pluriclosed": False}),
            CurvePoint("D=1/4", "D=1/4", {"balanced": False, "pluriclosed": False}),
            CurvePoint("D=1", "D=1", {"balanced": False, "pluriclosed": True}),
        ],
        form=_curve_c_form,
    ),
]

# the seeded sweep of positive forms behind every false curve flag
_SWEEP_COUNT = 20
_SWEEP_SEED = 20


def deformation_curves() -> list[DeformationCurve]:
    return list(_CURVES)


def curve_by_id(curve_id: str) -> DeformationCurve:
    for curve in _CURVES:
        if curve.id == curve_id:
            return curve
    raise KeyError(f"no deformation curve with id {curve_id!r}")


class CurvePointResult(NamedTuple):
    label: str
    binding_text: str
    computed: dict
    expected: dict

    @property
    def ok(self) -> bool:
        return all(self.computed.get(k) == v for k, v in self.expected.items())


def evaluate_curve(curve_id: str) -> list[CurvePointResult]:
    from .cohomology import full_table
    from .metrics import is_balanced, is_pluriclosed

    curve = curve_by_id(curve_id)
    template = parse_complex_structure(curve.template_text)
    results = []
    for point in curve.points:
        binding = parse_binding(point.binding_text)
        cs = instantiate(template, binding)
        own = curve.form(binding) if curve.form else None
        computed: dict = {}
        table = None
        for key in point.expected:
            if key.startswith("h_bc"):
                p, q = (int(x) for x in key[5:-1].split(","))
                table = table or full_table(cs)
                computed[key] = table.h_bc[p][q]
            else:
                test = {"pluriclosed": is_pluriclosed, "balanced": is_balanced}[key]
                computed[key] = any(test(cs, h) for h in _flag_forms(cs.n, own))
        results.append(
            CurvePointResult(point.label, point.binding_text, computed, point.expected)
        )
    return results


def _flag_forms(n: int, own: HermitianForm | None):
    """The forms a curve flag is tried on, in order (see the module docstring)."""
    from .metrics import is_positive, standard_form

    yield standard_form(n)
    if own is not None and is_positive(own):
        yield own
    yield from _sweep(n)


@lru_cache(maxsize=None)
def _sweep(n: int) -> tuple[HermitianForm, ...]:
    from .metrics import random_positive_forms

    return tuple(random_positive_forms(n, _SWEEP_COUNT, _SWEEP_SEED))
