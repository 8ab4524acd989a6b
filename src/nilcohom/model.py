"""Lie algebras via structure equations and invariant complex structures.

A real algebra is stored as the differentials of its dual coframe
``e^1 .. e^m`` (Chevalley-Eilenberg convention ``d a = -a([.,.])``), a complex
structure as the differentials of a coframe ``w^1 .. w^n`` of (1,0)-forms.
Templates keep symbolic coefficients (parameters, their conjugates, declared
modulus symbols) until a binding supplies exact Gaussian-rational values; the
template grammar admits only (2,0) and (1,1) terms, so non-integrable input is
unrepresentable.  ``d`` on conjugated generators is always the conjugate of
``d`` on the generators, never stored separately, so ``d`` commutes with
conjugation and the ``d^2 = 0`` check computes only ``d(d w^j)``: each
``d(d wbar^j)`` is its conjugate.  ``RealAlgebra``, ``ComplexStructureTemplate``
and ``ComplexStructure`` reject non-canonical monomials, as the parser does.

Both kinds of structure hold ``d`` one way, as ``L * d``: one integral
:class:`~nilcohom.linalg.ExactMatrix` per total degree, where ``L`` is the
lcm of the denominators of the structure constants, one per structure.  A
degree's matrix is built the first time it is needed, by adding each scaled
constant along the Leibniz table of :func:`nilcohom.algebra.leibniz`, so the
``d^2`` check builds only the matrix on 2-forms.  ``d`` of a form combines
the columns of its monomials and divides by ``L``; the cohomology tables,
the metrics and the Betti numbers all read these matrices.  Nilpotency
follows the lower central series with the elimination of :mod:`linalg`,
whose pivot columns span each term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, lcm

from .algebra import (BasisElement, Form, Gaussian, ONE, ZERO, _reduced, degree_basis, leibniz,
                      masks)
from .linalg import ExactMatrix, exact_rank


class ModelError(Exception):
    """Base class for structure-validation failures."""


class UnboundParameterError(ModelError):
    def __init__(self, names):
        self.names = tuple(sorted(names))
        super().__init__("unbound parameters: " + ", ".join(self.names))


class UnknownParameterError(ModelError):
    def __init__(self, names):
        self.names = tuple(sorted(names))
        super().__init__("unknown parameters: " + ", ".join(self.names))


class ModulusError(ModelError):
    pass


class IntegrabilityError(ModelError):
    pass


class NilpotencyError(ModelError):
    pass


class DifferentialSquareError(ModelError):
    def __init__(self, report: "ValidationReport"):
        self.report = report
        labels = ", ".join(label for label, _ in report.residuals)
        super().__init__(f"d^2 != 0 on {labels}")


# ---------------------------------------------------------------------------
# generic exterior differentials
# ---------------------------------------------------------------------------

def _check_monomial(elem: BasisElement, n: int) -> None:
    """Reject a monomial unless each block is strictly ascending within 1..n."""
    for block in (elem.holo, elem.anti):
        if not all(a < b for a, b in zip((0, *block), (*block, n + 1))):
            raise ValueError(f"not a canonical monomial over {n} generators: {elem}")


@dataclass
class ValidationReport:
    """Outcome of a d^2 = 0 check; residuals list every nonzero d(d generator)."""

    residuals: list[tuple[str, Form]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.residuals

    def __str__(self) -> str:
        if self.ok:
            return "d-square: ok"
        lines = [f"d(d {label}) = {form}" for label, form in self.residuals]
        return "d-square FAILED:\n  " + "\n  ".join(lines)


def _d_squared(d, differentials: list[Form], label: str) -> ValidationReport:
    """Apply ``d`` to every generator differential; report the nonzero ones."""
    report = ValidationReport()
    for j, df in enumerate(differentials, start=1):
        residual = d(df)
        if not residual.is_zero():
            report.residuals.append((f"{label}{j}", residual))
    return report


class _Differential:
    """``L * d`` of a structure on ``holo`` generators with ``d`` given by
    ``forms``, and on ``anti`` conjugates of them: one matrix per total degree.

    ``matrix(k)`` maps degree k to degree k + 1, its rows and columns in
    :func:`~nilcohom.algebra.degree_basis` order.  A basis monomial has
    coefficient 1, so each entry of ``d`` on it sums constants or their
    conjugates, and ``L * d`` is integral.
    """

    def __init__(self, holo: int, anti: int, forms: list[Form]):
        self._layout = holo, anti
        scale = self._scale = lcm(*(c.den for f in forms for c in f.terms.values()))
        # (j, term masks, L * constant) for every term of every d w^j
        self._constants = [(j, *masks(e), c.x * (scale // c.den), c.y * (scale // c.den))
                           for j, f in enumerate(forms, start=1) for e, c in f.terms.items()]
        self._matrices = {}

    def matrix(self, k: int) -> ExactMatrix:
        """``L * d`` on total degree k, built the first time it is asked for."""
        if k not in self._matrices:
            rows, cols = (len(degree_basis(*self._layout, i)[0]) for i in (k + 1, k))
            m, bars = ExactMatrix(rows, cols), 2 if self._layout[1] else 1
            # its columns are filled here, before any caller sees it; d wbar^j is
            # the conjugate of d w^j, when there are conjugates
            for j, dh, da, x, y in self._constants:
                for bar, im in ((False, y), (True, -y))[:bars]:
                    entries = iter(leibniz(*self._layout, k, j, bar, dh, da))
                    for c, row, sign in zip(entries, entries, entries):
                        a, b = m.columns[c].pop(row, (0, 0))
                        a, b = a + sign * x, b + sign * im
                        if a or b:  # constants may cancel, and a matrix stores no zero
                            m.columns[c][row] = a, b
            self._matrices[k] = m
        return self._matrices[k]

    def d(self, f: Form) -> Form:
        """d of a form: the columns of its monomials, weighted by its
        coefficients (over their common denominator) and divided by ``L``."""
        den = lcm(*(c.den for c in f.terms.values()))
        acc, degree = {}, None
        for elem, c in f.terms.items():
            k = len(elem.holo) + len(elem.anti)
            if k != degree:
                degree, place = k, degree_basis(*self._layout, k)[1]
                columns, targets = self.matrix(k).columns, degree_basis(*self._layout, k + 1)[0]
            u, v = c.x * (den // c.den), c.y * (den // c.den)
            for row, (x, y) in columns[place[elem]].items():
                target = targets[row]  # keyed by monomial: f may mix degrees
                a, b = acc.get(target, (0, 0))
                acc[target] = a + u * x - v * y, b + u * y + v * x
        den *= self._scale
        return Form((e, _reduced(a, b, den)) for e, (a, b) in acc.items() if a or b)


# ---------------------------------------------------------------------------
# real Lie algebras
# ---------------------------------------------------------------------------

class RealAlgebra(_Differential):
    """A real Lie algebra given by ``d e^j`` for a coframe ``e^1 .. e^dim``.

    The 2-forms live over the same machinery as the complex side, using only
    holomorphic slots and real coefficients.
    """

    def __init__(self, dim: int, d_of_e: list[Form]):
        if len(d_of_e) != dim:
            raise ValueError(f"expected {dim} differentials, got {len(d_of_e)}")
        for j, f in enumerate(d_of_e, start=1):
            for elem, coeff in f.terms.items():
                _check_monomial(elem, dim)
                if elem.bidegree != (2, 0):
                    raise ValueError(f"d e^{j} is not a real 2-form: {elem}")
                if not coeff.is_real():
                    raise ValueError(f"d e^{j} has a non-real coefficient")
        self.dim = dim
        self.d_of_e = list(d_of_e)
        super().__init__(dim, 0, self.d_of_e)

    def check_d_squared(self) -> ValidationReport:
        return _d_squared(self.d, self.d_of_e, "e")

    def is_abelian(self) -> bool:
        return all(f.is_zero() for f in self.d_of_e)

    def betti(self) -> list[int]:
        """``b_k = C(dim, k) - rank d_k - rank d_(k-1)`` for k = 0..dim.

        ``d_k`` is real ``d`` on ``basis(dim, k, 0)``: the Chevalley-Eilenberg
        complex, whose cohomology is that of the nilmanifold (Nomizu).  Its
        matrices come from the same Leibniz table as a complex structure's,
        but it shares no matrix with the bigraded engine of
        :mod:`nilcohom.cohomology`.
        """
        # ranks[k]: the rank of d_(k-1)
        ranks = [0, *(exact_rank(m.rows, m.columns) for m in map(self.matrix, range(self.dim))), 0]
        return [comb(self.dim, k) - ranks[k + 1] - ranks[k] for k in range(self.dim + 1)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RealAlgebra)
            and self.dim == other.dim
            and self.d_of_e == other.d_of_e
        )

    def __repr__(self) -> str:
        return f"RealAlgebra(dim={self.dim})"


def check_nilpotency(a: RealAlgebra) -> bool:
    """Whether the lower central series of the recovered bracket reaches zero.

    ``[e_i, e_j] = -sum_k c^k_ij e_k`` where ``d e^k = sum c^k_ij e^ij``, so the
    bracket is read off ``L * d`` on 1-forms, whose one factor ``L`` changes
    no span.  The series starts from the whole algebra and takes the span of
    every ``ad(e_i)`` applied to the previous term; it fails once a step
    keeps the dimension, since the span can then only repeat.
    """
    m, pairs = a.dim, degree_basis(a.dim, 0, 2)[0]
    brackets = [[{} for _ in range(m)] for _ in range(m)]  # [i][j]: [e_i, e_j]
    for k, column in enumerate(a.matrix(1).columns):
        for r, (x, y) in column.items():
            i, j = pairs[r].holo
            brackets[i - 1][j - 1][k] = -x, -y
            brackets[j - 1][i - 1][k] = x, y
    ads = [ExactMatrix(m, m, columns) for columns in brackets]
    span = [{j: (1, 0)} for j in range(m)]
    while span:
        pivots = {}
        exact_rank(m, [column for ad in ads for column in ad.apply(span)], pivots)
        if len(pivots) == len(span):
            return False
        span = list(pivots.values())
    return True


# ---------------------------------------------------------------------------
# complex structures and their templates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lit:
    value: Gaussian


@dataclass(frozen=True)
class Param:
    name: str
    conjugated: bool = False
    negated: bool = False


@dataclass(frozen=True)
class Mod:
    """A declared symbol ``name`` constrained to equal ``|param - shift|``.

    ``negated`` marks a term whose coefficient is minus the symbol.
    """

    name: str
    param: str
    shift: Gaussian
    negated: bool = False


CoeffExpr = Lit | Param | Mod


class ComplexStructureTemplate:
    """Coframe differentials with symbolic coefficients, prior to binding."""

    def __init__(self, n: int, d_of_omega, params=(), moduli=()):
        self.n = n
        self.d_of_omega = [tuple(entry) for entry in d_of_omega]
        if len(self.d_of_omega) != n:
            raise ValueError(f"expected {n} coframe differentials")
        for entry in self.d_of_omega:
            for _, elem in entry:
                _check_monomial(elem, n)
                if elem.bidegree not in ((2, 0), (1, 1)):
                    raise IntegrabilityError(
                        f"term {elem} is neither (2,0) nor (1,1)"
                    )
        self.params = tuple(params)
        self.moduli = tuple(moduli)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ComplexStructureTemplate)
            and self.n == other.n
            and self.d_of_omega == other.d_of_omega
            and self.params == other.params
            and self.moduli == other.moduli
        )

    def __repr__(self) -> str:
        return f"ComplexStructureTemplate(n={self.n}, params={list(self.params)})"


class ComplexStructure(_Differential):
    """Instantiated coframe differentials; every coefficient is exact.

    Construction checks ``d^2 = 0`` on every generator ``w^j`` and raises
    :class:`DifferentialSquareError` otherwise.  ``matrix(k)`` is ``L * d``
    on total degree k, in :func:`~nilcohom.algebra.degree_basis` order for
    the layout (n, n).
    """

    def __init__(self, n: int, d_omega: list[Form]):
        if len(d_omega) != n:
            raise ValueError(f"expected {n} differentials, got {len(d_omega)}")
        for j, f in enumerate(d_omega, start=1):
            for elem in f.terms:
                _check_monomial(elem, n)
                if elem.bidegree not in ((2, 0), (1, 1)):
                    raise IntegrabilityError(f"d w^{j} has a {elem.bidegree} term {elem}")
        self.n = n
        self.d_omega = list(d_omega)
        super().__init__(n, n, self.d_omega)
        report = check_d_squared(self)
        if not report.ok:
            raise DifferentialSquareError(report)

    # defined here, not only inherited, so that the class's own namespace
    # holds it: the benchmark's trace wraps methods there
    def d(self, f: Form) -> Form:
        """Full exterior differential d = del + delbar on any invariant form."""
        return _Differential.d(self, f)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ComplexStructure)
            and self.n == other.n
            and self.d_omega == other.d_omega
        )

    def __repr__(self) -> str:
        return f"ComplexStructure(n={self.n})"


def check_d_squared(cs: ComplexStructure) -> ValidationReport:
    """Compute every d(d w^j); each d(d wbar^j) is its conjugate."""
    return _d_squared(cs.d, cs.d_omega, "w")


def _resolve_coefficient(expr: CoeffExpr, binding: dict[str, Gaussian],
                         missing: set[str]) -> Gaussian:
    if isinstance(expr, Lit):
        return expr.value
    value = binding.get(expr.name)
    if value is None:
        missing.add(expr.name)
        return ZERO
    if isinstance(expr, Param) and expr.conjugated:
        value = value.conjugate()
    return -value if expr.negated else value


def instantiate(template: ComplexStructureTemplate,
                binding: dict[str, Gaussian]) -> ComplexStructure:
    """Bind all symbols, validate modulus consistency and d^2 = 0.

    Every bound name must be a parameter or a declared modulus symbol of the
    template, so a misspelt name is an error rather than silently unused.
    """
    declared = [*template.params, *(mod.name for mod in template.moduli)]
    unknown = set(binding).difference(declared)
    if unknown:
        raise UnknownParameterError(unknown)
    missing: set[str] = set()
    forms = []
    for entry in template.d_of_omega:
        terms = []
        for expr, elem in entry:
            coeff = _resolve_coefficient(expr, binding, missing)
            terms.append((elem, coeff))
        forms.append(Form(terms))
    missing.update(name for name in declared if name not in binding)
    if missing:
        raise UnboundParameterError(missing)
    for mod in template.moduli:
        value = binding[mod.name]
        base = binding.get(mod.param)
        if base is None:
            raise UnboundParameterError([mod.param])
        if not value.is_real() or value.re < 0:
            raise ModulusError(f"{mod.name} must be a nonnegative rational")
        target = (base - mod.shift).modulus_squared()
        if value.re * value.re != target:
            raise ModulusError(
                f"{mod.name} = {value} is inconsistent: square {value.re * value.re} != {target}"
            )
    return ComplexStructure(template.n, forms)


# ---------------------------------------------------------------------------
# derived constructions
# ---------------------------------------------------------------------------

def substitute(f: Form, holo_images: list[Form], anti_images: list[Form]) -> Form:
    """Apply the algebra map ``w^j -> holo_images[j-1]``, ``wbar^j -> anti_images[j-1]``.

    Each monomial goes to the wedge of the images of its factors, in order.
    """
    out = Form()
    for elem, coeff in f.terms.items():
        piece = Form.single(BasisElement((), ()), coeff)
        for j in elem.holo:
            piece = piece.wedge(holo_images[j - 1])
        for j in elem.anti:
            piece = piece.wedge(anti_images[j - 1])
        out = out + piece
    return out


def realify(cs: ComplexStructure) -> RealAlgebra:
    """The underlying real algebra on ``e^{2j-1} = Re w^j``, ``e^{2j} = Im w^j``.

    Its ``d^2 = 0`` is inherited from ``cs``: the substitution is an
    isomorphism of the complexified differential algebras.
    """
    n, m = cs.n, 2 * cs.n
    i = Gaussian.of(0, 1)
    subs_holo = [
        Form([(BasisElement((2 * j - 1,), ()), ONE), (BasisElement((2 * j,), ()), i)])
        for j in range(1, n + 1)
    ]
    # wbar^j = e^{2j-1} - i e^{2j}: conjugate coefficients, keep real slots
    subs_anti = [
        Form([(e, c.conjugate()) for e, c in f.terms.items()])
        for f in subs_holo
    ]

    d_of_e: list[Form] = []
    for j in range(1, n + 1):
        x = substitute(cs.d_omega[j - 1], subs_holo, subs_anti)
        real_part = Form([(e, Gaussian.of(c.re)) for e, c in x.terms.items()])
        imag_part = Form([(e, Gaussian.of(c.im)) for e, c in x.terms.items()])
        d_of_e.append(real_part)
        d_of_e.append(imag_part)
    return RealAlgebra(m, d_of_e)


def product_with_torus(cs: ComplexStructure) -> ComplexStructure:
    """Append one closed coframe generator (complex dimension n+1)."""
    return ComplexStructure(cs.n + 1, [*cs.d_omega, Form()])
