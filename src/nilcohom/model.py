"""Lie algebras via structure equations and invariant complex structures.

A real algebra is stored as the differentials of its dual coframe
``e^1 .. e^m`` (Chevalley-Eilenberg convention ``d a = -a([.,.])``), a complex
structure as the differentials of a coframe ``w^1 .. w^n`` of (1,0)-forms.
Templates keep symbolic coefficients (parameters, their conjugates, declared
modulus symbols) until a binding supplies exact Gaussian-rational values; the
template grammar admits only (2,0) and (1,1) terms, so non-integrable input is
unrepresentable.  ``d`` on conjugated generators is always the conjugate of
``d`` on the generators, never stored separately.

Every form is differentiated by one kernel, the graded Leibniz rule on the
factors of each monomial (holomorphic factors first):

    d(x_0 /\\ .. /\\ x_m) = sum_k (-1)^k dx_k /\\ (x_0 /\\ .. x_k omitted .. /\\ x_m)

The generator differentials are 2-forms, so ``dx_k`` moves to the front
without a sign.  Nilpotency follows the lower central series with the
elimination of :mod:`linalg` (``column_basis``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

from .algebra import BasisElement, Form, Gaussian, ONE, ZERO, basis, wedge_elements
from .linalg import ExactMatrix, column_basis, exact_rank, hstack


class ModelError(Exception):
    """Base class for structure-validation failures."""


class UnboundParameterError(ModelError):
    def __init__(self, names):
        self.names = tuple(sorted(names))
        super().__init__("unbound parameters: " + ", ".join(self.names))


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

def exterior_derivative(f: Form, d_holo, d_anti) -> Form:
    """d by the Leibniz rule of the module docstring; terms are collected once."""
    terms = []
    for elem, coeff in f.terms.items():
        p = len(elem.holo)
        for k, j in enumerate(elem.holo + elem.anti):
            df = d_holo[j - 1] if k < p else d_anti[j - 1]
            if not df.terms:
                continue
            if k < p:
                rest = BasisElement(elem.holo[:k] + elem.holo[k + 1:], elem.anti)
            else:
                rest = BasisElement(elem.holo, elem.anti[:k - p] + elem.anti[k - p + 1:])
            for d_elem, d_coeff in df.terms.items():
                merged = wedge_elements(d_elem, rest)
                if merged is not None:
                    out, sign = merged
                    c = coeff * d_coeff
                    terms.append((out, c if sign == (-1) ** k else -c))
    return Form(f.n, terms)


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


# ---------------------------------------------------------------------------
# real Lie algebras
# ---------------------------------------------------------------------------

class RealAlgebra:
    """A real Lie algebra given by ``d e^j`` for a coframe ``e^1 .. e^dim``.

    The 2-forms live over the same machinery as the complex side, using only
    holomorphic slots and real coefficients.
    """

    def __init__(self, dim: int, d_of_e: list[Form]):
        if len(d_of_e) != dim:
            raise ValueError(f"expected {dim} differentials, got {len(d_of_e)}")
        for j, f in enumerate(d_of_e, start=1):
            if f.n != dim:
                raise ValueError(f"d e^{j} lives over the wrong coframe")
            for elem, coeff in f.terms.items():
                if elem.bidegree != (2, 0):
                    raise ValueError(f"d e^{j} is not a real 2-form: {elem}")
                if not coeff.is_real():
                    raise ValueError(f"d e^{j} has a non-real coefficient")
        self.dim = dim
        self.d_of_e = list(d_of_e)

    def d(self, f: Form) -> Form:
        return exterior_derivative(f, self.d_of_e, [])

    def check_d_squared(self) -> ValidationReport:
        report = ValidationReport()
        for j in range(1, self.dim + 1):
            residual = self.d(self.d_of_e[j - 1])
            if not residual.is_zero():
                report.residuals.append((f"e{j}", residual))
        return report

    def is_abelian(self) -> bool:
        return all(f.is_zero() for f in self.d_of_e)

    def first_betti(self) -> int:
        two_forms = basis(self.dim, 2, 0)
        index = {e: k for k, e in enumerate(two_forms)}
        columns = [{index[e]: c for e, c in f.terms.items()} for f in self.d_of_e]
        return self.dim - exact_rank(ExactMatrix(len(two_forms), self.dim, columns))

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

    ``[e_i, e_j] = -sum_k c^k_ij e_k`` where ``d e^k = sum c^k_ij e^ij``.  The
    series starts from the whole algebra and takes the span of every
    ``ad(e_i)`` applied to the previous term; it fails once a step keeps the
    dimension, since the span can then only repeat.
    """
    m = a.dim
    brackets = [[{} for _ in range(m)] for _ in range(m)]  # [i][j]: [e_i, e_j]
    for k, f in enumerate(a.d_of_e):
        for elem, c in f.terms.items():
            i, j = elem.holo
            brackets[i - 1][j - 1][k] = -c
            brackets[j - 1][i - 1][k] = c
    ads = [ExactMatrix(m, m, columns) for columns in brackets]
    span = ExactMatrix(m, m, [{j: ONE} for j in range(m)])
    while span.cols:
        image = column_basis(reduce(hstack, [ad @ span for ad in ads]))
        if image.cols == span.cols:
            return False
        span = image
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
class Modulus:
    """A declared symbol constrained to equal ``|param - shift|``."""

    name: str
    param: str
    shift: Gaussian


@dataclass(frozen=True)
class Mod:
    name: str
    negated: bool = False
    declaration: Modulus | None = None


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
                if elem.bidegree not in ((2, 0), (1, 1)):
                    raise IntegrabilityError(
                        f"term {elem} is neither (2,0) nor (1,1)"
                    )
                if max(elem.holo + elem.anti) > n:
                    raise ValueError(f"index out of range in {elem}")
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


@dataclass
class ParameterBinding:
    """Exact values for parameters and declared modulus symbols."""

    values: dict[str, Gaussian] = field(default_factory=dict)

    def get(self, name: str) -> Gaussian | None:
        return self.values.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self.values


class ComplexStructure:
    """Instantiated coframe differentials; every coefficient is exact.

    Construction checks ``d^2 = 0`` on every generator and raises
    :class:`DifferentialSquareError` otherwise.
    """

    def __init__(self, n: int, d_omega: list[Form]):
        if len(d_omega) != n:
            raise ValueError(f"expected {n} differentials, got {len(d_omega)}")
        for j, f in enumerate(d_omega, start=1):
            if f.n != n:
                raise ValueError(f"d w^{j} lives over the wrong coframe")
            bad = [e for e in f.terms if e.bidegree not in ((2, 0), (1, 1))]
            if bad:
                raise IntegrabilityError(f"d w^{j} has terms {bad}")
        self.n = n
        self.d_omega = list(d_omega)
        self._d_anti = [f.conjugate() for f in d_omega]
        report = check_d_squared(self)
        if not report.ok:
            raise DifferentialSquareError(report)

    def d(self, f: Form) -> Form:
        """Full exterior differential d = del + delbar on any invariant form."""
        return exterior_derivative(f, self.d_omega, self._d_anti)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ComplexStructure)
            and self.n == other.n
            and self.d_omega == other.d_omega
        )

    def __repr__(self) -> str:
        return f"ComplexStructure(n={self.n})"


def check_d_squared(cs: ComplexStructure) -> ValidationReport:
    """Compute every d(d w^j) and d(d wbar^j); list nonzero residuals."""
    report = ValidationReport()
    for j in range(1, cs.n + 1):
        residual = cs.d(cs.d_omega[j - 1])
        if not residual.is_zero():
            report.residuals.append((f"w{j}", residual))
        residual_bar = cs.d(cs._d_anti[j - 1])
        if not residual_bar.is_zero():
            report.residuals.append((f"w~{j}", residual_bar))
    return report


def _resolve_coefficient(expr: CoeffExpr, binding: ParameterBinding,
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
                binding: ParameterBinding) -> ComplexStructure:
    """Bind all symbols, validate modulus consistency and d^2 = 0."""
    missing: set[str] = set()
    forms = []
    for entry in template.d_of_omega:
        terms = []
        for expr, elem in entry:
            coeff = _resolve_coefficient(expr, binding, missing)
            terms.append((elem, coeff))
        forms.append(Form(template.n, terms))
    for name in template.params:
        if name not in binding:
            missing.add(name)
    if missing:
        raise UnboundParameterError(missing)
    for mod in template.moduli:
        value = binding.get(mod.name)
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

def realify(cs: ComplexStructure) -> RealAlgebra:
    """The underlying real algebra on ``e^{2j-1} = Re w^j``, ``e^{2j} = Im w^j``."""
    n, m = cs.n, 2 * cs.n
    i = Gaussian.of(0, 1)
    subs_holo = [
        Form(m, [(BasisElement((2 * j - 1,), ()), ONE), (BasisElement((2 * j,), ()), i)])
        for j in range(1, n + 1)
    ]
    # wbar^j = e^{2j-1} - i e^{2j}: conjugate coefficients, keep real slots
    subs_anti = [
        Form(m, [(e, c.conjugate()) for e, c in f.terms.items()])
        for f in subs_holo
    ]

    def expand(f: Form) -> Form:
        out = Form.zero(m)
        for elem, coeff in f.terms.items():
            piece = Form.single(m, BasisElement((), ()), coeff)
            for j in elem.holo:
                piece = piece.wedge(subs_holo[j - 1])
            for j in elem.anti:
                piece = piece.wedge(subs_anti[j - 1])
            out = out + piece
        return out

    d_of_e: list[Form] = []
    for j in range(1, n + 1):
        x = expand(cs.d_omega[j - 1])
        real_part = Form(m, [(e, Gaussian.rational(c.re)) for e, c in x.terms.items()])
        imag_part = Form(m, [(e, Gaussian.rational(c.im)) for e, c in x.terms.items()])
        d_of_e.append(real_part)
        d_of_e.append(imag_part)
    algebra = RealAlgebra(m, d_of_e)
    report = algebra.check_d_squared()
    if not report.ok:
        raise DifferentialSquareError(report)
    return algebra


def product_with_torus(cs: ComplexStructure) -> ComplexStructure:
    """Append one closed coframe generator (complex dimension n+1)."""
    n = cs.n + 1
    lifted = [f.with_dimension(n) for f in cs.d_omega]
    lifted.append(Form.zero(n))
    return ComplexStructure(n, lifted)
