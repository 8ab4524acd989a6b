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

A structure compiles its generator differentials once and differentiates
by :func:`nilcohom.algebra.exterior_derivative`.  Nilpotency follows the
lower central series with the elimination of :mod:`linalg` (``column_basis``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import comb

from .algebra import (BasisElement, Form, Gaussian, ONE, ZERO, basis, compile_differentials,
                      exterior_derivative)
from .linalg import ExactMatrix, column_basis, exact_rank, hstack


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
            for elem, coeff in f.terms.items():
                _check_monomial(elem, dim)
                if elem.bidegree != (2, 0):
                    raise ValueError(f"d e^{j} is not a real 2-form: {elem}")
                if not coeff.is_real():
                    raise ValueError(f"d e^{j} has a non-real coefficient")
        self.dim = dim
        self.d_of_e = list(d_of_e)
        self._d = compile_differentials(self.d_of_e)

    def d(self, f: Form) -> Form:
        return exterior_derivative(f, self._d, [])

    def check_d_squared(self) -> ValidationReport:
        return _d_squared(self.d, self.d_of_e, "e")

    def is_abelian(self) -> bool:
        return all(f.is_zero() for f in self.d_of_e)

    def betti(self) -> list[int]:
        """``b_k = C(dim, k) - rank d_k - rank d_(k-1)`` for k = 0..dim.

        ``d_k`` is real ``d`` on ``basis(dim, k, 0)``: the Chevalley-Eilenberg
        complex, whose cohomology is that of the nilmanifold (Nomizu).  It
        shares no matrix with the bigraded engine of :mod:`nilcohom.cohomology`.
        """
        m = self.dim
        ranks = [0] * (m + 2)  # ranks[k + 1] = rank d_k; d_-1 and d_m vanish
        for k in range(m):
            index = {e: r for r, e in enumerate(basis(m, k + 1, 0))}
            columns = [{index[e]: c for e, c in self.d(Form.single(elem)).terms.items()}
                       for elem in basis(m, k, 0)]
            ranks[k + 1] = exact_rank(ExactMatrix.from_gaussian(len(index), len(columns),
                                                                columns))
        return [comb(m, k) - ranks[k + 1] - ranks[k] for k in range(m + 1)]

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
    # each ad(e_i) is scaled to Z[i] by its own factor, which changes no span
    ads = [ExactMatrix.from_gaussian(m, m, columns) for columns in brackets]
    span = ExactMatrix(m, m, [{j: (1, 0)} for j in range(m)])
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


class ComplexStructure:
    """Instantiated coframe differentials; every coefficient is exact.

    Construction checks ``d^2 = 0`` on every generator ``w^j`` and raises
    :class:`DifferentialSquareError` otherwise.
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
        self._d_holo = compile_differentials(self.d_omega)
        self._d_anti = compile_differentials([f.conjugate() for f in d_omega])
        report = check_d_squared(self)
        if not report.ok:
            raise DifferentialSquareError(report)

    def d(self, f: Form) -> Form:
        """Full exterior differential d = del + delbar on any invariant form."""
        return exterior_derivative(f, self._d_holo, self._d_anti)

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
    unknown = set(binding).difference(
        template.params, (mod.name for mod in template.moduli)
    )
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
