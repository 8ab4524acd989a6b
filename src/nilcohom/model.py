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
``d(d wbar^j)`` is its conjugate.

Both kinds of structure share one base, ``_Differential`` (layout (m, 0) for a
real algebra, (n, n) for a complex structure), and one set of checks: the gate
``_check_terms`` (the templates' too; one lookup per monomial in a cached
set of the canonical monomials it allows), ``check_d_squared``, equality, and
``check_nilpotency``, which reads the bracket off the structure's own d.  Each
holds ``d`` as ``L * d``: one integral :class:`~nilcohom.linalg.ExactMatrix`
per total degree, where ``L`` is the lcm of the denominators of the structure
constants.  A degree's matrix is built the first time it is needed: each
scaled constant, held as ``(Leibniz table, L * x, +-L * y)`` once per side
(``g^j`` and ``gbar^j``), is added along the rows that its term's table
(:func:`nilcohom.algebra.leibniz_rows`) holds for that degree.  Degree 0 and
the top degree are empty by structure and read no constant.  The ``d^2``
check applies the matrix on 2-forms to the integral columns ``L * d g^j``,
and reports each nonzero image column divided by ``L^2``, so building a
structure builds only that matrix, takes one product and calls no ``d``.
``d`` of a form applies ``matrix(k)`` to the form's degree-k part, one
integral column per degree, and divides by ``L``, so that
:meth:`~nilcohom.linalg.ExactMatrix.apply` is the package's one product loop;
``_Differential._column`` is the one way from a form's terms to an integral
column, for the constants and for ``d``, and ``_Differential._form`` the one
way back, for ``d``, the ``d^2`` report and :func:`nilcohom.metrics.ddbar_of`.
The cohomology tables, the metrics, the Betti numbers and the nilpotency
check all read these matrices.  Nilpotency follows the lower central series
with the elimination of :mod:`linalg`, whose pivot columns span each term.
"""

from __future__ import annotations

from functools import cache
from math import lcm
from typing import NamedTuple

from .algebra import Form, Gaussian, ZERO, _reduced, degree_basis, leibniz_rows
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

@cache
def _allowed(n: int, bidegrees) -> frozenset:
    """The canonical 2-form monomials over n generators and their n
    conjugates of the given bidegrees."""
    return frozenset(e for e in degree_basis(n, n, 2)[0] if e.bidegree in bidegrees)


def _check_terms(entries, n: int, bidegrees, error, label: str) -> None:
    """Reject ``entries``, each the monomials of one generator's d, unless
    there are n, each block is strictly ascending within 1..n and each
    bidegree is in ``bidegrees``; another bidegree raises ``error``.

    A monomial is accepted by one lookup in :func:`_allowed`; only one that
    is not there is taken apart, to say why."""
    if len(entries) != n:
        raise ValueError(f"expected {n} differentials, got {len(entries)}")
    allowed = _allowed(n, bidegrees)
    for j, terms in enumerate(entries, start=1):
        for elem in terms:
            if elem in allowed:
                continue
            for block in (elem.holo, elem.anti):
                if not all(a < b for a, b in zip((0, *block), (*block, n + 1))):
                    raise ValueError(f"not a canonical monomial over {n} generators: {elem}")
            if elem.bidegree not in bidegrees:
                raise error(f"{label}{j} has a {elem.bidegree} term {elem}")


class ValidationReport:
    """Outcome of a d^2 = 0 check; residuals list every nonzero d(d generator),
    a new list for each report unless one is given."""

    __slots__ = ("residuals",)

    def __init__(self, residuals: list[tuple[str, Form]] | None = None):
        self.residuals = [] if residuals is None else residuals

    def __eq__(self, other):
        return self.residuals == other.residuals if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        return f"ValidationReport(residuals={self.residuals!r})"

    @property
    def ok(self) -> bool:
        return not self.residuals

    def __str__(self) -> str:
        if self.ok:
            return "d-square: ok"
        # the form's text writes each monomial with w; a real algebra's are e's
        lines = [f"d(d {label}) = {str(form).replace('w', label[0])}"
                 for label, form in self.residuals]
        return "d-square FAILED:\n  " + "\n  ".join(lines)


class _Differential:
    """``L * d`` of a structure on ``holo`` generators with ``d`` given by
    ``forms``, and on ``anti`` conjugates of them: one matrix per total degree.

    ``matrix(k)`` maps degree k to degree k + 1, its rows and columns in
    :func:`~nilcohom.algebra.degree_basis` order.  A basis monomial has
    coefficient 1, so each entry of ``d`` on it sums constants or their
    conjugates, and ``L * d`` is integral.

    Each constant is held once per side, as ``(Leibniz table, L * x, +-L *
    y)``: the table (:func:`~nilcohom.algebra.leibniz_rows`) of its term on
    the factor ``g^j``, and on ``gbar^j`` when there are conjugates, whose
    ``d`` is the conjugate of ``d g^j``.  A build of degree k reads each
    table's triples for k and adds the constant along them.  Degree 0 and
    the top degree are empty by structure, so their build reads no
    constant; degree ``top - 1`` is built, as its zeros are a property of
    the constants (unimodularity).
    """

    def __init__(self, holo: int, anti: int, forms: list[Form]):
        self._layout, self.forms = (holo, anti), list(forms)
        scale = self._scale = lcm(*(c.den for f in forms for c in f.terms.values()))
        # L * d g^j for every generator, an integral column over the 2-forms
        self._columns = [self._column(2, f.terms.items(), scale) for f in forms]
        self._terms = [(leibniz_rows(holo, anti, j, s, bar), x, -y if bar else y)
                       for j, column in enumerate(self._columns, start=1)
                       for s, (x, y) in column.items()
                       for bar in ((False, True) if anti else (False,))]
        self._matrices = {}

    def matrix(self, k: int) -> ExactMatrix:
        """``L * d`` on total degree k, built the first time it is asked for."""
        if k not in self._matrices:
            holo, anti = self._layout
            rows, cols = (len(degree_basis(holo, anti, i)[0]) for i in (k + 1, k))
            m = ExactMatrix(rows, cols)
            if 0 < k < holo + anti:
                # its columns are filled here, before any caller sees it
                columns = m.columns
                for table, x, y in self._terms:
                    entries = iter(table[k])
                    for c, row, sign in zip(entries, entries, entries):
                        a, b = columns[c].pop(row, (0, 0))
                        a, b = a + sign * x, b + sign * y
                        if a or b:  # constants may cancel, and a matrix stores no zero
                            columns[c][row] = a, b
            self._matrices[k] = m
        return self._matrices[k]

    def d(self, f: Form) -> Form:
        """d of a form: ``matrix(k)`` applied to its degree-k part, for each
        degree k of ``f`` (which may mix degrees), and divided by ``L``.

        Each part is one integral column (:meth:`_column`), ``den`` times
        the part, where ``den`` is the lcm of the denominators of ``f``'s
        coefficients; its image's rows become degree k + 1 monomials only in
        the result."""
        den, parts = lcm(*(c.den for c in f.terms.values())), {}
        for elem, c in f.terms.items():
            parts.setdefault(len(elem.holo) + len(elem.anti), []).append((elem, c))
        terms = []
        for k, part in parts.items():
            (image,) = self.matrix(k).apply([self._column(k, part, den)])
            terms += self._form(k + 1, image, den * self._scale).terms.items()
        return Form(terms)

    def _column(self, k: int, terms, den: int) -> dict:
        """The integral column, in :func:`~nilcohom.algebra.degree_basis`
        order, of ``den`` times the form of degree k with ``terms``, pairs of
        a monomial and a coefficient whose denominator divides ``den``: the
        one way from a form to a column, and :meth:`_form` the way back."""
        place = degree_basis(*self._layout, k)[1]
        return {place[e]: (c.x * (den // c.den), c.y * (den // c.den)) for e, c in terms}

    def _form(self, k: int, column: dict, den: int) -> Form:
        """The form of degree k whose coefficients are the integral column
        ``column``, in :func:`~nilcohom.algebra.degree_basis` order, over
        ``den``: the one way back from a column to a form."""
        targets = degree_basis(*self._layout, k)[0]
        return Form((targets[row], _reduced(a, b, den)) for row, (a, b) in column.items())

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and other._layout == self._layout
                and other.forms == self.forms)


def check_d_squared(structure: _Differential) -> ValidationReport:
    """Whether d(d g^j) = 0 for every generator g^j, e^j of a real algebra or
    w^j of a complex structure; each d(d wbar^j) is the conjugate of d(d w^j).

    ``matrix(2)`` maps the integral column ``L * d g^j`` to ``L^2 * d(d g^j)``,
    so a nonzero image column is a residual, and its report is that column
    divided by ``L^2``: the check takes one product and calls no ``d``."""
    label, report = "w" if structure._layout[1] else "e", ValidationReport()
    square = structure._scale ** 2
    for j, image in enumerate(structure.matrix(2).apply(structure._columns), start=1):
        if image:
            report.residuals.append((f"{label}{j}", structure._form(3, image, square)))
    return report


def check_nilpotency(structure: _Differential) -> bool:
    """Whether the lower central series of the recovered bracket reaches zero.

    The generators are the e^j of a real algebra, or the w^j of a complex
    structure followed by the wbar^j, which span the dual of g (x) C; g is
    nilpotent exactly when g (x) C is.  ``[x_i, x_j] = -sum_k c^k_ij x_k``
    where ``d x^k = sum c^k_ij x^ij``, so the bracket is read off ``L * d``
    on 1-forms, whose one factor ``L`` changes no span.  The series starts
    from the whole algebra and takes the span of every ``ad(x_i)`` applied to
    the previous term; it fails once a step keeps the dimension, since the
    span can then only repeat.
    """
    holo, anti = structure._layout
    m, (ones, pairs) = holo + anti, (degree_basis(holo, anti, k)[0] for k in (1, 2))
    def numbers(e):  # x^1 .. x^m: the w^j, then the wbar^j
        return (*e.holo, *(holo + b for b in e.anti))
    brackets = [[{} for _ in range(m)] for _ in range(m)]  # [i][j]: [x_i, x_j]
    for e, column in zip(ones, structure.matrix(1).columns):
        (k,) = numbers(e)
        for r, (x, y) in column.items():
            i, j = numbers(pairs[r])
            brackets[i - 1][j - 1][k - 1] = -x, -y
            brackets[j - 1][i - 1][k - 1] = x, y
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
# real Lie algebras
# ---------------------------------------------------------------------------

class RealAlgebra(_Differential):
    """A real Lie algebra given by ``d e^j`` for a coframe ``e^1 .. e^dim``.

    The 2-forms live over the same machinery as the complex side, in the
    layout (dim, 0): only holomorphic slots, and real coefficients.
    """

    def __init__(self, dim: int, d_of_e: list[Form]):
        _check_terms([f.terms for f in d_of_e], dim, ((2, 0),), ValueError, "d e^")
        for j, f in enumerate(d_of_e, start=1):
            if not all(c.is_real() for c in f.terms.values()):
                raise ValueError(f"d e^{j} has a non-real coefficient")
        super().__init__(dim, 0, d_of_e)
        self.dim, self.d_of_e = dim, self.forms

    def is_abelian(self) -> bool:
        return all(f.is_zero() for f in self.d_of_e)

    def betti(self) -> list[int]:
        """``b_k = C(dim, k) - rank d_k - rank d_(k-1)`` for k = 0..dim.

        ``d_k`` is real ``d`` on ``basis(dim, k, 0)``: the Chevalley-Eilenberg
        complex, whose cohomology is that of the nilmanifold (Nomizu).  Its
        matrices come from the same Leibniz tables as a complex structure's,
        but it shares no matrix with the bigraded engine of
        :mod:`nilcohom.cohomology`; ``C(dim, k)`` is the column count of
        ``d_k``, and ``d_dim`` has no rows.
        """
        matrices = [self.matrix(k) for k in range(self.dim + 1)]
        # ranks[k]: the rank of d_(k-1)
        ranks = [0, *(exact_rank(m.rows, m.columns) for m in matrices)]
        return [m.cols - ranks[k + 1] - ranks[k] for k, m in enumerate(matrices)]

    def __repr__(self) -> str:
        return f"RealAlgebra(dim={self.dim})"


# ---------------------------------------------------------------------------
# complex structures and their templates
# ---------------------------------------------------------------------------

class Lit(NamedTuple):
    value: Gaussian


class Param(NamedTuple):
    name: str
    conjugated: bool = False
    negated: bool = False


class Mod(NamedTuple):
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
        _check_terms([[elem for _, elem in entry] for entry in self.d_of_omega], n,
                     ((2, 0), (1, 1)), IntegrabilityError, "d w^")
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
    :class:`DifferentialSquareError` otherwise; ``matrix(k)`` is ``L * d`` on
    total degree k for the layout (n, n).
    """

    def __init__(self, n: int, d_omega: list[Form]):
        _check_terms([f.terms for f in d_omega], n, ((2, 0), (1, 1)), IntegrabilityError, "d w^")
        super().__init__(n, n, d_omega)
        self.n, self.d_omega = n, self.forms
        report = check_d_squared(self)
        if not report.ok:
            raise DifferentialSquareError(report)

    # bound here, not only inherited, so that the class's own namespace
    # holds it: the benchmark's trace wraps methods there
    d = _Differential.d

    def __repr__(self) -> str:
        return f"ComplexStructure(n={self.n})"


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
