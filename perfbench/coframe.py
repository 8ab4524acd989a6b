"""Seeded generator for the ``dense_coframe`` workload.

A catalog structure is written in an adapted (1,0)-coframe ``w``, in which
its differential matrices are very sparse.  The generator picks a general
invertible matrix ``A`` over the Gaussian integers and rewrites the same
structure in the coframe ``eta = A w``:

    d eta^i = sum_j A[i][j] d w^j,   with   w = B eta,  B = A^-1,

so every ``w^a /\\ w^b`` and ``w^a /\\ wbar^b`` term expands into all the
``eta`` monomials of its bidegree.  The structure is unchanged, so its
Bott-Chern numbers, Betti numbers and non-Kaehlerianity degrees are those of
the source row.

All arithmetic here is the benchmark's own: Gaussian rationals are
``(re, im)`` pairs of ``Fraction``.  The engine is used only to read the
source row's coefficients and to render the result as text; every generated
text is checked to survive parse -> render -> parse unchanged before it is
handed to a timed op.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def gadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def gsub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def gconj(x):
    return (x[0], -x[1])


def ginv(x):
    norm = x[0] * x[0] + x[1] * x[1]
    return (x[0] / norm, -x[1] / norm)


def matmul(a, b):
    n = len(a)
    out = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = ZERO
            for k in range(n):
                acc = gadd(acc, gmul(a[i][k], b[k][j]))
            out[i][j] = acc
    return out


def invert(a):
    """Gauss-Jordan inverse over Q(i); None when ``a`` is singular."""
    n = len(a)
    work = [row[:] + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != ZERO), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        scale = ginv(work[col][col])
        work[col] = [gmul(scale, e) for e in work[col]]
        for r in range(n):
            if r != col and work[r][col] != ZERO:
                head = work[r][col]
                work[r] = [gsub(e, gmul(head, t)) for e, t in zip(work[r], work[col])]
    return [row[n:] for row in work]


def random_change(rng, n: int, height: int = 2):
    """A general invertible ``A`` (every entry a nonzero Gaussian integer of
    height at most ``height``) and its inverse, with ``A A^-1 = I`` checked."""
    identity = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    while True:
        a = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                while a[i][j] == ZERO:
                    a[i][j] = (Fraction(rng.randint(-height, height)),
                               Fraction(rng.randint(-height, height)))
        b = invert(a)
        if b is None:
            continue
        if matmul(a, b) != identity or matmul(b, a) != identity:
            raise AssertionError("coframe change: A * A^-1 is not the identity")
        return a, b


def change_coframe(d_w, a, b):
    """Rewrite ``d w^j`` (dicts ``{(holo, anti): coeff}``) in ``eta = A w``.

    Keys are index tuples of the (2,0) monomials ``w^a /\\ w^b`` (a < b,
    ``anti == ()``) and of the (1,1) monomials ``w^a /\\ wbar^b``.
    """
    n = len(d_w)
    rewritten = []  # d w^j in the eta coframe
    for terms in d_w:
        out: dict = {}
        for (holo, anti), c in terms.items():
            if len(holo) == 2:
                x, y = holo
                for k in range(n):
                    for l in range(k + 1, n):
                        minor = gsub(gmul(b[x - 1][k], b[y - 1][l]),
                                     gmul(b[x - 1][l], b[y - 1][k]))
                        _accumulate(out, ((k + 1, l + 1), ()), gmul(c, minor))
            else:
                (x,), (y,) = holo, anti
                for k in range(n):
                    for l in range(n):
                        coeff = gmul(b[x - 1][k], gconj(b[y - 1][l]))
                        _accumulate(out, ((k + 1,), (l + 1,)), gmul(c, coeff))
        rewritten.append(out)
    d_eta = []
    for i in range(n):
        out = {}
        for j in range(n):
            for key, c in rewritten[j].items():
                _accumulate(out, key, gmul(a[i][j], c))
        d_eta.append(out)
    return d_eta


def _accumulate(out: dict, key, value):
    total = gadd(out.get(key, ZERO), value)
    if total == ZERO:
        out.pop(key, None)
    else:
        out[key] = total


def _terms_of_forms(forms) -> list[dict]:
    """Engine ``Form`` objects -> plain ``{(holo, anti): (re, im)}`` dicts."""
    return [
        {(e.holo, e.anti): (c.re, c.im) for e, c in f.terms.items()}
        for f in forms
    ]


def _terms_of_template(tpl) -> list[dict]:
    """A parsed literal-only template -> plain coefficient dicts."""
    out = []
    for entry in tpl.d_of_omega:
        terms: dict = {}
        for expr, elem in entry:
            value = expr.value  # a literal; anything else is a generator bug
            _accumulate(terms, (elem.holo, elem.anti), (value.re, value.im))
        out.append(terms)
    return out


def generate(nc, template_text: str, binding_text: str, rng) -> str:
    """The structure of one catalog row, rewritten in a random general
    coframe and rendered as text.  ``nc`` is the imported engine package."""
    parser, model, algebra = nc.parser, nc.model, nc.algebra
    source = model.instantiate(parser.parse_complex_structure(template_text),
                               parser.parse_binding(binding_text))
    n = source.n
    a, b = random_change(rng, n)
    d_eta = change_coframe(_terms_of_forms(source.d_omega), a, b)
    entries = [
        tuple(
            (model.Lit(algebra.Gaussian.of(*c)), algebra.BasisElement(holo, anti))
            for (holo, anti), c in sorted(terms.items())
        )
        for terms in d_eta
    ]
    text = parser.render(model.ComplexStructureTemplate(n, entries))
    first = parser.parse_complex_structure(text)
    again = parser.render(first)
    if again != text or parser.parse_complex_structure(again) != first:
        raise AssertionError(f"render/parse round trip changed {text!r}")
    if _terms_of_template(first) != d_eta:
        raise AssertionError(f"parsed coefficients differ from the generated ones: {text!r}")
    return text
