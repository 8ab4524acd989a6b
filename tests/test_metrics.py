import gc
import math
import random
import weakref
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings

from nilcohom import metrics as me
from nilcohom.algebra import (BasisElement, Form, Gaussian, I, ONE, ZERO, basis, degree_basis,
                              wedge_row)
from nilcohom.linalg import ExactMatrix
from nilcohom.model import instantiate
from nilcohom.parser import parse_binding, parse_complex_structure, parse_gaussian
from real_oracle import product_with_torus
from scale_oracle import d_block, degree_monomials, structure_scale
from test_cohomology import _in_a_random_coframe
from test_model import triangular_structures


def build(template, binding=""):
    return instantiate(parse_complex_structure(template), parse_binding(binding))


TOP = BasisElement((1, 2), (1, 2))


def to_two_form(h):
    """The real fundamental (1,1)-form ``i sum_jk H_jk w^j /\\ wbar^k``, built
    from the grid here, apart from the engine's route through ``dF``."""
    return Form((BasisElement((j + 1,), (k + 1,)), I * c)
                for j, row in enumerate(h.entries) for k, c in enumerate(row))


def test_standard_form_is_identity():
    for n in (3, 4):
        h = me.standard_form(n)
        assert all(h.entries[j][j] == Gaussian.of(1) for j in range(n))
        assert all(not h.entries[j][k] for j in range(n) for k in range(n) if j != k)


def test_to_two_form_identity():
    omega = to_two_form(me.standard_form(3))
    expected = Form([(BasisElement((j,), (j,)), I) for j in (1, 2, 3)])
    assert omega == expected
    assert omega.conjugate() == omega
    assert omega.bidegrees() == {(1, 1)}


def test_to_two_form_reality_with_offdiagonals():
    h = me.form_from_uvz(Fraction(1), Fraction(1, 2), Fraction(1),
                         u=parse_gaussian("5/8i"))
    omega = to_two_form(h)
    assert omega.conjugate() == omega
    # the u-coefficient convention: Omega contains u w^{1~2} - conj(u) w^{2~1}
    u = parse_gaussian("5/8i")
    assert omega.coefficient(BasisElement((1,), (2,))) == u
    assert omega.coefficient(BasisElement((2,), (1,))) == -(u.conjugate())


def test_non_hermitian_grid_rejected():
    with pytest.raises(ValueError):
        me.HermitianForm([[Gaussian.of(1), Gaussian.of(1)],
                          [Gaussian.of(2), Gaussian.of(1)]])
    with pytest.raises(ValueError):
        me.HermitianForm([[Gaussian.of(0, 1)]])


def test_positivity_examples():
    assert me.is_positive(me.standard_form(3))
    bad = me.form_from_uvz(Fraction(1), Fraction(1), Fraction(1),
                           u=parse_gaussian("2"))
    assert not me.is_positive(bad)
    good = me.form_from_uvz(Fraction(1), Fraction(1, 2), Fraction(1),
                            u=parse_gaussian("5/8i"))
    assert me.is_positive(good)


def _classical_inequalities(h):
    # oracle: the four constraints of the generic 3-dimensional Hermitian form
    i = Gaussian.of(0, 1)
    u = i * h.entries[0][1]
    z = i * h.entries[0][2]
    v = i * h.entries[1][2]
    r2, s2, t2 = (h.entries[j][j].re for j in range(3))
    lhs4 = r2 * s2 * t2 + 2 * (i * u.conjugate() * v.conjugate() * z).re
    rhs4 = (t2 * u.modulus_squared() + r2 * v.modulus_squared()
            + s2 * z.modulus_squared())
    return (
        r2 * s2 > u.modulus_squared()
        and s2 * t2 > v.modulus_squared()
        and r2 * t2 > z.modulus_squared()
        and lhs4 > rhs4
    )


def test_minor_criterion_agrees_with_classical_inequalities():
    rng = random.Random(13)
    checked_positive = checked_negative = 0
    for _ in range(300):
        diag = [Fraction(rng.randint(1, 3)) for _ in range(3)]
        upper = {
            (j, k): Gaussian.of(Fraction(rng.randint(-3, 3), 2),
                                Fraction(rng.randint(-3, 3), 2))
            for j in (1, 2) for k in range(j + 1, 4)
        }
        h = me.hermitian_form(diag, upper)
        verdict = me.is_positive(h)
        assert verdict == _classical_inequalities(h)
        checked_positive += verdict
        checked_negative += not verdict
    assert checked_positive > 20 and checked_negative > 20


def _leading_minors(entries):
    # oracle: each leading principal minor by the permutation expansion
    minors = []
    for k in range(1, len(entries) + 1):
        total = Gaussian.of(0)
        for perm in permutations(range(k)):
            inversions = sum(perm[a] > perm[b] for a, b in combinations(range(k), 2))
            term = Gaussian.of(-1 if inversions % 2 else 1)
            for row, col in enumerate(perm):
                term = term * entries[row][col]
            total = total + term
        minors.append(total)
    return minors


def test_positivity_agrees_with_leading_minors():
    rng = random.Random(29)
    values = [Gaussian.of(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)]
    values += [Gaussian.of(Fraction(1, 2)), Gaussian.of(2, 1)]
    seen = {"positive": 0, "singular": 0, "indefinite": 0}
    for _ in range(400):
        n = rng.randint(1, 4)
        diag = [Fraction(rng.randint(1, 2)) for _ in range(n)]
        upper = {(j, k): rng.choice(values)
                 for j in range(1, n + 1) for k in range(j + 1, n + 1)}
        h = me.hermitian_form(diag, upper)
        minors = _leading_minors(h.entries)
        assert all(m.is_real() for m in minors)
        first_bad = next((m for m in minors if m.re <= 0), None)
        kind = ("positive" if first_bad is None
                else "singular" if not first_bad else "indefinite")
        seen[kind] += 1
        assert me.is_positive(h) == (kind == "positive"), h.entries
    assert min(seen.values()) >= 50, seen


def test_ddbar_of_table_values():
    std = me.standard_form(3)
    cases = [
        ("(0,0,w1~1+D*w2~2)", "D=i", "0"),
        ("(0,0,w1~1+w1~2+1/4*w2~2)", "", "-1/2"),
        ("(0,0,w12+w1~1+lambda*w1~2+D*w2~2)", "lambda=0; D=1/2", "0"),
        ("(0,0,w12)", "", "-1"),
    ]
    for template, binding, coeff in cases:
        cs = build(template, binding)
        expected = Form.single(TOP, parse_gaussian(coeff)) if coeff != "0" \
            else Form()
        assert me.ddbar_of(cs, std) == expected


def test_ddbar_of_agrees_with_the_engine_dd_matrix(all_cases, structures):
    # two independent paths to del delbar on (1,1)-forms: d(delbar F) on the
    # form, and the engine's del(1,2) @ delbar(1,1) on coefficient vectors;
    # the engine scales d by the lcm L of the structure constants'
    # denominators, so its dd matrix is L^2 times del delbar
    source = basis(3, 1, 1)
    target = basis(3, 2, 2)
    for k, case in enumerate(c for c in all_cases if c.dim == 3):
        cs = structures[case.id]
        scale = structure_scale(cs)
        d = [cs.matrix(k) for k in range(2 * cs.n + 1)]
        dd = d_block(d, 3, (1, 2), (2, 2)) @ d_block(d, 3, (1, 1), (1, 2))
        forms = [me.standard_form(3)] + me.random_positive_forms(3, 3, seed=k)
        for h in forms:
            image = Form((target[i], Gaussian.of(x, y) * h[e.holo[0] - 1, e.anti[0] - 1])
                         for e, column in zip(source, dd.columns)
                         for i, (x, y) in column.items())
            assert me.ddbar_of(cs, h).scale(scale * scale) == image, case.id


def test_ddbar_of_dimension_mismatch(structures):
    # one gate guards all three tests, for forms of either wrong size
    cs = structures["08"]
    for h in (me.standard_form(2), me.standard_form(4)):
        for test in (me.ddbar_of, me.is_pluriclosed, me.is_balanced):
            with pytest.raises(ValueError, match="dimension mismatch"):
                test(cs, h)
    # positivity is checked first, so a non-positive form of the wrong n
    # fails on it; ddbar_of needs no positivity
    bad = me.hermitian_form([1, 1], {(1, 2): Gaussian.of(2)})
    for test in (me.is_pluriclosed, me.is_balanced):
        with pytest.raises(ValueError, match="not positive definite"):
            test(cs, bad)
    with pytest.raises(ValueError, match="dimension mismatch"):
        me.ddbar_of(cs, bad)


def test_ddbar_of_is_linear_in_the_form():
    cs = build("(0,0,w12+w1~1+w1~2+D*w2~2)", "D=2")
    h1 = me.standard_form(3)
    h2 = me.form_from_uvz(Fraction(2), Fraction(1), Fraction(3),
                          u=parse_gaussian("1/2+1/2i"))
    combined = me.hermitian_form(
        [h1.entries[j][j].re + 2 * h2.entries[j][j].re for j in range(3)],
        {(j, k): h1.entries[j - 1][k - 1] + h2.entries[j - 1][k - 1] * 2
         for j in (1, 2) for k in range(j + 1, 4)},
    )
    lhs = me.ddbar_of(cs, combined)
    rhs = me.ddbar_of(cs, h1) + me.ddbar_of(cs, h2).scale(2)
    assert lhs == rhs


def test_pluriclosed_examples():
    std = me.standard_form(3)
    assert me.is_pluriclosed(build("(0,0,w1~1)"), std)
    assert not me.is_pluriclosed(build("(0,0,w12)"), std)
    assert me.is_pluriclosed(build("(0,0,w12+w1~1+w1~2+D*w2~2)", "D=1"), std)


def test_pluriclosed_rejects_non_positive_form():
    bad = me.form_from_uvz(Fraction(1), Fraction(1), Fraction(1),
                           u=parse_gaussian("2"))
    with pytest.raises(ValueError):
        me.is_pluriclosed(build("(0,0,0)"), bad)
    with pytest.raises(ValueError):
        me.is_balanced(build("(0,0,0)"), bad)


def test_balanced_examples():
    std = me.standard_form(3)
    assert me.is_balanced(build("(0,0,0)"), std)
    # the holomorphically parallelizable structure carries a balanced metric
    assert me.is_balanced(build("(0,0,w12)"), std)
    assert not me.is_balanced(build("(0,0,w1~1+D*w2~2)", "D=i"), std)


def test_curve_c_distinguished_metric_is_balanced_only_off_the_wall():
    cs = build("(0,0,w12+w1~1+w1~2+D*w2~2)", "D=1/8")
    h = me.form_from_uvz(Fraction(1), Fraction(1, 2), Fraction(1),
                         u=parse_gaussian("5/8i"))
    assert me.is_balanced(cs, h)
    assert not me.is_pluriclosed(cs, h)


def test_random_positive_forms_are_deterministic_and_positive():
    sample = me.random_positive_forms(3, 8, seed=17)
    again = me.random_positive_forms(3, 8, seed=17)
    assert sample == again
    assert all(me.is_positive(h) for h in sample)
    other = me.random_positive_forms(3, 8, seed=18)
    assert sample != other


def _forms(n):
    """The standard form and three seeded random positive forms."""
    return [me.standard_form(n), *me.random_positive_forms(n, 3, seed=5)]


def _skt_and_balanced(cs):
    """The indices of the forms of :func:`_forms` that are both SKT and
    balanced on ``cs``; any of them makes ``cs`` the torus."""
    both = [j for j, h in enumerate(_forms(cs.n))
            if me.is_pluriclosed(cs, h) and me.is_balanced(cs, h)]
    # SKT and balanced together is Kaehler (Alexandrov-Ivanov), and a Kaehler
    # nilmanifold is a torus (Benson-Gordon, Hasegawa): every d w^j is 0.  The
    # two tests read different degrees of d, so this is no identity
    assert not both or all(f.is_zero() for f in cs.d_omega), (cs.d_omega, both)
    return both


def test_skt_and_balanced_forms_live_on_the_torus_only(structures):
    both = {cid: forms for cid, cs in structures.items() if (forms := _skt_and_balanced(cs))}
    # on the torus every positive form passes both tests
    assert len(structures) == 72 and both == {"00": [0, 1, 2, 3], "00_8D": [0, 1, 2, 3]}


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(triangular_structures())
def test_skt_and_balanced_forms_beyond_the_catalog(cs):
    # these structures have d w^n != 0, so no form passes both tests
    assert _skt_and_balanced(cs) == []


def _balanced_by_definition(cs, h):
    """Whether d(Omega^(n-1)) = 0, with Omega and its power built here: the
    reference applies d on degree 2n-2, the engine on degree 2 only."""
    omega = to_two_form(h)
    power = omega
    for _ in range(cs.n - 2):
        power = power.wedge(omega)
    return cs.d(power).is_zero()


def test_balanced_agrees_with_its_definition_on_the_catalog(structures):
    verdicts = [me.is_balanced(cs, h) == _balanced_by_definition(cs, h)
                for cs in structures.values() for h in _forms(cs.n)]
    assert len(verdicts) == 288 and all(verdicts)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(triangular_structures())
def test_balanced_agrees_with_its_definition_beyond_the_catalog(cs):
    for h in _forms(cs.n):
        assert me.is_balanced(cs, h) == _balanced_by_definition(cs, h)


def test_balanced_reads_only_the_degree_two_matrix():
    # the d^2 check builds matrix(2); the balanced test reads nothing else
    cs = build("(0,0,w12+w1~1+w1~2+D*w2~2)", "D=1/8")
    assert set(cs._matrices) == {2}
    for h in _forms(3):
        me.is_balanced(cs, h)
    assert set(cs._matrices) == {2}


def test_balanced_builds_only_the_wedge_rows_its_columns_hold():
    # 9 generators have 2^18 monomials; dF /\ F^7 of the standard form on
    # this structure holds 128 of them over all degrees
    cs = build("(0,0,0,0,0,0,0,0,w12)")
    before = wedge_row.cache_info().currsize
    assert me.is_balanced(cs, me.standard_form(9))
    assert wedge_row.cache_info().currsize - before <= 128


def _with_torus(h):
    """``h`` plus 1 on the new generator: the form of the product with the torus."""
    return me.HermitianForm([row + [ZERO] for row in h.entries] + [[ZERO] * h.n + [ONE]])


def test_metric_verdicts_survive_the_product_with_the_torus(all_cases, structures):
    # Omega' = Omega + eta with eta = i w^{n+1} /\ wbar^{n+1} closed and eta^2 = 0,
    # so d(Omega'^n) = d(Omega^n) + n d(Omega^(n-1)) /\ eta, where d(Omega^n)
    # has degree 2n+1 > 2n and is 0; and del delbar Omega' = del delbar Omega
    checked = 0
    for case in all_cases:
        if case.dim != 3:
            continue
        cs = structures[case.id]
        product = product_with_torus(cs)
        for h in _forms(3):
            wide = _with_torus(h)
            assert me.is_balanced(product, wide) == me.is_balanced(cs, h), case.id
            assert me.is_pluriclosed(product, wide) == me.is_pluriclosed(cs, h), case.id
            checked += 1
    assert checked == 204


def test_metric_verdicts_on_nilpotent_complex_surfaces():
    # d vanishes on the 3-forms of a unimodular 4-dimensional algebra, so every
    # form is pluriclosed; balanced is Kaehler in complex dimension 2, and a
    # Kaehler nilmanifold is a torus
    for template in ("(0,0)", "(0,w1~1)", "(0,i*w1~1)", "(0,2*w1~1)", "(0,1/2*w1~1)"):
        cs = build(template)
        for h in [me.standard_form(2), *me.random_positive_forms(2, 5, seed=3)]:
            assert me.is_pluriclosed(cs, h), template
            assert me.is_balanced(cs, h) == (template == "(0,0)"), template


def test_hermitian_form_coerces_plain_rationals_above_the_diagonal():
    # each upper value is coerced the way a diagonal entry is
    expected = me.hermitian_form([1, 1, 1], {(1, 2): Gaussian.of(Fraction(1, 2)),
                                             (2, 3): Gaussian.of(-1)})
    for half, one in ((Fraction(1, 2), -1), (Gaussian.of(Fraction(1, 2)), Fraction(-1))):
        h = me.hermitian_form([1, 1, 1], {(1, 2): half, (2, 3): one})
        assert h == expected and not h.positive
        assert h[1, 0] == Gaussian.of(Fraction(1, 2)) and h[2, 1] == Gaussian.of(-1)
    assert me.hermitian_form([2, 2], {(1, 2): 1}).positive
    for bad in (0.5, "1/2", None):
        with pytest.raises(TypeError, match=r"^expected an exact rational, got \w+$"):
            me.hermitian_form([1, 1], {(1, 2): bad})
    with pytest.raises(TypeError, match=r"^expected an exact rational, got float$"):
        me.hermitian_form([1, 0.5])


def _rational(rng, dens=(1, 2, 3, 5, 7)):
    return Gaussian.of(Fraction(rng.randint(-4, 4), rng.choice(dens)),
                       Fraction(rng.randint(-4, 4), rng.choice(dens)))


def _draw_grid(rng, n):
    """A Hermitian grid over denominators 1, 2, 3, 5 and 7: ``G G*`` for a
    random n x m grid ``G`` (positive for m = n, singular for m < n, as a
    rule), or random entries on a positive diagonal (often indefinite)."""
    if rng.random() < 0.4:
        diag = [Gaussian.of(Fraction(rng.randint(1, 9), rng.choice((1, 2, 3, 5, 7))))
                for _ in range(n)]
        upper = {(j, k): _rational(rng) for j in range(n) for k in range(j + 1, n)}
        return [[diag[j] if j == k else upper[j, k] if j < k else upper[k, j].conjugate()
                 for k in range(n)] for j in range(n)]
    m = rng.randint(max(1, n - 2), n)
    g = [[_rational(rng) for _ in range(m)] for _ in range(n)]
    for row in g:  # no zero row, so that the diagonal is positive
        row[0] = row[0] or ONE
    return [[sum((a * b.conjugate() for a, b in zip(g[j], g[k])), ZERO) for k in range(n)]
            for j in range(n)]


def _integral(entries) -> tuple[int, list]:
    """``den`` and ``den * H`` as a grid of integer pairs, for the lcm ``den``
    of the entries' denominators, taken here from the entries."""
    den = math.lcm(*(c.den for row in entries for c in row))
    return den, [[(c.x * (den // c.den), c.y * (den // c.den)) for c in row] for row in entries]


def test_sylvester_pivots_are_the_scaled_leading_minors():
    # Bareiss's k-th pivot on den * H is den^k times H's k-th leading minor;
    # the pivots stop at the first one that is not positive
    rng = random.Random(41)
    seen = {"positive": 0, "singular": 0, "indefinite": 0}
    for _ in range(600):
        n = rng.randint(1, 4)
        h = me.HermitianForm(_draw_grid(rng, n))
        den = math.lcm(*(c.den for row in h.entries for c in row))
        expected = []
        for k, minor in enumerate(_leading_minors(h.entries), start=1):
            scaled = minor * den ** k
            assert scaled.is_real() and scaled.den == 1
            expected.append(scaled.x)
            if scaled.x <= 0:
                break
        assert me._sylvester(_integral(h.entries)[1]) == expected, h.entries
        kind = ("positive" if expected[-1] > 0
                else "singular" if not expected[-1] else "indefinite")
        seen[kind] += 1
        assert me.is_positive(h) == (kind == "positive"), h.entries
    assert min(seen.values()) >= 50, seen


def _coefficient_form(h):
    """``F = sum_jk H_jk w^j /\\ wbar^k``, built here from the grid."""
    return Form((BasisElement((j + 1,), (k + 1,)), c)
                for j, row in enumerate(h.entries) for k, c in enumerate(row))


def _ddbar_by_forms(cs, h):
    """del delbar F as d of the (1,2) part of dF, taken on forms."""
    return cs.d(cs.d(_coefficient_form(h)).component(1, 2))


def test_ddbar_of_equals_d_of_delbar_f_on_the_catalog(all_cases, structures):
    checked = 0
    for k, case in enumerate(all_cases):
        cs = structures[case.id]
        for h in [me.standard_form(cs.n), *me.random_positive_forms(cs.n, 6, seed=k)]:
            assert me.ddbar_of(cs, h) == _ddbar_by_forms(cs, h), case.id
            checked += 1
    assert checked == 72 * 7


def test_ddbar_of_equals_d_of_delbar_f_in_a_random_coframe(all_cases, structures):
    # in the catalog's coframes d w^1 = 0 and w^1 divides d w^2, so d vanishes
    # on w^12 /\ wbar^1, the first (2,1) monomial; in a general coframe it
    # does not, so a (1,2) part of dF cut one row late shows here
    rng = random.Random(31)
    for k, case in enumerate(all_cases):
        cs = _in_a_random_coframe(rng, structures[case.id])
        for h in [me.standard_form(cs.n), *me.random_positive_forms(cs.n, 2, seed=k)]:
            assert me.ddbar_of(cs, h) == _ddbar_by_forms(cs, h), case.id


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(triangular_structures())
def test_ddbar_of_equals_d_of_delbar_f_beyond_the_catalog(cs):
    for h in _forms(cs.n):
        assert me.ddbar_of(cs, h) == _ddbar_by_forms(cs, h)


def _column(form, monomials):
    """The form's coefficients over their common denominator, as an integral
    column keyed by each monomial's place in ``monomials``, and that
    denominator."""
    den = math.lcm(*(c.den for c in form.terms.values()))
    place = {e: i for i, e in enumerate(monomials)}
    return {place[e]: (c.x * (den // c.den), c.y * (den // c.den))
            for e, c in form.terms.items()}, den


def test_integer_wedge_equals_the_form_wedge():
    rng = random.Random(43)
    nonzero = 0
    for n in (3, 4):
        twos = degree_monomials(n, 2)
        for k in (3, 5):
            lows, highs = degree_monomials(n, k), degree_monomials(n, k + 2)
            for _ in range(40):
                x = Form((e, _rational(rng)) for e in rng.sample(lows, min(6, len(lows))))
                f = Form((e, _rational(rng)) for e in rng.sample(twos, 5))
                (cx, dx), (cf, df) = _column(x, lows), _column(f, twos)
                product = Form((highs[row], Gaussian.of(a, b))
                               for row, (a, b) in me._wedge(n, k, cx, cf).items())
                assert product == x.wedge(f).scale(dx * df), (n, k)
                nonzero += not product.is_zero()
    # at n = 3 a product of degree 7 vanishes; every other case mostly does not
    assert nonzero >= 100


def _grid(rows):
    return [[c if isinstance(c, Gaussian) else Gaussian.of(*c) if isinstance(c, tuple)
             else Gaussian.of(c) for c in row] for row in rows]


@pytest.mark.parametrize("rows, message", [
    # a bad diagonal before a non-Hermitian pair, and after one
    ([[0, 1, 0], [1, 1, 2], [0, 3, 1]], "diagonal entry 1 must be a positive rational"),
    ([[1, 0, 0], [0, -1, 0], [0, 5, 1]], "diagonal entry 2 must be a positive rational"),
    ([[1, 2, 0], [1, 1, 0], [0, 0, -1]], "coefficient grid is not Hermitian"),
    ([[1, 0, 0], [5, -1, 0], [0, 0, 1]], "coefficient grid is not Hermitian"),
    ([[(1, 1)]], "diagonal entry 1 must be a positive rational"),
    ([[1, 0], [0, 0]], "diagonal entry 2 must be a positive rational"),
    ([[1, (0, 1)], [(0, 1), 1]], "coefficient grid is not Hermitian"),
    ([[1, Fraction(1, 2)], [Fraction(1, 3), 1]], "coefficient grid is not Hermitian"),
    ([[1, (Fraction(1, 2), 1)], [(Fraction(1, 2), 1), 1]], "coefficient grid is not Hermitian"),
])
def test_a_grid_is_rejected_at_its_first_fault(rows, message):
    with pytest.raises(ValueError) as info:
        me.HermitianForm(_grid(rows))
    assert str(info.value) == message


def _first_fault(entries):
    """Column by column: the diagonal entry, then every entry of the column
    against the conjugate of its mirror, by Gaussian arithmetic."""
    for j in range(len(entries)):
        d = entries[j][j]
        if not d.is_real() or d.re <= 0:
            return f"diagonal entry {j + 1} must be a positive rational"
        for k in range(len(entries)):
            if entries[k][j] != entries[j][k].conjugate():
                return "coefficient grid is not Hermitian"
    return None


def test_the_grid_checks_fault_where_gaussian_arithmetic_does():
    rng = random.Random(17)
    seen = {}
    for _ in range(1500):
        n = rng.randint(1, 4)
        rows = _draw_grid(rng, n)
        for _ in range(rng.randint(0, 2)):  # spoil an entry, perhaps on the diagonal
            j, k = rng.randrange(n), rng.randrange(n)
            rows[j][k] = rng.choice([_rational(rng), ZERO, -rows[j][k], rows[j][k].conjugate(),
                                     rows[j][k] * Gaussian.of(Fraction(1, 2))])
        expected = _first_fault(rows)
        seen[expected] = seen.get(expected, 0) + 1
        if expected is None:
            assert me.HermitianForm(rows).n == n
        else:
            with pytest.raises(ValueError) as info:
                me.HermitianForm(rows)
            assert str(info.value) == expected
    assert len(seen) == 6 and min(seen.values()) >= 5, seen  # diagonal entries 1-4 among them


def test_a_form_holds_its_integers():
    rng = random.Random(23)
    for _ in range(200):
        h = me.HermitianForm(_draw_grid(rng, rng.randint(1, 4)))
        den, grid = _integral(h.entries)
        assert h.den == den == math.lcm(*(c.den for row in h.entries for c in row))
        assert h.grid == grid
        assert [[Gaussian.of(x, y) for x, y in row] for row in grid] == \
            [[c * den for c in row] for row in h.entries]
        place = degree_basis(h.n, h.n, 2)[1]  # F's rows: its monomials' places
        assert h.column == {place[BasisElement((j + 1,), (k + 1,))]: xy
                            for j, row in enumerate(grid) for k, xy in enumerate(row)
                            if xy != (0, 0)}


def test_one_structure_and_form_take_one_df(monkeypatch):
    # the three tests on one (structure, form) pair share one dF: one product
    # on matrix(2), and one on matrix(3) each for is_pluriclosed and ddbar_of
    cs = build("(0,0,w12+w1~1+w1~2+D*w2~2)", "D=1/8")
    h = me.form_from_uvz(Fraction(1), Fraction(1, 2), Fraction(1), u=parse_gaussian("5/8i"))
    calls, apply = Counter(), ExactMatrix.apply

    def counted(m, columns):
        calls[next(k for k, mk in cs._matrices.items() if mk is m)] += 1
        return apply(m, columns)

    monkeypatch.setattr(ExactMatrix, "apply", counted)
    assert not me.is_pluriclosed(cs, h)
    assert me.is_balanced(cs, h)
    assert not me.ddbar_of(cs, h).is_zero()
    assert calls == {2: 1, 3: 2}


def test_a_form_met_by_another_structure_takes_that_structures_df():
    # A, then B, then A on one form: each verdict is the one a fresh form
    # gives, so no structure reads another's dF
    skt, not_skt = build("(0,0,w1~1)"), build("(0,0,w12)")
    h = me.standard_form(3)
    seen = set()
    for cs in (skt, not_skt, skt, not_skt):
        fresh = me.standard_form(3)
        verdicts = (me.is_pluriclosed(cs, h), me.is_balanced(cs, h), me.ddbar_of(cs, h))
        assert verdicts == (me.is_pluriclosed(cs, fresh), me.is_balanced(cs, fresh),
                            me.ddbar_of(cs, fresh))
        seen.add(verdicts[0])
    assert seen == {True, False}


def test_a_form_keeps_no_structure_alive():
    h = me.standard_form(3)
    cs = build("(0,0,w12)")
    assert me.is_balanced(cs, h)
    ref = weakref.ref(cs)
    del cs
    gc.collect()
    assert ref() is None
    # a structure made later, perhaps at the same address, takes its own dF
    assert me.is_pluriclosed(build("(0,0,w1~1)"), h)


def _value(rng, low=-3):
    """A small rational from ``low`` to 3 as an int where it can be, or as a
    Fraction, or a Gaussian with that real part."""
    x = Fraction(rng.randint(low, 3), rng.choice((1, 2, 3)))
    kind = rng.randrange(3)
    if kind == 2:
        return Gaussian.of(x, Fraction(rng.randint(-3, 3), rng.choice((1, 2, 5)))
                           if low < 0 else 0)
    return int(x) if kind == 0 and x.denominator == 1 else x


def _grid_by_gaussians(diag, upper):
    """The Hermitian grid of ``hermitian_form(diag, upper)`` by Gaussian
    arithmetic: each entry coerced, each mirror its conjugate."""
    n = len(diag)
    rows = [[ZERO] * n for _ in range(n)]
    for j, d in enumerate(diag):
        rows[j][j] = d if isinstance(d, Gaussian) else Gaussian.of(d)
    for (j, k), value in upper.items():
        value = value if isinstance(value, Gaussian) else Gaussian.of(value)
        rows[j - 1][k - 1], rows[k - 1][j - 1] = value, value.conjugate()
    return rows


def test_hermitian_form_builds_the_grid_hermitian_form_checks():
    rng = random.Random(47)
    positive = 0
    for _ in range(600):
        n = rng.randint(1, 4)
        diag = [_value(rng, low=1) for _ in range(n)]
        upper = {(j, k): _value(rng) for j in range(1, n + 1) for k in range(j + 1, n + 1)
                 if rng.random() < 0.8}
        built, checked = me.hermitian_form(diag, upper), me.HermitianForm(
            _grid_by_gaussians(diag, upper))
        assert built == checked and checked == built
        assert built.entries == checked.entries == _grid_by_gaussians(diag, upper)
        assert all(built[j, k] == checked[j, k] for j in range(n) for k in range(n))
        assert (built.den, built.column, built.positive) == \
            (checked.den, checked.column, checked.positive)
        positive += built.positive
    assert 100 <= positive <= 500, positive


def test_hermitian_form_faults_in_the_order_of_its_inputs():
    # a diagonal entry's type, then each upper pair in order, then the sign
    # of the diagonal
    with pytest.raises(TypeError, match=r"^expected an exact rational, got float$"):
        me.hermitian_form([0.5, -1], {(2, 1): 1})
    with pytest.raises(ValueError, match=r"^not a strictly upper index pair: \(2, 1\)$"):
        me.hermitian_form([-1, 1], {(2, 1): 1})
    with pytest.raises(TypeError, match=r"^expected an exact rational, got float$"):
        me.hermitian_form([1, -1], {(1, 2): 0.5, (2, 1): 1})
    for diag, j in (([1, -1], 2), ([1, 0, -1], 2), ([Gaussian.of(1, 1)], 1),
                    ([Fraction(-1, 2), 1], 1)):
        with pytest.raises(ValueError, match=rf"^diagonal entry {j} must be a positive rational$"):
            me.hermitian_form(diag, {(1, len(diag)): 1} if len(diag) > 1 else None)
