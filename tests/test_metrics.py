import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from nilcohom import metrics as me
from nilcohom.algebra import BasisElement, Form, Gaussian, I, basis
from nilcohom.cohomology import _differentials
from nilcohom.model import instantiate
from nilcohom.parser import parse_binding, parse_complex_structure, parse_gaussian
from scale_oracle import d_block, structure_scale


def build(template, binding=""):
    return instantiate(parse_complex_structure(template), parse_binding(binding))


TOP = BasisElement((1, 2), (1, 2))


def test_standard_form_is_identity():
    for n in (3, 4):
        h = me.standard_form(n)
        assert all(h.entries[j][j] == Gaussian.of(1) for j in range(n))
        assert all(not h.entries[j][k] for j in range(n) for k in range(n) if j != k)


def test_to_two_form_identity():
    omega = me.to_two_form(me.standard_form(3))
    expected = Form([(BasisElement((j,), (j,)), I) for j in (1, 2, 3)])
    assert omega == expected
    assert omega.conjugate() == omega
    assert omega.bidegrees() == {(1, 1)}


def test_to_two_form_reality_with_offdiagonals():
    h = me.form_from_uvz(Fraction(1), Fraction(1, 2), Fraction(1),
                         u=parse_gaussian("5/8i"))
    omega = me.to_two_form(h)
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
        d = _differentials(cs)
        dd = d_block(d, 3, (1, 2), (2, 2)) @ d_block(d, 3, (1, 1), (1, 2))
        forms = [me.standard_form(3)] + me.random_positive_forms(3, 3, seed=k)
        for h in forms:
            image = Form((target[i], Gaussian.of(x, y) * h[e.holo[0] - 1, e.anti[0] - 1])
                         for e, column in zip(source, dd.columns)
                         for i, (x, y) in column.items())
            assert me.ddbar_of(cs, h).scale(scale * scale) == image, case.id


def test_ddbar_of_dimension_mismatch():
    with pytest.raises(ValueError):
        me.ddbar_of(build("(0,0,0)"), me.standard_form(4))


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
