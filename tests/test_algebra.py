import random
from fractions import Fraction

import pytest

from nilcohom.algebra import (
    BasisElement,
    Form,
    Gaussian,
    I,
    basis,
    basis_dimension,
)
from nilcohom.parser import parse_gaussian


def g(text):
    return parse_gaussian(text)


def test_field_arithmetic_examples():
    assert g("1+2i") * g("3-i") == g("5+5i")
    assert g("1") / I == g("-1i")
    assert g("2/3+5i").conjugate().conjugate() == g("2/3+5i")
    assert g("2+3i").conjugate() == g("2-3i")
    assert g("3+4i").modulus_squared() == 25


def test_lowest_terms_and_sign_normalization():
    x = Gaussian.of(Fraction(2, 4), Fraction(-3, -6))
    assert x.re == Fraction(1, 2) and x.re.denominator == 2
    assert x.im == Fraction(1, 2)


def test_division_by_zero_reports():
    with pytest.raises(ZeroDivisionError):
        g("1+i") / Gaussian.of(0)


def test_exact_division_roundtrip_random():
    rng = random.Random(11)
    for _ in range(300):
        x = Gaussian.of(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                        Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        y = Gaussian.of(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                        Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        if not y:
            continue
        assert (x * y) / y == x


def test_gaussian_literal_rendering_roundtrip():
    for text in ("0", "1", "-1", "2/3", "i", "-1i", "2i", "-2/5i",
                 "1/2+i", "1/2-i", "3-2i", "-1/2+3/4i"):
        assert str(parse_gaussian(text)) == text


def w(j, n=3):
    return Form.generator(n, j)


def wbar(j, n=3):
    return Form.generator(n, j, conjugated=True)


def test_wedge_annihilates_repeats():
    assert w(1).wedge(w(1)).is_zero()


def test_wedge_transposition_sign():
    assert w(2).wedge(w(1)) == Form.single(3, BasisElement((1, 2), ())).scale(-1)


def test_wedge_moves_past_antiholomorphic_factor():
    lhs = w(1).wedge(wbar(2)).wedge(w(2))
    expected = Form.single(3, BasisElement((1, 2), (2,))).scale(-1)
    assert lhs == expected


def test_wedge_dimension_mismatch():
    with pytest.raises(ValueError):
        Form.generator(3, 1).wedge(Form.generator(4, 1))


def _random_pure_form(rng, n, p, q):
    elems = basis(n, p, q)
    terms = []
    for elem in rng.sample(elems, k=min(3, len(elems))):
        coeff = Gaussian.of(rng.randint(-3, 3), rng.randint(-3, 3))
        terms.append((elem, coeff))
    return Form(n, terms)


def test_graded_commutativity_random():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(2, 4)
        p1, q1 = rng.randint(0, 2), rng.randint(0, 2)
        p2, q2 = rng.randint(0, 2), rng.randint(0, 2)
        a = _random_pure_form(rng, n, p1, q1)
        b = _random_pure_form(rng, n, p2, q2)
        sign = -1 if ((p1 + q1) * (p2 + q2)) % 2 else 1
        assert a.wedge(b) == b.wedge(a).scale(sign)


def test_wedge_associative_random():
    rng = random.Random(6)
    for _ in range(40):
        n = 3
        a = _random_pure_form(rng, n, rng.randint(0, 1), rng.randint(0, 1))
        b = _random_pure_form(rng, n, rng.randint(0, 1), rng.randint(0, 1))
        c = _random_pure_form(rng, n, rng.randint(0, 1), rng.randint(0, 1))
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


def test_conjugation_examples():
    assert w(1).wedge(w(2)).conjugate() == wbar(1).wedge(wbar(2))
    fundamental = Form.single(3, BasisElement((1,), (1,)), I)
    assert fundamental.conjugate() == fundamental
    f = w(1).wedge(w(2)) + w(1).wedge(wbar(2)).scale(g("1+2i"))
    assert f.conjugate().conjugate() == f


def test_conjugation_is_multiplicative_random():
    rng = random.Random(7)
    for _ in range(40):
        a = _random_pure_form(rng, 3, rng.randint(0, 1), rng.randint(0, 1))
        b = _random_pure_form(rng, 3, rng.randint(0, 1), rng.randint(0, 1))
        assert a.wedge(b).conjugate() == a.conjugate().wedge(b.conjugate())


def test_basis_enumeration():
    b11 = basis(3, 1, 1)
    assert len(b11) == 9
    assert b11[0] == BasisElement((1,), (1,))
    assert len(basis(3, 3, 3)) == 1
    assert len(basis(4, 2, 0)) == 6


def test_basis_cardinality_sweep():
    from math import comb

    for n in range(1, 5):
        for p in range(n + 1):
            for q in range(n + 1):
                assert len(basis(n, p, q)) == comb(n, p) * comb(n, q)
                assert basis_dimension(n, p, q) == comb(n, p) * comb(n, q)
    assert basis_dimension(3, 4, 0) == 0
    assert basis_dimension(3, -1, 0) == 0


def test_bidegree_component():
    f = w(1).wedge(w(2)) + w(1).wedge(wbar(1))
    assert f.component(2, 0) == w(1).wedge(w(2))
    assert Form.zero(3).component(1, 1).is_zero()
    total = Form.zero(3)
    for p, q in f.bidegrees():
        total = total + f.component(p, q)
    assert total == f


def test_case_02_differential_has_three_one_one_terms():
    d = (w(1).wedge(w(2)) + w(1).wedge(wbar(1)) + w(1).wedge(wbar(2))
         + w(2).wedge(wbar(2)).scale(g("2+i")))
    assert len(d.component(1, 1).terms) == 3


def test_zero_coefficients_are_dropped():
    f = w(1).wedge(w(2)) - w(1).wedge(w(2))
    assert f.is_zero() and not f.terms
    assert f == Form.zero(3)
