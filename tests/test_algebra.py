import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from d_oracle import combination, oracle_conjugate
from nilcohom.algebra import (
    BasisElement,
    Form,
    Gaussian,
    I,
    ZERO,
    basis,
    degree_basis,
    leibniz,
    leibniz_rows,
    wedge_elements,
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
    assert (x.x, x.y, x.den) == (1, 1, 2)
    with pytest.raises(TypeError):
        Gaussian.of(0.5)
    with pytest.raises(TypeError):
        Gaussian(1, "i")


def test_division_by_zero_reports():
    with pytest.raises(ZeroDivisionError):
        g("1+i") / Gaussian.of(0)


def _rational(rng):
    """An int or a Fraction, small (to force cancellation) or very tall."""
    if rng.random() < 0.5:
        num, den = rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 6, 9])
    else:
        num, den = rng.randint(-10**40, 10**40), rng.choice([1, rng.randint(1, 10**12)])
    return num if den == 1 else Fraction(num, den)


def _operand(rng):
    """A Gaussian, or a bare int or Fraction, with its (re, im) reference."""
    re, im = _rational(rng), _rational(rng)
    kind = rng.randrange(4)
    if kind == 0:
        return re, (Fraction(re), Fraction(0))
    if kind == 1:
        im = 0
    return Gaussian.of(re, im), (Fraction(re), Fraction(im))


def _reference_str(re, im):
    """The literal format of ``Gaussian.__str__``, written from its examples."""
    if not im:
        return str(re)
    im_txt = {1: "i", -1: "-i" if re else "-1i"}.get(im, f"{im}i")
    if not re:
        return im_txt
    return f"{re}{'' if im_txt.startswith('-') else '+'}{im_txt}"


def _assert_matches(z, ref):
    re, im = ref
    assert isinstance(z, Gaussian)
    assert z.den > 0 and gcd(z.x, z.y, z.den) == 1
    assert (z.re, z.im) == (re, im)
    assert str(z) == _reference_str(re, im)
    assert z == Gaussian.of(re, im) and hash(z) == hash(Gaussian.of(re, im))


def test_exact_division_roundtrip_random():
    """Every operation agrees with a (Fraction, Fraction) pair reference."""
    rng = random.Random(11)
    for _ in range(300):
        x, (a, b) = _operand(rng)
        if not isinstance(x, Gaussian):
            x = Gaussian.of(x)
        y, (c, d) = _operand(rng)
        _assert_matches(x + y, (a + c, b + d))
        _assert_matches(y + x, (a + c, b + d))
        _assert_matches(x - y, (a - c, b - d))
        _assert_matches(x * y, (a * c - b * d, a * d + b * c))
        _assert_matches(y * x, (a * c - b * d, a * d + b * c))
        _assert_matches(-x, (-a, -b))
        _assert_matches(x.conjugate(), (a, -b))
        assert x.modulus_squared() == a * a + b * b
        assert (x - x, hash(x - x)) == (ZERO, hash(ZERO))
        if not (c or d):
            continue
        norm = c * c + d * d
        _assert_matches(x / y, ((a * c + b * d) / norm, (b * c - a * d) / norm))
        z = (x * y) / y
        assert z == x and hash(z) == hash(x)
    assert Gaussian.of(Fraction(2, 4)) == Gaussian.of(Fraction(1, 2))
    assert hash(Gaussian.of(Fraction(2, 4))) == hash(Gaussian.of(Fraction(1, 2)))
    assert Gaussian.of(3, Fraction(6, 3)) == Gaussian.of(Fraction(3), 2)


def test_gaussian_literal_rendering_roundtrip():
    for text in ("0", "1", "-1", "2/3", "i", "-1i", "2i", "-2/5i",
                 "1/2+i", "1/2-i", "3-2i", "-1/2+3/4i"):
        assert str(parse_gaussian(text)) == text


def w(j):
    return Form.single(BasisElement((j,), ()))


def wbar(j):
    return Form.single(BasisElement((), (j,)))


def test_wedge_annihilates_repeats():
    assert w(1).wedge(w(1)).is_zero()


def test_wedge_transposition_sign():
    assert w(2).wedge(w(1)) == combination((-1, Form.single(BasisElement((1, 2), ()))))


def test_wedge_moves_past_antiholomorphic_factor():
    lhs = w(1).wedge(wbar(2)).wedge(w(2))
    expected = combination((-1, Form.single(BasisElement((1, 2), (2,)))))
    assert lhs == expected


def _random_pure_form(rng, n, p, q):
    elems = basis(n, p, q)
    terms = []
    for elem in rng.sample(elems, k=min(3, len(elems))):
        coeff = Gaussian.of(rng.randint(-3, 3), rng.randint(-3, 3))
        terms.append((elem, coeff))
    return Form(terms)


def test_graded_commutativity_random():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(2, 4)
        p1, q1 = rng.randint(0, 2), rng.randint(0, 2)
        p2, q2 = rng.randint(0, 2), rng.randint(0, 2)
        a = _random_pure_form(rng, n, p1, q1)
        b = _random_pure_form(rng, n, p2, q2)
        sign = -1 if ((p1 + q1) * (p2 + q2)) % 2 else 1
        assert a.wedge(b) == combination((sign, b.wedge(a)))


def test_wedge_associative_random():
    rng = random.Random(6)
    for _ in range(40):
        n = 3
        a = _random_pure_form(rng, n, rng.randint(0, 1), rng.randint(0, 1))
        b = _random_pure_form(rng, n, rng.randint(0, 1), rng.randint(0, 1))
        c = _random_pure_form(rng, n, rng.randint(0, 1), rng.randint(0, 1))
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


def test_conjugation_is_multiplicative_random():
    rng = random.Random(7)
    for _ in range(40):
        a = _random_pure_form(rng, 3, rng.randint(0, 1), rng.randint(0, 1))
        b = _random_pure_form(rng, 3, rng.randint(0, 1), rng.randint(0, 1))
        assert oracle_conjugate(a.wedge(b)) == oracle_conjugate(a).wedge(oracle_conjugate(b))


def _bubble_sorted(factors):
    """Sort ``(block, index)`` factors, holomorphic block 0 first, by adjacent swaps.

    Returns the canonical monomial and ``(-1)^swaps``, or None when a factor
    repeats.  This is the definition of the reordering sign, written
    independently of :func:`wedge_elements`.
    """
    factors = list(factors)
    if len(set(factors)) < len(factors):
        return None
    swaps = 0
    for end in range(len(factors) - 1, 0, -1):
        for k in range(end):
            if factors[k] > factors[k + 1]:
                factors[k], factors[k + 1] = factors[k + 1], factors[k]
                swaps += 1
    holo = tuple(j for block, j in factors if block == 0)
    anti = tuple(j for block, j in factors if block == 1)
    return BasisElement(holo, anti), (-1) ** swaps


def _factors(elem):
    return [(0, j) for j in elem.holo] + [(1, j) for j in elem.anti]


def _all_monomials(n):
    subsets = [s for k in range(n + 1) for s in combinations(range(1, n + 1), k)]
    return [BasisElement(h, a) for h in subsets for a in subsets]


def test_wedge_sign_matches_a_bubble_sort_on_every_pair():
    monomials = _all_monomials(3)
    assert len(monomials) == 64
    for x in monomials:
        for y in monomials:
            expected = _bubble_sorted(_factors(x) + _factors(y))
            assert wedge_elements(x, y) == expected, (x, y)


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


def test_zero_coefficients_are_dropped():
    f = combination((1, w(1).wedge(w(2))), (-1, w(1).wedge(w(2))))
    assert f.is_zero() and not f.terms
    assert f == Form()


@pytest.mark.parametrize("holo, anti", [(n, n) for n in range(1, 5)] + [(m, 0) for m in range(1, 9)])
def test_no_term_lands_in_degree_0_or_the_top_degree(holo, anti):
    # a structure's build skips these two degrees: the monomial 1 has no
    # factor, and a 2-form wedged onto a (top - 1)-monomial repeats a factor
    top, twos = holo + anti, len(degree_basis(holo, anti, 2)[0])
    keys = [(j, s, bar) for j in range(1, holo + 1) for s in range(twos)
            for bar in ((False, True) if anti else (False,))]
    # one table per generator, side and 2-form monomial, the same on every call
    tables = [leibniz_rows(holo, anti, *key) for key in keys]
    assert len({id(rows) for rows in tables}) == len(keys) == twos * top
    assert all(leibniz_rows(holo, anti, *key) is rows for key, rows in zip(keys, tables))
    for key, rows in zip(keys, tables):
        assert rows[0] == leibniz(holo, anti, 0, *key) == (), key
        assert rows[top] == leibniz(holo, anti, top, *key) == (), key
    assert all(any(rows[k] for rows in tables) for k in range(1, top) if keys)
