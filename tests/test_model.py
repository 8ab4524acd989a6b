import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, reject, settings, strategies as st

from d_oracle import oracle_conjugate, oracle_cs_d, oracle_d
from nilcohom.algebra import (BasisElement, Form, Gaussian, I, ONE, basis, element, leibniz,
                              leibniz_rows, masks)
from nilcohom.cohomology import THEORIES, full_table
from nilcohom.linalg import ExactMatrix
from nilcohom.model import (
    ComplexStructure,
    ComplexStructureTemplate,
    DifferentialSquareError,
    IntegrabilityError,
    Lit,
    Mod,
    ModulusError,
    Param,
    RealAlgebra,
    UnboundParameterError,
    UnknownParameterError,
    _Differential,
    check_d_squared,
    check_nilpotency,
    instantiate,
)
from nilcohom.parser import parse_binding, parse_complex_structure, parse_gaussian, parse_real_algebra, render
from real_oracle import product_with_torus, realify
from scale_oracle import degree_monomials, structure_scale


def build(template, binding=""):
    return instantiate(parse_complex_structure(template), parse_binding(binding))


def test_instantiate_iwasawa():
    cs = build("(0, 0, w12)")
    assert cs.d_omega[2] == Form.single(BasisElement((1, 2), ()))


def test_instantiate_with_binding():
    cs = build("(0, 0, w1~1 + D*w2~2)", "D=i")
    assert cs.d_omega[2].coefficient(BasisElement((2,), (2,))) == parse_gaussian("i")


def test_instantiate_modulus_value():
    cs = build("(0, w1~1, w12 + B*w1~2 + abs(B-1)*w2~1)", "B=1/2; absBm1=1/2")
    assert cs.d_omega[2].coefficient(BasisElement((2,), (1,))) == parse_gaussian("1/2")


def test_unbound_parameter_reported_by_name():
    with pytest.raises(UnboundParameterError) as err:
        build("(0, 0, w1~1 + D*w2~2)")
    assert err.value.names == ("D",)


def test_an_unused_modulus_symbol_must_still_be_bound():
    # absB is declared but no term reads it, so only the final modulus check
    # would look it up; it is reported by name with the unbound parameters
    template = ComplexStructureTemplate(
        3, [(), (), ((Param("B"), BasisElement((1, 2), ())),)],
        params=("B",), moduli=(Mod("absB", "B", Gaussian.of(0)),))
    with pytest.raises(UnboundParameterError) as err:
        instantiate(template, parse_binding("B=2"))
    assert err.value.names == ("absB",)
    with pytest.raises(UnboundParameterError) as err:
        instantiate(template, {})
    assert err.value.names == ("B", "absB")
    cs = instantiate(template, parse_binding("B=2; absB=2"))
    assert cs.d_omega[2] == Form.single(BasisElement((1, 2), ()), Gaussian.of(2))


def test_unknown_binding_names_are_rejected():
    with pytest.raises(UnknownParameterError) as err:
        build("(0, 0, w12)", "Z=1; A=i")
    assert err.value.names == ("A", "Z")
    assert str(err.value) == "unknown parameters: A, Z"
    # parameters and declared modulus symbols are both known names
    build("(0, w1~1, w12 + B*w1~2 + abs(B-1)*w2~1)", "B=1/2; absBm1=1/2")


def test_modulus_inconsistency_rejected():
    with pytest.raises(ModulusError):
        build("(0, w1~1, w12 + B*w1~2 + abs(B-1)*w2~1)", "B=1/2; absBm1=2")
    with pytest.raises(ModulusError):
        build("(0, w1~1, w12 + B*w1~2 + abs(B-1)*w2~1)", "B=1/2; absBm1=-1/2")


def test_d_squared_pass_for_nontrivial_structure():
    # the differential of w2 involves w3, whose differential is nonzero
    cs = build("(0, w13+w1~3, i*w1~2 - i*w2~1)")
    assert check_d_squared(cs).ok


def test_d_squared_failure_lists_residual():
    template = parse_complex_structure("(0, w1~3, w12)")
    with pytest.raises(DifferentialSquareError) as err:
        instantiate(template, parse_binding(""))
    # d(d wbar^2) is the conjugate of d(d w^2), so only w2 is reported
    labels = [label for label, _ in err.value.report.residuals]
    assert labels == ["w2"]
    residuals = dict(err.value.report.residuals)
    assert not residuals["w2"].is_zero()


def test_check_d_squared_report_on_unvalidated_structure():
    with pytest.raises(DifferentialSquareError) as err:
        ComplexStructure(3, [
            Form(),
            Form.single(BasisElement((1,), (3,))),
            Form.single(BasisElement((1, 2), ())),
        ])
    report = err.value.report
    assert not report.ok
    assert "FAILED" in str(report)


def _seeded_differentials(rng, n, holo_only):
    """d g^j over g^a /\\ g^b (and g^a /\\ gbar^b unless ``holo_only``) with
    a, b < j, with constants over the denominators 2, 3 and 6 (real ones when
    ``holo_only``), so that L > 1 and d^2 fails on some draws."""
    forms = []
    for j in range(1, n + 1):
        elems = [BasisElement(pair, ()) for pair in combinations(range(1, j), 2)]
        if not holo_only:
            elems += [BasisElement((a,), (b,)) for a in range(1, j) for b in range(1, j)]
        forms.append(Form((e, Gaussian.of(Fraction(rng.choice([-2, -1, 1, 3]), rng.choice([2, 3, 6])),
                                          0 if holo_only else Fraction(rng.randint(-2, 2), 3)))
                          for e in rng.sample(elems, k=min(len(elems), rng.randint(0, 3)))))
    return forms


def test_the_integral_d_squared_verdict_matches_d_of_d_per_generator():
    # the check applies matrix(2) to the columns L * d g^j; its residuals must
    # be exactly the nonzero d(d g^j), in order, as an oracle computes them
    rng, verdicts = random.Random(33), Counter()
    for trial in range(120):
        holo_only = trial % 2 == 1
        n = rng.choice([4, 5, 6] if holo_only else [3, 4])
        forms = _seeded_differentials(rng, n, holo_only)
        conjugates = [] if holo_only else [oracle_conjugate(f) for f in forms]
        expected = [(f"{'e' if holo_only else 'w'}{j}", oracle_d(df, forms, conjugates))
                    for j, df in enumerate(forms, start=1)]
        expected = [(label, r) for label, r in expected if not r.is_zero()]
        if holo_only:
            structure = RealAlgebra(n, forms)
            report = check_d_squared(structure)
        else:
            try:
                structure = ComplexStructure(n, forms)
                report = check_d_squared(structure)
            except DifferentialSquareError as err:
                report = err.report
        assert report.residuals == expected and report.ok == (not expected), forms
        verdicts[holo_only, report.ok, lcm(*(c.den for f in forms for c in f.terms.values())) > 1] += 1
    assert all(verdicts[layout, ok, True] >= 10 for layout in (False, True) for ok in (False, True))


@pytest.mark.parametrize("holo_only", [False, True], ids=["template", "real"])
def test_a_failing_d_squared_check_takes_one_product_and_calls_no_d(monkeypatch, holo_only):
    # the report is the image columns the check already holds, divided by
    # L^2: no second product per residual, and no d
    if holo_only:
        forms = parse_real_algebra("(0,0,12,34,35,15+24)").forms
    else:  # L = 6, and d^2 fails on w2 and w4
        forms = [Form(), Form.single(BasisElement((1,), (3,)), Gaussian.of(Fraction(1, 2))),
                 Form.single(BasisElement((1, 2), ())),
                 Form.single(BasisElement((2,), (1,)), Gaussian.of(Fraction(2, 3)))]
    calls = Counter()

    def spy(name, method):
        def counted(*args):
            calls[name] += 1
            return method(*args)
        return counted

    monkeypatch.setattr(ExactMatrix, "apply", spy("apply", ExactMatrix.apply))
    monkeypatch.setattr(_Differential, "d", spy("d", _Differential.d))
    if holo_only:
        report = check_d_squared(RealAlgebra(len(forms), forms))
    else:
        with pytest.raises(DifferentialSquareError) as err:
            ComplexStructure(len(forms), forms)
        report = err.value.report
    assert calls == {"apply": 1}
    conjugates = [] if holo_only else [oracle_conjugate(f) for f in forms]
    expected = [(f"{'e' if holo_only else 'w'}{j}", oracle_d(df, forms, conjugates))
                for j, df in enumerate(forms, start=1)]
    expected = [(label, r) for label, r in expected if not r.is_zero()]
    assert report.residuals == expected and len(expected) >= 2


NOT_CANONICAL = [
    BasisElement((2, 1), ()),   # descending
    BasisElement((1, 1), ()),   # repeated index
    BasisElement((0, 1), ()),   # index 0
    BasisElement((1, 4), ()),   # index above n = 3
    BasisElement((1,), (0,)),   # index 0 in the antiholomorphic block
    BasisElement((1,), (4,)),   # index above n in the antiholomorphic block
]


@pytest.mark.parametrize("elem", NOT_CANONICAL, ids=repr)
def test_structure_constructors_reject_non_canonical_monomials(elem):
    # an index of 0 or n + 1 included: the gate's accepted set is over n generators
    zero = Form()
    bad = Form([(elem, ONE)])
    message = f"^not a canonical monomial over 3 generators: {elem}$"
    with pytest.raises(ValueError, match=message):
        ComplexStructure(3, [zero, zero, bad])
    with pytest.raises(ValueError, match=message):
        RealAlgebra(3, [zero, zero, bad])
    with pytest.raises(ValueError, match=message):
        ComplexStructureTemplate(3, [(), (), ((Lit(ONE), elem),)])


def test_structure_constructors_keep_their_other_checks():
    zero = Form()
    with pytest.raises(IntegrabilityError):
        ComplexStructure(3, [zero, zero, Form.single(BasisElement((), (1, 2)))])
    with pytest.raises(IntegrabilityError):
        ComplexStructureTemplate(3, [(), (), ((Lit(ONE), BasisElement((), (1, 2))),)])
    with pytest.raises(ValueError, match="non-real"):
        RealAlgebra(3, [zero, zero, Form.single(BasisElement((1, 2), ()), I)])


def test_nilpotency():
    assert check_nilpotency(parse_real_algebra("(0^6)"))
    assert check_nilpotency(parse_real_algebra("(0,0,0,0,13+42,14+23)"))
    assert not check_nilpotency(parse_real_algebra("(0,12,0,0,0,0)"))
    # nilpotent, but d e^1 involves generators listed after it
    assert check_nilpotency(parse_real_algebra("(23,0,0)"))
    # the series stops at span(e_2, e_3) instead of reaching zero
    assert not check_nilpotency(parse_real_algebra("(0,12,13)"))
    assert not check_nilpotency(realify(build("(w1~1, 0)")))


# valid (d^2 = 0) but not nilpotent: each has x and y with [x, y] = c y, c != 0
NOT_NILPOTENT = ["(w1~1, 0)", "(0, w2~2)", "(w1~1, w1~1)", "(w12, 0)", "(i*w1~1, 0)"]


def test_nilpotency_of_a_structure_is_that_of_its_real_algebra(structures):
    # the structure's own d gives the bracket of g (x) C on the w^j and then
    # the wbar^j; realify gives that of g by substitution, the reference the
    # numbering of the wbar^j is held to
    assert len(structures) == 72
    for cid, cs in structures.items():
        assert check_nilpotency(cs) is check_nilpotency(realify(cs)) is True, cid
    for text in NOT_NILPOTENT:
        for cs in (build(text), product_with_torus(build(text))):
            assert check_nilpotency(cs) is check_nilpotency(realify(cs)) is False, (text, cs.n)


def test_equality_compares_kind_layout_and_forms():
    zero, top = Form(), Form.single(BasisElement((1, 2), ()))
    assert RealAlgebra(3, [zero, zero, top]) == RealAlgebra(3, [zero, zero, top])
    assert RealAlgebra(3, [zero, zero, top]) != RealAlgebra(3, [zero, top, zero])
    assert ComplexStructure(3, [zero, zero, top]) == build("(0, 0, w12)")
    # equal forms, but a real algebra never equals a complex structure, not
    # even with no generator, where both layouts are (0, 0)
    assert RealAlgebra(3, [zero, zero, top]) != ComplexStructure(3, [zero, zero, top])
    assert ComplexStructure(3, [zero, zero, top]) != RealAlgebra(3, [zero, zero, top])
    assert RealAlgebra(0, []) != ComplexStructure(0, [])
    assert RealAlgebra(0, []) == RealAlgebra(0, [])


def test_realify_torus_is_abelian():
    algebra = realify(build("(0,0,0)"))
    assert algebra.dim == 6 and algebra.is_abelian()


def test_realify_iwasawa_recovers_h5_presentation():
    algebra = realify(build("(0,0,w12)"))
    assert render(algebra) == "(0,0,0,0,13+42,14+23)"
    assert algebra.betti()[1] == 4


def test_realify_h8_first_betti():
    assert realify(build("(0,0,w1~1)")).betti()[1] == 5


def test_parser_defers_jacobi_to_model_validation():
    # syntactically fine, but d(d e^4) = e^{124} != 0
    algebra = parse_real_algebra("(0,0,12,34)")
    report = check_d_squared(algebra)
    assert not report.ok
    assert [label for label, _ in report.residuals] == ["e4"]


def test_realify_first_betti_matches_catalog(all_cases, structures, tables):
    for case in all_cases:
        algebra = realify(structures[case.id])
        assert check_d_squared(algebra).ok, case.id
        betti = algebra.betti()
        assert betti[1] == case.golden_betti[0]
        assert betti == tables[case.id].betti, case.id


def test_product_with_torus_examples(structures):
    torus4 = product_with_torus(build("(0,0,0)"))
    assert torus4.n == 4 and all(f.is_zero() for f in torus4.d_omega)
    assert product_with_torus(structures["12"]) == structures["12_8D"]
    assert product_with_torus(structures["08"]) == structures["08_8D"]


def test_every_8d_case_is_the_torus_product_of_its_6d_counterpart(all_cases, structures):
    for case in all_cases:
        if case.dim != 4:
            continue
        base = case.id[:-3]
        assert product_with_torus(structures[base]) == structures[case.id], case.id


def _assert_kuenneth(table, lifted, label):
    # T^2 has zero differentials and one monomial in each of (0,0), (1,0),
    # (0,1) and (1,1), so the double complex of a structure times T^2 is four
    # shifted copies of the structure's own: each grid of ``lifted`` is the sum
    # of ``table``'s shifted by those bidegrees, and Betti and delta are
    # ``table``'s convolved with (1, 2, 1)
    n = table.n
    assert lifted.n == n + 1, label
    for _, grid_name, _, _ in THEORIES:
        grid = getattr(table, grid_name)
        shifted = [[sum(grid[p - a][q - b] for a in (0, 1) for b in (0, 1)
                        if 0 <= p - a <= n and 0 <= q - b <= n)
                    for q in range(n + 2)] for p in range(n + 2)]
        assert getattr(lifted, grid_name) == shifted, (label, grid_name)
    for name in ("betti", "delta"):
        padded = [0, 0, *getattr(table, name), 0, 0]
        convolved = [padded[k] + 2 * padded[k + 1] + padded[k + 2] for k in range(2 * n + 3)]
        assert getattr(lifted, name) == convolved, (label, name)


def test_product_with_torus_kuenneth_bettis(structures, tables):
    # the n = 3 and n = 4 tables are read from different plans, so this does
    # not hold by construction
    eight_d = [cid for cid in tables if cid.endswith("_8D")]
    assert len(eight_d) == 21
    for cid in eight_d:
        assert structures[cid] == product_with_torus(structures[cid[:-3]]), cid
        _assert_kuenneth(tables[cid[:-3]], tables[cid], cid)


SMALL_GAUSSIAN_VALUES = [Gaussian.of(x, y) for x in range(-2, 3) for y in range(-2, 3) if x or y]
SMALL_GAUSSIAN = st.sampled_from(SMALL_GAUSSIAN_VALUES)


@st.composite
def triangular_structures(draw, constants=SMALL_GAUSSIAN):
    """d w^j built from w^a /\\ w^b and w^a /\\ wbar^b with a, b < j; d^2 = 0 or rejected.

    Each coefficient is drawn from ``constants``.
    """
    n = draw(st.sampled_from([3, 4]))
    d_omega = []
    for j in range(1, n + 1):
        below = range(1, j)
        elems = [BasisElement((a, b), ()) for a in below for b in below if a < b]
        elems += [BasisElement((a,), (b,)) for a in below for b in below]
        # only d w^n must be nonzero, so that d w^2 = 0 is drawn as well
        chosen = draw(st.lists(st.sampled_from(elems), min_size=int(j == n), max_size=3,
                               unique=True)) if elems else []
        d_omega.append(Form([(e, draw(constants)) for e in chosen]))
    try:
        return ComplexStructure(n, d_omega)
    except DifferentialSquareError:
        reject()


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(triangular_structures())
def test_product_with_torus_kuenneth_beyond_the_catalog(cs):
    _assert_kuenneth(full_table(cs), full_table(product_with_torus(cs)), cs.d_omega)


@st.composite
def pure_forms(draw, n):
    p, q = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    chosen = draw(st.lists(st.sampled_from(basis(n, p, q)), min_size=1, max_size=3, unique=True))
    return p + q, Form([(e, draw(SMALL_GAUSSIAN)) for e in chosen])


def _canonical(elem, n):
    return all(list(block) == sorted(set(block)) and set(block) <= set(range(1, n + 1))
               for block in (elem.holo, elem.anti))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.data())
def test_d_is_a_real_antiderivation_of_square_zero(data):
    cs = data.draw(triangular_structures())
    deg_a, a = data.draw(pure_forms(cs.n))
    _, b = data.draw(pure_forms(cs.n))
    # pins the overall sign: -d satisfies every identity below as well
    for j in range(1, cs.n + 1):
        assert cs.d(Form.generator(j)) == cs.d_omega[j - 1]
    # Leibniz on every product of two generators: d w^n is never zero, so
    # this sees the sign of the second factor's term on every structure
    gens = [Form.generator(j, bar) for bar in (False, True) for j in range(1, cs.n + 1)]
    for x in gens:
        for y in gens:
            assert cs.d(x.wedge(y)) == cs.d(x).wedge(y) - x.wedge(cs.d(y))
    sign = -1 if deg_a % 2 else 1
    assert cs.d(a.wedge(b)) == cs.d(a).wedge(b) + a.wedge(cs.d(b)).scale(sign)
    assert cs.d(cs.d(a)).is_zero()
    # d commutes with conjugation, so d(d wbar^j) = 0 follows from d(d w^j) = 0
    assert cs.d(a.conjugate()) == cs.d(a).conjugate()
    for f in (cs.d(a), a.wedge(b), a.conjugate()):
        assert all(_canonical(elem, cs.n) for elem in f.terms)
    algebra = realify(cs)
    assert check_d_squared(algebra).ok
    # d w^j involves only w^a and wbar^b with a, b < j: nilpotent, read off
    # either the structure's own d or its real algebra's
    assert check_nilpotency(cs) is check_nilpotency(algebra) is True


def _random_form(rng, elems):
    """Up to four random terms over ``elems``."""
    return Form((e, Gaussian.of(rng.randint(-3, 3), rng.randint(-3, 3)))
                for e in rng.sample(elems, k=min(4, len(elems))))


def _random_forms(rng, n):
    """A random form in every bidegree, and their sum."""
    forms = [_random_form(rng, basis(n, p, q)) for p in range(n + 1) for q in range(n + 1)]
    return forms + [sum(forms, Form())]


def _rational_forms(rng, n):
    """In every total degree 1 .. 2n-1, three random terms with coefficients
    over the denominators 2, 3 and 5, and the sum of them all: ``d`` rescales
    each degree's terms to their common denominator, which differs from the
    structure's ``L``."""
    forms = [Form((e, rng.choice(SMALL_GAUSSIAN_VALUES) / den)
                  for e, den in zip(rng.sample(degree_monomials(n, k), k=3), (2, 3, 5)))
             for k in range(1, 2 * n)]
    return forms + [sum(forms, Form())]


def test_d_matches_the_tuple_leibniz_oracle_on_the_catalog(all_cases, structures):
    rng, rational, fractional = random.Random(11), random.Random(12), 0
    for case in all_cases:
        cs = structures[case.id]
        for f in _random_forms(rng, cs.n):
            assert cs.d(f).terms == oracle_cs_d(cs, f).terms, (case.id, f)
        if structure_scale(cs) > 1:  # rational forms on rational constants
            fractional += 1
            for f in _rational_forms(rational, cs.n):
                assert cs.d(f).terms == oracle_cs_d(cs, f).terms, (case.id, f)
        if case.dim == 3:  # and on the real algebra, in every degree
            algebra, m = realify(cs), 2 * cs.n
            for f in (_random_form(rng, basis(m, k, 0)) for k in range(m + 1)):
                assert algebra.d(f).terms == oracle_d(f, algebra.d_of_e, []).terms, case.id
    assert fractional == 26


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(triangular_structures(), st.integers(0, 2 ** 32))
def test_d_matches_the_tuple_leibniz_oracle_beyond_the_catalog(cs, seed):
    rng = random.Random(seed)
    for f in _random_forms(rng, cs.n) + _rational_forms(rng, cs.n):
        assert cs.d(f).terms == oracle_cs_d(cs, f).terms, f


def _assert_d_and_its_matrices_match_the_oracle(cs, rng):
    # each column of L * d on degree k is L times the oracle's d of its
    # monomial, rows and columns in the degree order the oracle side counts;
    # and d on random forms of every bidegree is the oracle's
    scale = Gaussian.of(structure_scale(cs))
    for k in range(2 * cs.n + 1):
        sources, targets = degree_monomials(cs.n, k), degree_monomials(cs.n, k + 1)
        index = {e: r for r, e in enumerate(targets)}
        m = cs.matrix(k)
        assert (m.rows, m.cols) == (len(targets), len(sources)), k
        for column, e in zip(m.columns, sources):
            image = oracle_cs_d(cs, Form.single(e))
            assert {r: Gaussian.of(x, y) for r, (x, y) in column.items()} == \
                {index[t]: c * scale for t, c in image.terms.items()}, (k, e)
    for f in _random_forms(rng, cs.n):
        assert cs.d(f).terms == oracle_cs_d(cs, f).terms, f


def test_d_and_its_matrices_match_the_oracle_at_n_1_2_and_5(structures):
    # layouts no catalog row or benchmark workload has; n = 5 is an 8d row
    # times a torus
    rng = random.Random(13)
    one = ComplexStructure(1, [Form.single(BasisElement((1,), (1,)), parse_gaussian("1/2+3i"))])
    two = build("(0, A*w12 + B*w1~1)", "A=1/3; B=2-i")
    five = product_with_torus(structures["09d_8D"])
    for cs, n in ((one, 1), (two, 2), (five, 5)):
        assert cs.n == n and structure_scale(cs) > 1
        _assert_d_and_its_matrices_match_the_oracle(cs, rng)


def test_real_algebra_d_matches_the_oracle_in_dimension_8(all_cases, structures):
    rng = random.Random(15)
    for case in (c for c in all_cases if c.dim == 4):
        algebra = realify(structures[case.id])
        assert algebra.dim == 8
        for f in (_random_form(rng, basis(8, k, 0)) for k in range(9)):
            assert algebra.d(f).terms == oracle_d(f, algebra.d_of_e, []).terms, case.id


def test_the_degree_below_the_top_is_built_for_a_non_unimodular_structure():
    # d into the top degree is zero on a nilpotent, hence unimodular, algebra
    # by a property of its constants, not by structure, so that degree is built
    algebra = parse_real_algebra("(0,12)")
    assert algebra.matrix(1).columns == [{}, {0: (1, 0)}]
    assert algebra.betti() == [1, 1, 0] and not check_nilpotency(algebra)
    cs = build("(w1~1)")
    assert cs.matrix(1).columns == [{0: (-1, 0)}, {0: (1, 0)}] and not check_nilpotency(cs)


def count_table_fills(monkeypatch) -> list:
    """The degree of each Leibniz table entry filled from here on, in fresh
    tables, so that no entry an earlier test filled goes uncounted."""
    fills = []

    def counted(holo, anti, k, j, s, bar):
        fills.append(k)
        return leibniz(holo, anti, k, j, s, bar)

    monkeypatch.setattr("nilcohom.algebra.leibniz", counted)
    leibniz_rows.cache_clear()
    return fills


def test_building_a_structure_builds_only_the_matrix_on_2_forms(monkeypatch):
    # the d^2 check reads d on 2-forms and nothing else, so building a
    # structure costs no matrix of the 4^n monomials beyond degree 2
    fills = count_table_fills(monkeypatch)
    cs = build("(0,0,w12,w13,w14,w15+w1~1)")
    assert cs.n == 6 and set(fills) == {2}


def test_masks_and_element_are_inverse_on_every_monomial():
    for n in range(1, 5):
        subsets = [s for k in range(n + 1) for s in combinations(range(1, n + 1), k)]
        monomials = [BasisElement(h, a) for h in subsets for a in subsets]
        assert len({masks(e) for e in monomials}) == len(monomials) == 4 ** n
        for e in monomials:
            assert element(*masks(e)) == e


# The gate accepts a monomial by one lookup in the canonical monomials of the
# allowed bidegrees; any other monomial is taken apart, and the message says
# why.  Each case is built by all three constructors over n = 3.

def _gate_errors(elem):
    zero, bad = Form(), Form([(elem, ONE)])
    makers = [lambda: ComplexStructure(3, [zero, zero, bad]),
              lambda: ComplexStructureTemplate(3, [(), (), ((Lit(ONE), elem),)]),
              lambda: RealAlgebra(3, [zero, zero, bad])]
    errors = []
    for make in makers:
        with pytest.raises(Exception) as info:
            make()
        errors.append((type(info.value), str(info.value)))
    return errors


@pytest.mark.parametrize("elem", [
    BasisElement((1, 2, 3), ()), BasisElement((), (1, 2)), BasisElement((1,), (2, 3)),
    BasisElement((3,), ()), BasisElement((), ()),
], ids=str)
def test_the_gate_names_the_bidegree_of_a_canonical_term_it_rejects(elem):
    text = f"has a {elem.bidegree} term {elem}"
    assert _gate_errors(elem) == [(IntegrabilityError, f"d w^3 {text}"),
                                  (IntegrabilityError, f"d w^3 {text}"),
                                  (ValueError, f"d e^3 {text}")]


def test_the_gate_accepts_every_canonical_term_of_its_bidegrees():
    for n in range(1, 6):
        twos = [BasisElement(pair, ()) for pair in combinations(range(1, n + 1), 2)]
        mixed = [BasisElement((j,), (k,)) for j in range(1, n + 1) for k in range(1, n + 1)]
        template = ComplexStructureTemplate(n, [[(Lit(ONE), e) for e in twos + mixed]] * n)
        assert template.n == n
        RealAlgebra(n, [Form([(e, ONE) for e in twos])] + [Form()] * (n - 1))
    with pytest.raises(ValueError, match=r"d e\^1 has a \(1, 1\) term w1~2"):
        RealAlgebra(3, [Form.single(BasisElement((1,), (2,)))] + [Form()] * 2)
