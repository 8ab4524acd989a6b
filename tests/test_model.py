import random
from itertools import combinations

import pytest
from hypothesis import given, reject, settings, strategies as st

from d_oracle import oracle_cs_d, oracle_d
from nilcohom import model
from nilcohom.algebra import BasisElement, Form, Gaussian, I, ONE, basis, element, masks
from nilcohom.model import (
    ComplexStructure,
    ComplexStructureTemplate,
    DifferentialSquareError,
    IntegrabilityError,
    Lit,
    ModulusError,
    RealAlgebra,
    UnboundParameterError,
    UnknownParameterError,
    check_d_squared,
    check_nilpotency,
    instantiate,
    product_with_torus,
    realify,
)
from nilcohom.parser import parse_binding, parse_complex_structure, parse_gaussian, parse_real_algebra, render
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
    zero = Form()
    bad = Form([(elem, ONE)])
    with pytest.raises(ValueError):
        ComplexStructure(3, [zero, zero, bad])
    with pytest.raises(ValueError):
        RealAlgebra(3, [zero, zero, bad])
    with pytest.raises(ValueError):
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
    report = algebra.check_d_squared()
    assert not report.ok
    assert [label for label, _ in report.residuals] == ["e4"]


def test_realify_first_betti_matches_catalog(all_cases, structures, tables):
    for case in all_cases:
        algebra = realify(structures[case.id])
        assert algebra.check_d_squared().ok, case.id
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


def test_product_with_torus_kuenneth_bettis(tables):
    for cid in ("00", "08", "12"):
        base = tables[cid].betti + [0, 0]
        lifted = tables[cid + "_8D"].betti
        for k in range(len(lifted)):
            expected = base[k] + (2 * base[k - 1] if k >= 1 else 0) + \
                (base[k - 2] if k >= 2 else 0)
            assert lifted[k] == expected


SMALL_GAUSSIAN = st.sampled_from(
    [Gaussian.of(x, y) for x in range(-2, 3) for y in range(-2, 3) if x or y])


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
    assert algebra.check_d_squared().ok
    assert check_nilpotency(algebra)


def _random_form(rng, elems):
    """Up to four random terms over ``elems``."""
    return Form((e, Gaussian.of(rng.randint(-3, 3), rng.randint(-3, 3)))
                for e in rng.sample(elems, k=min(4, len(elems))))


def _random_forms(rng, n):
    """A random form in every bidegree, and their sum."""
    forms = [_random_form(rng, basis(n, p, q)) for p in range(n + 1) for q in range(n + 1)]
    return forms + [sum(forms, Form())]


def test_d_matches_the_tuple_leibniz_oracle_on_the_catalog(all_cases, structures):
    rng = random.Random(11)
    for case in all_cases:
        cs = structures[case.id]
        for f in _random_forms(rng, cs.n):
            assert cs.d(f).terms == oracle_cs_d(cs, f).terms, (case.id, f)
        if case.dim == 3:  # and on the real algebra, in every degree
            algebra, m = realify(cs), 2 * cs.n
            for f in (_random_form(rng, basis(m, k, 0)) for k in range(m + 1)):
                assert algebra.d(f).terms == oracle_d(f, algebra.d_of_e, []).terms, case.id


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(triangular_structures(), st.integers(0, 2 ** 32))
def test_d_matches_the_tuple_leibniz_oracle_beyond_the_catalog(cs, seed):
    for f in _random_forms(random.Random(seed), cs.n):
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


def test_building_a_structure_builds_only_the_matrix_on_2_forms(monkeypatch):
    # the d^2 check reads d on 2-forms and nothing else, so building a
    # structure costs no matrix of the 4^n monomials beyond degree 2
    built = set()
    leibniz = model.leibniz

    def counted(holo, anti, k, *position):
        built.add(k)
        return leibniz(holo, anti, k, *position)

    monkeypatch.setattr(model, "leibniz", counted)
    cs = build("(0,0,w12,w13,w14,w15+w1~1)")
    assert cs.n == 6 and built == {2}


def test_masks_and_element_are_inverse_on_every_monomial():
    for n in range(1, 5):
        subsets = [s for k in range(n + 1) for s in combinations(range(1, n + 1), k)]
        monomials = [BasisElement(h, a) for h in subsets for a in subsets]
        assert len({masks(e) for e in monomials}) == len(monomials) == 4 ** n
        for e in monomials:
            assert element(*masks(e)) == e
