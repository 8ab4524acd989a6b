from fractions import Fraction

import pytest

from nilcohom import catalog as cat
from nilcohom import metrics as me
from nilcohom.cohomology import full_table
from nilcohom.model import instantiate
from nilcohom.parser import (
    parse_binding,
    parse_complex_structure,
    parse_gaussian,
    parse_real_algebra,
)
from real_oracle import realify


def test_case_counts(all_cases):
    assert len(all_cases) == 72
    assert len(cat.list_cases(3)) == 51
    assert len(cat.list_cases(4)) == 21


def test_case_order_is_stable(all_cases):
    ids = [c.id for c in all_cases]
    assert ids[:6] == ["00", "01a", "01b", "02a", "02b", "02c"]
    assert ids[-1] == "12_8D"
    assert ids.index("08") < ids.index("09a") < ids.index("00_8D")


def test_dim_filter_contents():
    ids3 = {c.id for c in cat.list_cases(3)}
    ids4 = {c.id for c in cat.list_cases(4)}
    assert "08" in ids3 and "12_8D" in ids4
    assert ids3.isdisjoint(ids4)


def test_case_by_id_unknown():
    with pytest.raises(KeyError):
        cat.case_by_id("99z")


def test_s_invariant_values():
    assert cat.s_invariant(Fraction(4), Fraction(3)) == 0
    assert cat.s_invariant(Fraction(0), Fraction(0)) == 1
    assert cat.s_invariant(Fraction(4), Fraction(1)) == 0
    assert cat.s_invariant(Fraction(4), Fraction(3, 2)) == Fraction(-135, 16)
    with pytest.raises(ValueError):
        cat.s_invariant(Fraction(1), Fraction(-1))


def test_sample_returns_stored_binding():
    b = cat.case_by_id("09c").binding
    assert b["lambda"] == parse_gaussian("0")
    assert b["D"] == parse_gaussian("1/2")
    assert cat.case_by_id("02a").binding["D"] == parse_gaussian("2+i")
    assert cat.case_by_id("00").binding == {}


def test_every_sample_satisfies_its_predicates(all_cases):
    for case in all_cases:
        assert case.predicate_violations() == []


def test_predicate_evaluator():
    values = {"c": parse_gaussian("0"), "B": parse_gaussian("2")}
    assert cat.evaluate_predicate("c!=0 or normsq(B)!=1", values)
    assert not cat.evaluate_predicate("c!=0 or normsq(B)!=1",
                                      {"c": parse_gaussian("0"),
                                       "B": parse_gaussian("i")})
    assert cat.evaluate_predicate("S(B,c)>0", values)
    assert cat.evaluate_predicate("normsq(B-1)=1", values)
    assert cat.evaluate_predicate("4*im(D)^2<3", {"D": parse_gaussian("1/2+1/2i")})
    with pytest.raises(Exception):
        cat.evaluate_predicate("unknown>1", values)
    with pytest.raises(Exception):
        cat.evaluate_predicate("i>0", {})


def test_predicate_leading_minus_binds_looser_than_power():
    half = {"D": parse_gaussian("1/2+i")}
    assert cat.evaluate_predicate("-re(D) < 0", half)
    assert not cat.evaluate_predicate("-re(D) < 0", {"D": parse_gaussian("-1/2")})
    assert cat.evaluate_predicate("0 > -re(D)", half)
    assert cat.evaluate_predicate("-i*i = 1", {})
    # -(x^2), not (-x)^2
    assert cat.evaluate_predicate("-re(D)^2 = -1/4", half)
    assert not cat.evaluate_predicate("-re(D)^2 = 1/4", half)
    assert cat.evaluate_predicate("2*-1 < 0", {})


def test_twin_cases_09b_share_cohomology_but_not_skt():
    primed = cat.case_by_id("09b'")
    doubled = cat.case_by_id("09b''")
    assert primed.golden_bc == doubled.golden_bc
    assert primed.golden_betti == doubled.golden_betti
    assert primed.golden_delta == doubled.golden_delta
    assert primed.golden_skt and not doubled.golden_skt


def test_evaluate_matches_golden_spot_cases():
    for cid in ("00", "09c", "11", "23", "12_8D"):
        result = cat.evaluate(cid)
        assert result.ok, result.diffs
    assert cat.evaluate("00").skt is True
    assert cat.evaluate("08").skt is False


def test_golden_rows_share_betti_and_odd_bott_chern_per_algebra(all_cases):
    by_algebra: dict[str, list] = {}
    for case in cat.list_cases(3):
        by_algebra.setdefault(case.algebra_text, []).append(case)
    for group in by_algebra.values():
        first = group[0]
        for other in group[1:]:
            assert other.golden_betti == first.golden_betti
            for (p, q), value in first.golden_bc.items():
                if (p + q) % 2 == 1:
                    assert other.golden_bc[(p, q)] == value


def test_eight_dimensional_cases_mirror_six_dimensional_ones(all_cases):
    ids3 = {c.id for c in cat.list_cases(3)}
    for case in cat.list_cases(4):
        base = case.id[:-3]
        assert base in ids3
        counterpart = cat.case_by_id(base)
        assert counterpart.binding_text == case.binding_text
        assert counterpart.predicates == case.predicates


def test_eight_dimensional_betti_follow_the_product_rule(all_cases, tables):
    for case in cat.list_cases(4):
        base = tables[case.id[:-3]].betti + [0, 0]
        lifted = tables[case.id].betti
        for k in range(len(lifted)):
            expected = base[k] + (2 * base[k - 1] if k >= 1 else 0) + \
                (base[k - 2] if k >= 2 else 0)
            assert lifted[k] == expected, case.id


def test_simultaneously_pluriclosed_and_balanced_forces_all_delta_zero(
        all_cases, structures, tables):
    from nilcohom.metrics import is_balanced, is_pluriclosed, standard_form

    both_ids = []
    for case in all_cases:
        cs = structures[case.id]
        std = standard_form(cs.n)
        if is_pluriclosed(cs, std) and is_balanced(cs, std):
            both_ids.append(case.id)
            assert all(d == 0 for d in tables[case.id].delta), case.id
    assert both_ids == ["00", "00_8D"]


def test_deformation_curves_structure():
    curves = cat.deformation_curves()
    assert [c.id for c in curves] == ["A", "B", "C"]
    assert all(len(c.points) == 3 for c in curves)
    with pytest.raises(KeyError):
        cat.curve_by_id("Z")


def test_every_false_curve_flag_failed_on_the_whole_seeded_sweep(monkeypatch):
    """A curve flag reads False only after its own test failed on each of the
    20 positive forms of seed 20, on that point's structure."""
    calls = []
    for name in ("is_pluriclosed", "is_balanced"):
        def spy(cs, h, name=name, test=getattr(me, name)):
            calls.append((name, cs, h))
            return test(cs, h)
        monkeypatch.setattr(me, name, spy)
    sweep = me.random_positive_forms(3, 20, seed=20)
    false_flags = []
    for curve in cat.deformation_curves():
        template = parse_complex_structure(curve.template_text)
        for res in cat.evaluate_curve(curve.id):
            cs = instantiate(template, parse_binding(res.binding_text))
            for key in ("pluriclosed", "balanced"):
                if res.computed.get(key) is False:
                    tried = [h for name, c, h in calls if name == f"is_{key}" and c == cs]
                    assert all(h in tried for h in sweep), (curve.id, res.label, key)
                    false_flags.append((curve.id, res.label, key))
    assert false_flags == [("C", "D=1/8", "pluriclosed"), ("C", "D=1/4", "pluriclosed"),
                           ("C", "D=1/4", "balanced"), ("C", "D=1", "balanced")]


def test_corrupted_sample_is_rejected(monkeypatch):
    good = cat.case_by_id("09c")
    bad = good._replace(binding_text="lambda=0; D=1/3")
    assert bad.predicate_violations() == ["D=1/2"]


def test_a_replaced_case_parses_its_own_text():
    torus = cat.case_by_id("00")
    assert torus.real_algebra.betti()[1] == 6 and full_table(torus.structure).betti[1] == 6
    iwasawa = torus._replace(algebra_text="(0,0,0,0,13+42,14+23)", template_text="(0,0,w12)")
    assert iwasawa.template is not torus.template
    assert iwasawa.real_algebra.betti()[1] == 4
    assert full_table(iwasawa.structure).betti[1] == 4


def test_printed_algebra_labels_match_their_templates(all_cases):
    """The algebra a row or curve prints has the Betti numbers of its template.

    Betti numbers separate only 13 of the 23 distinct algebras of the
    catalog, so a label is checked only up to them.
    """
    for case in all_cases:
        assert case.real_algebra.betti() == realify(case.structure).betti(), case.id
    for curve in cat.deformation_curves():
        betti = parse_real_algebra(curve.algebra_text).betti()
        template = parse_complex_structure(curve.template_text)
        for point in curve.points:
            cs = instantiate(template, parse_binding(point.binding_text))
            assert realify(cs).betti() == betti, (curve.id, point.label)
