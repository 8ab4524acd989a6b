"""The engine's record types: named tuples and plain classes with the fields,
defaults, ``repr`` text and equality they had as dataclasses."""

from nilcohom import catalog as cat
from nilcohom.algebra import Gaussian
from nilcohom.cohomology import LemmaVerdict, ddbar_lemma_status, full_table
from nilcohom.model import Lit, Mod, Param, ValidationReport
from nilcohom.parser import parse_complex_structure, render

# every kind of coefficient: a literal, a name, a conjugate, a negated name
# and a declared modulus
TEMPLATE = "(0,w1~1,w12+B*w1~2+abs(B-1)*w2~1-conj(B)*w2~2)"


def test_coefficient_records_of_different_kinds_never_compare_equal():
    one = Gaussian.of(1)
    records = [Lit(one), Lit(Gaussian.of(0, 1)), Param("B"), Param("B", conjugated=True),
               Param("B", negated=True), Mod("absB", "B", one), Mod("absB", "B", one, True)]
    for i, a in enumerate(records):
        for j, b in enumerate(records):
            assert (a == b) == (i == j), (a, b)
    assert Param("B") == Param("B", False, False) and Mod("absB", "B", one) == Mod(
        "absB", "B", one, negated=False)


def test_a_parsed_template_hashes_and_survives_its_render_round_trip():
    template = parse_complex_structure(TEMPLATE)
    again = parse_complex_structure(render(template))
    assert again == template
    key = (tuple(template.d_of_omega), template.params, template.moduli)
    assert hash(key) == hash((tuple(again.d_of_omega), again.params, again.moduli))
    assert {term for entry in template.d_of_omega for term in entry} == {
        term for entry in again.d_of_omega for term in entry}


def test_record_reprs_keep_their_dataclass_text():
    assert repr(Param("D")) == "Param(name='D', conjugated=False, negated=False)"
    assert repr(Lit(Gaussian.of(1, 2))) == "Lit(value=Gaussian(1+2i))"
    assert repr(Mod("absBm1", "B", Gaussian.of(1))) == (
        "Mod(name='absBm1', param='B', shift=Gaussian(1), negated=False)")
    assert repr(parse_complex_structure(TEMPLATE).d_of_omega[2][-1][0]) == (
        "Param(name='B', conjugated=True, negated=True)")
    assert repr(ValidationReport()) == "ValidationReport(residuals=[])"
    assert repr(LemmaVerdict(False, 2)) == "LemmaVerdict(satisfied=False, witness=2)"
    assert repr(cat.curve_by_id("B").points[0]) == (
        "CurvePoint(label='t=0', binding_text='D=1/2', "
        "expected={'h_bc(2,2)': 8, 'pluriclosed': True})")
    assert repr(cat.case_by_id("00")).startswith(
        "CatalogCase(id='00', algebra_text='(0,0,0,0,0,0)', template_text='(0,0,0)', "
        "binding_text='', predicates=[], golden_bc={(1, 0): 3, ")
    table = full_table(cat.case_by_id("00").structure)
    assert repr(table).startswith("CohomologyTable(n=3, h_dolbeault=[[1, 3, 3, 1], ")
    assert repr(ddbar_lemma_status(table)) == "LemmaVerdict(satisfied=True, witness=None)"


def test_each_validation_report_has_its_own_residuals():
    first, second = ValidationReport(), ValidationReport()
    first.residuals.append(("w1", None))
    assert second.residuals == [] and second.ok and not first.ok
    assert first != second and ValidationReport() == second
    assert ValidationReport([("w1", None)]) == first


def test_a_catalog_case_replaced_keeps_its_class_and_caches_its_own_properties():
    torus = cat.case_by_id("00")
    copy = torus._replace()
    assert type(copy) is cat.CatalogCase and copy == torus and copy is not torus
    assert copy.structure is not torus.structure and copy.structure is copy.structure
