import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

import nilcohom
from nilcohom.algebra import BasisElement, Gaussian
from nilcohom.catalog import evaluate_predicate
from nilcohom.model import Lit, Param
from nilcohom.parser import (
    ParseError,
    parse_binding,
    parse_complex_structure,
    parse_gaussian,
    parse_real_algebra,
    render,
    render_binding,
)


def test_h5_structure_equations():
    a = parse_real_algebra("(0,0,0,0,13+42,14+23)")
    assert a.dim == 6
    assert all(a.d_of_e[j].is_zero() for j in range(4))
    de5 = a.d_of_e[4]
    assert de5.coefficient(BasisElement((1, 3), ())).re == 1
    assert de5.coefficient(BasisElement((2, 4), ())).re == -1
    de6 = a.d_of_e[5]
    assert de6.coefficient(BasisElement((1, 4), ())).re == 1
    assert de6.coefficient(BasisElement((2, 3), ())).re == 1


def test_zero_power_abbreviation():
    assert parse_real_algebra("(0^6)").dim == 6
    assert render(parse_real_algebra("(0^4,12,34)")) == "(0,0,0,0,12,34)"


def test_minus_terms():
    a = parse_real_algebra("(0,0,0,12,23,14-35)")
    de6 = a.d_of_e[5]
    assert de6.coefficient(BasisElement((1, 4), ())).re == 1
    assert de6.coefficient(BasisElement((3, 5), ())).re == -1


def test_duplicate_index_is_parse_error_with_position():
    with pytest.raises(ParseError) as err:
        parse_real_algebra("(0,0,0,0,12+11,34)")
    assert err.value.line == 1
    # the position points inside the offending token "11"
    assert "(0,0,0,0,12+11,34)"[err.value.column - 1] == "1"
    assert err.value.column >= 13


def test_index_out_of_range():
    with pytest.raises(ParseError) as err:
        parse_real_algebra("(0,0,14)")
    assert "out of range" in err.value.message


def test_real_algebra_trailing_garbage():
    with pytest.raises(ParseError):
        parse_real_algebra("(0,0,12) extra")


def test_iwasawa_template():
    t = parse_complex_structure("(0, 0, w12)")
    assert t.n == 3 and t.params == ()
    ((coeff, elem),) = t.d_of_omega[2]
    assert coeff == Lit(parse_gaussian("1"))
    assert elem == BasisElement((1, 2), ())


def test_template_with_parameter_and_conjugate():
    t = parse_complex_structure("(0, 0, w1~1 + D*w2~2 + conj(D)*w12)")
    assert t.params == ("D",)
    exprs = {type(c) for c, _ in t.d_of_omega[2]}
    assert exprs == {Lit, Param}
    conj_terms = [c for c, _ in t.d_of_omega[2] if isinstance(c, Param) and c.conjugated]
    assert len(conj_terms) == 1


def test_modulus_declaration():
    t = parse_complex_structure("(0, w1~1, w12 + B*w1~2 + abs(B-1)*w2~1)")
    assert t.params == ("B",)
    (mod,) = t.moduli
    assert mod.name == "absBm1" and mod.param == "B" and mod.shift == parse_gaussian("1")


def test_modulus_names_keep_the_sign_of_a_complex_shift():
    # '+' and '-' are spelt 'p' and 'm', so the two shifts get two names
    t = parse_complex_structure("(0, w1~1, abs(B-1+2i)*w12 + abs(B-1-2i)*w1~2)")
    assert t.params == ("B",)
    assert [(m.name, m.param, m.shift) for m in t.moduli] == [
        ("absBm1p2i", "B", parse_gaussian("1+2i")),
        ("absBm1m2i", "B", parse_gaussian("1-2i")),
    ]
    assert [m.name for m in parse_complex_structure("(0,0,abs(B-1/2)*w12)").moduli] == ["absBm1_2"]


def test_descending_holomorphic_pair_normalizes_sign():
    t = parse_complex_structure("(0,0,w21)")
    ((coeff, elem),) = t.d_of_omega[2]
    assert elem == BasisElement((1, 2), ())
    assert coeff == Lit(parse_gaussian("-1"))


def test_zero_two_term_rejected():
    with pytest.raises(ParseError):
        parse_complex_structure("(0, 0, w~1~2)")


def test_duplicate_w_index_rejected():
    with pytest.raises(ParseError):
        parse_complex_structure("(0, 0, w11)")


@pytest.mark.parametrize("text, column", [("(0,0,w1 ~2)", 8), ("(0,0,w1 2)", 8)])
def test_a_w_term_admits_no_whitespace(text, column):
    with pytest.raises(ParseError) as info:
        parse_complex_structure(text)
    assert (info.value.message, info.value.column) == ("expected an index digit 1-9", column)


def test_one_modulus_name_for_two_declarations_is_rejected():
    with pytest.raises(ParseError, match="conflicting declarations of absBm1"):
        parse_complex_structure("(0, w1~1, abs(B-1)*w12 + abs(Bm1)*w1~2)")


def test_malformed_rational_rejected():
    with pytest.raises(ParseError):
        parse_complex_structure("(0, 0, 1/0*w12)")


def test_unknown_token_rejected():
    with pytest.raises(ParseError):
        parse_complex_structure("(0, 0, $*w12)")


def test_missing_star_after_coefficient():
    with pytest.raises(ParseError):
        parse_complex_structure("(0, 0, D w12)")


def test_binding_literals():
    b = parse_binding("D=1/2+0i; lambda=0")
    assert b["D"] == parse_gaussian("1/2")
    assert b["lambda"] == parse_gaussian("0")
    assert parse_binding("D=i")["D"] == parse_gaussian("i")
    assert parse_binding("") == {}


def test_binding_repeated_assignment():
    with pytest.raises(ParseError) as err:
        parse_binding("B=2; B=3")
    assert "repeated" in err.value.message


def test_binding_malformed():
    with pytest.raises(ParseError):
        parse_binding("D=1+")
    with pytest.raises(ParseError):
        parse_binding("D=1 q=2")


def test_render_h5():
    a = parse_real_algebra("(0,0,0,0,13+42,14+23)")
    assert render(a) == "(0,0,0,0,13+42,14+23)"


def test_render_template_examples():
    texts = [
        "(0,0,0)",
        "(0,0,w12)",
        "(0,0,w1~1+D*w2~2)",
        "(0,0,w12+w1~1+w1~2+D*w2~2)",
        "(0,w1~1,w12+B*w1~2+abs(B-1)*w2~1)",
        "(0,w13+w1~3,i*w1~2-i*w2~1)",
        "(0,w13+w1~3,-1i*w1~2+i*w2~1)",
        "(0,0,w1~1+w1~2+1/4*w2~2)",
    ]
    for text in texts:
        assert render(parse_complex_structure(text)) == text


def test_parse_render_roundtrip_is_identity_on_catalog(all_cases):
    for case in all_cases:
        algebra = parse_real_algebra(case.algebra_text)
        assert parse_real_algebra(render(algebra)) == algebra
        template = parse_complex_structure(case.template_text)
        assert parse_complex_structure(render(template)) == template


@pytest.mark.parametrize("text", [
    "(0,0,w1~2-D*w12)",
    "(0,w1~1,w1~2-abs(B-1)*w12)",
    "(0,0,D*w21)",
    "(0,0,-1*w1~2-conj(D)*w12)",
])
def test_render_never_leads_with_a_negated_symbol(text):
    # the grammar cannot write "-D*w12" first: another term leads, or the
    # swapped indices of a (2,0) term carry the sign
    assert render(parse_complex_structure(text)) == text


def test_render_binding_roundtrip():
    b = parse_binding("lambda=0; D=1/2+1/2i")
    assert parse_binding(render_binding(b)) == b


def test_error_position_in_cform():
    with pytest.raises(ParseError) as err:
        parse_complex_structure("(0,\n0, w1~1 + w14)")
    assert err.value.line == 2
    assert "out of range" in err.value.message


# The ASCII error surface: every message, line and column a malformed literal,
# template or predicate gets.  A sign with no ``i`` after it belongs to the
# surrounding expression, and a malformed rational after that sign is its own
# error at its own column.

def _predicate(text):
    return evaluate_predicate(text, parse_binding("D=1/2+i; B=2"))


@pytest.mark.parametrize("parse, text, message, line, column", [
    (parse_gaussian, "1/0", "malformed rational: zero denominator", 1, 3),
    (parse_gaussian, "1/", "malformed rational: expected a positive denominator", 1, 3),
    (parse_gaussian, "-x", "expected digits after '-'", 1, 2),
    (parse_gaussian, "-i", "expected digits after '-'", 1, 2),
    (parse_gaussian, "x", "expected digits", 1, 1),
    (parse_gaussian, "2 i j", "trailing characters after Gaussian literal", 1, 5),
    (parse_gaussian, "1/2-3i+", "trailing characters after Gaussian literal", 1, 7),
    (parse_binding, "D=1+2/0", "malformed rational: zero denominator", 1, 7),
    (parse_binding, "D=1+", "expected ';' or end of input", 1, 4),
    (parse_binding, "D=1 +\n 2/0i", "malformed rational: zero denominator", 2, 4),
    (parse_binding, "D=1-i j", "expected ';' or end of input", 1, 7),
    (parse_binding, "D=1;;", "expected an identifier", 1, 5),
    (parse_binding, "D=1; D=2", "repeated assignment to D", 1, 6),
    (parse_binding, "D 1", "expected '='", 1, 3),
    (parse_complex_structure, "(0,0,w1 ~2)", "expected an index digit 1-9", 1, 8),
    (parse_complex_structure, "(0,0,D w12)", "expected '*'", 1, 8),
    (parse_complex_structure, "(0,0,1/0*w12)", "malformed rational: zero denominator", 1, 8),
    (parse_complex_structure, "(0,0,-i*w12)", "expected digits after '-'", 1, 7),
    (parse_complex_structure, "(0,0,$*w12)", "expected a coefficient or a w-term", 1, 6),
    (parse_complex_structure, "(0,0,2*x12)", "expected a w-term", 1, 8),
    (parse_complex_structure, "(0,0,w0)", "expected an index digit 1-9", 1, 7),
    (parse_complex_structure, "(0,0,conj (D)*w12)", "expected '*'", 1, 11),
    (parse_real_algebra, "(0^3,12,1 3)", "expected an index digit 1-9", 1, 10),
    (parse_real_algebra, "(0^0)", "expected an index digit 1-9", 1, 4),
    (_predicate, "re(D) - 1/0 > 0", "malformed rational: zero denominator", 1, 11),
    (_predicate, "re(D) + 2 i > 0", "ordering comparison '>' needs real operands", 1, 16),
    (_predicate, "1/2-3i > 0", "ordering comparison '>' needs real operands", 1, 11),
    (_predicate, "1 - re(D) > 0 or", "expected a value", 1, 17),
    (_predicate, "1 - re(D) > 0 ornament", "trailing characters in predicate", 1, 15),
    (_predicate, "re(D) ! 0", "expected a comparator", 1, 7),
    (_predicate, "re(D)^x > 0", "expected digits", 1, 7),
    (_predicate, "re (D) > 0", "unknown parameter 're'", 1, 1),
])
def test_the_ascii_error_surface(parse, text, message, line, column):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert (info.value.message, info.value.line, info.value.column) == (message, line, column)


@pytest.mark.parametrize("parse, text, value", [
    (parse_gaussian, "2 i", Gaussian.of(0, 2)),
    (parse_gaussian, "1/2-3i", Gaussian.of(Fraction(1, 2), -3)),
    (parse_gaussian, " -1/2 - 3/4 i ", Gaussian.of(Fraction(-1, 2), Fraction(-3, 4))),
    (parse_gaussian, "00/007", Gaussian.of(0)),
    (parse_binding, "D=1-i; B=i;", {"D": Gaussian.of(1, -1), "B": Gaussian.of(0, 1)}),
    (parse_binding, " \n ", {}),
    (_predicate, "re(D) - 1 > 0", False),
    (_predicate, "1 - re(D) > 0", True),
    # "1 - i" is one literal: the sign is followed by an i
    (_predicate, "1 - i*im(D)*i = 1+i", True),
    (_predicate, "2 i = 2i", True),
    (_predicate, "re(D) < 0 or im(D)^2 >= 1", True),
])
def test_accepted_literals_and_the_sign_that_backtracks(parse, text, value):
    assert parse(text) == value


def _coframe_module():
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("coframe", root / "perfbench" / "coframe.py")
    coframe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(coframe)
    return coframe


@pytest.mark.parametrize("seed", [0, 1])
def test_parse_render_roundtrip_on_the_dense_coframe_texts(all_cases, seed):
    # every 6d row rewritten in a general coframe: dense Gaussian literals
    coframe, rng = _coframe_module(), random.Random(seed)
    rows = [case for case in all_cases if case.dim == 3]
    for case in rows:
        text = coframe.generate(nilcohom, case.template_text, case.binding_text, rng)
        template = parse_complex_structure(text)
        assert render(template) == text
        assert parse_complex_structure(render(template)) == template
        assert all(isinstance(coeff, Lit) for entry in template.d_of_omega for coeff, _ in entry)
