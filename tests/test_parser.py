import pytest

from nilcohom.algebra import BasisElement
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
