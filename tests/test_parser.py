import importlib.util
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import nilcohom
from nilcohom.algebra import BasisElement, Gaussian
from nilcohom.catalog import evaluate_predicate
from nilcohom.model import Lit, Param
from nilcohom.parser import (
    _ITEM,
    ParseError,
    _Scanner,
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
    (parse_complex_structure, " x(0)", "expected '('", 1, 2),
    (parse_complex_structure, "(0,0,w12) x", "trailing characters after ')'", 1, 11),
    (parse_complex_structure, "(0,0,abs(D)*w12)\n )", "trailing characters after ')'", 2, 2),
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
    # a predicate's literal has no signed tail: - and + are operators, and
    # * binds tighter, so this is 1 - (i*im(D)*i) = 2, not (1-i)*im(D)*i
    (_predicate, "1 - i*im(D)*i = 1+i", False),
    (_predicate, "1 - i*im(D)*i = 2", True),
    (_predicate, "1/2-3i*2 = 1/2-6i", True),
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


# Every error a template term can raise, with its column.  A term with a
# literal coefficient is read whole by one pattern, and the scanner reads
# the term wherever that pattern cannot, a zero denominator, a repeated
# index and a zero after a sign included; these are the scanner's messages
# and positions.
@pytest.mark.parametrize("text, message, column", [
    ("(0,0,-i*w12)", "expected digits after '-'", 7),
    ("(0,0,1/0+2i*w12)", "malformed rational: zero denominator", 8),
    ("(0,0,1/+2i*w12)", "malformed rational: expected a positive denominator", 8),
    ("(0,0,1+2/0i*w12)", "malformed rational: zero denominator", 10),
    ("(0,0,1+2i w12)", "expected '*'", 11),
    ("(0,0,1+2*w12)", "expected '*'", 7),
    ("(0,0,1+2i*w11)", "duplicate index 1 inside one term", 13),
    ("(0,0,1+2i*w1~0)", "expected an index digit 1-9", 14),
    ("(0,0,1+2i*w1~)", "expected an index digit 1-9", 14),
    ("(0,0,1+2i*x12)", "expected a w-term", 11),
    ("(0,0,1+2i*)", "expected a w-term", 11),
    ("(0,0,1+2i*w14)", "index out of range for complex dimension 3", 6),
    ("(0,0,w12+)", "expected a coefficient or a w-term", 10),
    ("(0,0,3 i * w 12)", "expected an index digit 1-9", 13),
    ("(0,0,1+2١i*w12)", "expected '*'", 7),
    ("(0,0,١*w12)", "expected a coefficient or a w-term", 6),
    ("(0,0,w12+0)", "expected '*'", 11),  # a zero entry after a sign
])
def test_every_error_of_a_template_term(text, message, column):
    with pytest.raises(ParseError) as info:
        parse_complex_structure(text)
    assert (info.value.message, info.value.line, info.value.column) == (message, 1, column)


@pytest.mark.parametrize("term, value, elem", [
    ("3 i * w12", Gaussian.of(0, 3), BasisElement((1, 2), ())),
    ("1 - 2 i*w1~2", Gaussian.of(1, -2), BasisElement((1,), (2,))),
    ("i*w12", Gaussian.of(0, 1), BasisElement((1, 2), ())),
    ("w1~2", Gaussian.of(1), BasisElement((1,), (2,))),
    ("w1~1+0*w12", Gaussian.of(0), BasisElement((1, 2), ())),
    ("2/4-6/8i*w21", Gaussian.of(Fraction(-1, 2), Fraction(3, 4)), BasisElement((1, 2), ())),
    ("-1/3 + i\n*\tw2~1", Gaussian.of(Fraction(-1, 3), 1), BasisElement((2,), (1,))),
])
def test_the_value_of_a_literal_term(term, value, elem):
    # the last term of the third entry; the literal is reduced to lowest terms
    # (Gaussians compare by that triple) and a descending holomorphic pair
    # negates it
    assert parse_complex_structure(f"(0,0,{term})").d_of_omega[2][-1] == (Lit(value), elem)


# The edges of the one-match path: a plain-name coefficient is read with the
# rest of its term by one pattern.  Each case here, and each binding below,
# has the value, or the message and position, the scanner alone gives.
@pytest.mark.parametrize("term, expected", [
    ("w12*w12", ("expected ')'", 9)),  # a w-term is never read as a name
    ("conj*w12", (Param("conj"), BasisElement((1, 2), ()))),
    ("abs*w12", (Param("abs"), BasisElement((1, 2), ()))),
    ("i2*w12", (Param("i2"), BasisElement((1, 2), ()))),
    ("iD * w1~2", (Param("iD"), BasisElement((1,), (2,)))),
    ("w*w12", (Param("w"), BasisElement((1, 2), ()))),
    ("i * w12", (Lit(Gaussian.of(0, 1)), BasisElement((1, 2), ()))),
    ("D*w21", (Param("D", negated=True), BasisElement((1, 2), ()))),
    ("D*w11", ("duplicate index 1 inside one term", 10)),
    ("D*w14", ("index out of range for complex dimension 3", 6)),
    ("-D*w12", ("expected digits after '-'", 7)),
    ("w1x*w12", ("expected an index digit 1-9", 8)),
    ("conj (D)*w12", ("expected '*'", 11)),
])
def test_symbol_terms_at_the_edges_of_the_one_match_path(term, expected):
    text = f"(0,0,{term})"
    if isinstance(expected[0], str):
        with pytest.raises(ParseError) as info:
            parse_complex_structure(text)
        assert (info.value.message, info.value.line, info.value.column) == (expected[0], 1,
                                                                            expected[1])
    else:
        assert parse_complex_structure(text).d_of_omega[2] == (expected,)


@pytest.mark.parametrize("text, expected", [
    ("D=1/0", ("malformed rational: zero denominator", 1, 5)),
    ("D=1-2", ("expected ';' or end of input", 1, 4)),
    ("D = 1 ; ", {"D": Gaussian.of(1)}),
    ("D=1;D=2", ("repeated assignment to D", 1, 5)),
    ("D=1/2-i;;", ("expected an identifier", 1, 9)),
    ("D=1\n", {"D": Gaussian.of(1)}),
    ("D=1 junk", ("expected ';' or end of input", 1, 5)),
    ("D=1; B=2 x", ("expected ';' or end of input", 1, 10)),
    ("D=1/", ("malformed rational: expected a positive denominator", 1, 5)),
    ("D=2i;B=-3/4 - 5 i", {"D": Gaussian.of(0, 2), "B": Gaussian.of(Fraction(-3, 4), -5)}),
])
def test_bindings_at_their_edges(text, expected):
    if isinstance(expected, tuple):
        with pytest.raises(ParseError) as info:
            parse_binding(text)
        assert (info.value.message, info.value.line, info.value.column) == expected
    else:
        assert parse_binding(text) == expected


def _read(parse, text):
    """The value ``parse`` returns for ``text``, its error's message and
    position, or the name and text of another exception."""
    try:
        return parse(text)
    except ParseError as err:
        return err.message, err.line, err.column
    except Exception as err:  # a template the model rejects
        return type(err).__name__, str(err)


_NEVER = re.compile(r"(?!)")  # a pattern that matches nowhere


# characters that texts are made of, and a few they are not
_EDITS = "0123456789/+-*~ iwDxB_(),;=\n"


def _edited(rng, text):
    """``text`` with one or two characters inserted or replaced."""
    for _ in range(rng.randint(1, 2)):
        pos = rng.randrange(len(text) + 1)
        text = text[:pos] + rng.choice(_EDITS) + text[pos + rng.randint(0, 1):]
    return text


def _template_and_binding_texts(all_cases):
    """The catalog's templates and bindings, the dense coframe texts at one
    seed, and bindings of the dense texts' literals."""
    coframe, rng = _coframe_module(), random.Random(3)
    dense = [coframe.generate(nilcohom, case.template_text, case.binding_text, rng)
             for case in all_cases if case.dim == 3]
    literals = [str(coeff.value) for text in dense
                for entry in parse_complex_structure(text).d_of_omega for coeff, _ in entry]
    templates = [case.template_text for case in all_cases] + dense
    bindings = [case.binding_text for case in all_cases]
    bindings += [f"D={a}; B = {b};absBm1={c}" for a, b, c in zip(*[iter(literals)] * 3)]
    return templates, bindings


def test_the_readers_read_what_the_scanner_reads(all_cases, monkeypatch):
    # the loops return what they return with their composed patterns
    # disabled, where the scanner reads every item: the same value, or an
    # error with the same message and position.  No unedited text without
    # conj(..) or abs(..) makes a scanner, and the patterns read more than a
    # tenth of the edited texts whole
    made = []  # the texts a scanner is made for

    class Counted(_Scanner):
        def __init__(self, text):
            made.append(text)
            super().__init__(text)

    templates, bindings = _template_and_binding_texts(all_cases)
    monkeypatch.setattr(nilcohom.parser, "_Scanner", Counted)
    for text in templates:
        parse_complex_structure(text)
    for text in bindings:
        parse_binding(text)
    assert made == [text for text in templates if "conj(" in text or "abs(" in text]
    rng, shares = random.Random(5), []
    for texts, parse in ((templates, parse_complex_structure), (bindings, parse_binding)):
        edited = texts + [_edited(rng, rng.choice(texts)) for _ in range(3000)]
        read, whole = [], 0
        for text in edited:
            made.clear()
            read.append(_read(parse, text))
            whole += not made
        shares.append(whole / len(edited))
        with monkeypatch.context() as patterns:
            patterns.setattr(nilcohom.parser, "_ITEM", _NEVER)
            patterns.setattr(nilcohom.parser, "_ASSIGNMENT", _NEVER)
            for text, value in zip(edited, read):
                assert value == _read(parse, text), text
    assert min(shares) > 0.1, shares


_SYMBOL_TEMPLATES = [
    "(0,w1~1+conj(B)*w1~1,w12+conj(B)*w1~2-B*w2~1)",  # conj(..) inside entries
    "(0,w1~1,abs(B-1)*w2~1+w12+B*w1~2)",  # abs(..) at an entry's start
    "(0,conj(B)*w1~1,w12+B*w1~2+abs(B)*w2~1)",
    "(0,0,w12+conj(B)*w14)",  # an index out of range, in a term the scanner reads
    "(0,0,abs(B)*w1~2+abs(B)*w12-abs(B-1)*w2~1-abs(B-1)*w21)",
    "(0,0,abs(B)*w1~2+w1~1,w12+abs(B-1)*w2~1)",  # a fourth entry
]


def test_the_scanner_reads_only_the_conj_and_abs_items(all_cases, monkeypatch):
    # of the catalog's abs(..) templates and of conj(..) ones, the scanner
    # reads each conj(..) and abs(..) term once, from its start, and nothing
    # else; values and positions are those of the scanner alone
    texts = [case.template_text for case in all_cases if "abs(" in case.template_text]
    assert len(texts) == 4
    texts += _SYMBOL_TEMPLATES
    read, starts = nilcohom.parser._parse_cterm, []

    def spied(sc):
        # checked before the term is read: a loop that went back to an
        # earlier item would read it again and again
        assert sc.text.startswith(("conj(", "abs("), sc.pos), (sc.text, sc.pos)
        starts.append(sc.pos)
        return read(sc)

    with monkeypatch.context() as spy:
        spy.setattr(nilcohom.parser, "_parse_cterm", spied)
        values = []
        for text in texts:
            starts.clear()
            values.append(_read(parse_complex_structure, text))
            assert starts == [m.start() for m in re.finditer(r"conj\(|abs\(", text)], text
    monkeypatch.setattr(nilcohom.parser, "_ITEM", _NEVER)
    assert values == [_read(parse_complex_structure, text) for text in texts]
    assert values[texts.index("(0,0,w12+conj(B)*w14)")] == (
        "index out of range for complex dimension 3", 1, 10)


@pytest.mark.parametrize("text", [
    "(0/761-40/761i*w1~1,0,0)",  # not backtracked into the literal 0/761-40/761i
    "(0+w12,0,0)",  # a zero entry followed by a sign
])
def test_a_zero_entry_is_never_read_as_a_term(text, monkeypatch):
    assert _ITEM.match(text, 1) is None
    for pattern in (_ITEM, _NEVER):  # with the composed pattern, then the scanner alone
        monkeypatch.setattr(nilcohom.parser, "_ITEM", pattern)
        with pytest.raises(ParseError) as info:
            parse_complex_structure(text)
        assert (info.value.message, info.value.line, info.value.column) == ("expected ')'", 1, 3)
