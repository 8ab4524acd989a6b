import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from nilcohom import catalog as cat
from nilcohom import cli
from nilcohom import cohomology as co


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def h5_file(tmp_path):
    path = tmp_path / "h5.txt"
    path.write_text("(0,0,0,0,13+42,14+23)\n", encoding="ascii")
    return str(path)


@pytest.fixture
def iwasawa_file(tmp_path):
    path = tmp_path / "iwa.txt"
    path.write_text("(0,0,w12)\n", encoding="ascii")
    return str(path)


def test_check_valid_real_algebra(capsys, h5_file):
    code, out, _ = run(capsys, "check", h5_file)
    assert code == 0
    assert "d-square: ok" in out and "nilpotency: ok" in out


def test_check_duplicate_index_is_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("(0,0,0,0,12+11,34)\n", encoding="ascii")
    code, _, err = run(capsys, "check", str(path))
    assert code == 1
    assert "parse error" in err and "duplicate index" in err


def test_more_than_nine_entries_is_a_parse_error_before_anything_is_built(
        capsys, tmp_path, monkeypatch):
    # no term can name a tenth generator, and a table builds about 4^n monomials
    def build(*args):
        raise AssertionError("a structure was built")
    monkeypatch.setattr(cli, "instantiate", build)
    monkeypatch.setattr(cli, "parse_real_algebra", build)
    path = tmp_path / "ten.txt"
    path.write_text("(0,0,0,0,0,0,0,0,0, w12)\n", encoding="ascii")
    for command in ("table", "check", "skt"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (1, ""), command
        assert err == ("parse error: too many entries: generators are numbered 1-9 "
                       "(line 1, column 21)\n"), command
    monkeypatch.undo()
    path.write_text("(0,0,0,0,0,0,0,0, w12)\n", encoding="ascii")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0 and "parsed complex-structure template (n=9)" in out
    code, out, _ = run(capsys, "skt", str(path))
    assert code == 0 and "balanced (standard metric): True" in out


def test_check_reads_ten_zero_entries_as_a_real_algebra(capsys, tmp_path):
    # no template has ten entries, and a real algebra check builds degrees 1 and 2
    path = tmp_path / "ten.txt"
    path.write_text("(0,0,0,0,0,0,0,0,0,0)\n", encoding="ascii")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0 and out.startswith("parsed real algebra (dim=10)")
    code, _, err = run(capsys, "table", str(path))
    assert code == 2 and "holds a real algebra (dim=10)" in err


def test_check_non_jacobi_input(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("(0, w1~3, w12)\n", encoding="ascii")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 2
    assert "d-square FAILED" in out


@pytest.mark.parametrize("text, lines", [
    ("(0, w1~3, w12)", ["parsed complex-structure template (n=3)",
                        "integrability shape: ok (only (2,0) and (1,1) terms)",
                        "d-square FAILED:", "  d(d w2) = (-1)*w1~1~2"]),
    ("(0,0,12,34,35,15+24)", ["parsed real algebra (dim=6)", "d-square FAILED:",
                              "  d(d e4) = e124", "  d(d e5) = e125",
                              "  d(d e6) = (-1)*e135 + (-1)*e234"]),
], ids=["template", "real"])
def test_check_prints_each_d_squared_residual(capsys, tmp_path, text, lines):
    path = tmp_path / "bad.txt"
    path.write_text(text + "\n", encoding="ascii")
    assert run(capsys, "check", str(path)) == (2, "\n".join(lines) + "\n", "")


def test_check_non_nilpotent_input(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("(0,12,0,0,0,0)\n", encoding="ascii")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 2
    assert "nilpotency: FAILED" in out


def test_check_unbound_parameter(capsys, tmp_path):
    path = tmp_path / "j.txt"
    path.write_text("(0, 0, w1~1 + D*w2~2)\n", encoding="ascii")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 2
    assert "unbound parameters: D" in out


def test_check_reads_text_as_a_template_first(capsys, tmp_path):
    path = tmp_path / "in.txt"
    path.write_text("(0,0,0)\n", encoding="ascii")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert out.splitlines() == [
        "parsed complex-structure template (n=3)",
        "integrability shape: ok (only (2,0) and (1,1) terms)",
        "d-square: ok",
        "underlying real algebra: dimension 6",
        "nilpotency: ok",
    ]
    for text in ("(0,0,0,0,12,34)", "(0^6)"):
        path.write_text(text + "\n", encoding="ascii")
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0
        assert out.splitlines()[0] == "parsed real algebra (dim=6)"
    # a malformed template reports the template parser's error
    path.write_text("(0,0,w1q)\n", encoding="ascii")
    assert run(capsys, "check", str(path)) == (
        1, "", "parse error: expected an index digit 1-9 (line 1, column 8)\n"
    )


def test_missing_file(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/file.txt")
    assert code == 1


def test_directory_is_a_one_line_error(capsys, tmp_path):
    code, out, err = run(capsys, "table", str(tmp_path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_non_ascii_file_is_a_one_line_error(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes("(0,0,w12)  # \u00e9\n".encode("utf-8"))
    code, out, err = run(capsys, "table", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_skt_count_must_be_positive(capsys):
    for count in ("-3", "0"):
        code, out, err = run(capsys, "skt", "--case", "08", "--metric", "random",
                             "--count", count)
        assert code == 1
        assert out == ""
        assert err == "error: --count must be at least 1\n"


def test_skt_seed_and_count_need_the_random_metric(capsys):
    for flags in (["--seed", "3", "--count", "4"], ["--seed", "0"], ["--count", "20"],
                  ["--metric", "standard", "--seed", "3"]):
        assert run(capsys, "skt", "--case", "08", *flags) == (
            1, "", "error: --seed and --count apply only to --metric random\n"), flags
    # with it, each keeps its default: seed 0 and 20 forms
    code, out, _ = run(capsys, "skt", "--case", "08", "--metric", "random")
    assert code == 0 and "random sweep (20 positive forms, seed 0)" in out
    assert run(capsys, "skt", "--case", "08", "--metric", "random", "--seed", "0",
               "--count", "20") == (0, out, "")


def test_table_markdown(capsys, iwasawa_file):
    code, out, _ = run(capsys, "table", iwasawa_file)
    assert code == 0
    assert "bott_chern" in out
    assert "delta: 0 2 6 8 6 2 0" in out
    assert "FAILS at k=1" in out


def test_table_json_roundtrip(capsys, iwasawa_file):
    code, out, _ = run(capsys, "table", iwasawa_file, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert cli.render_json(payload) == out.strip()
    assert payload["delta"] == [0, 2, 6, 8, 6, 2, 0]
    assert payload["hodge"]["bott_chern"][1][1] == 4
    assert payload["ddbar_lemma"]["verdict"] == "FAILS"


def test_table_unbound_binding_error(capsys, tmp_path):
    path = tmp_path / "j.txt"
    path.write_text("(0, 0, w1~1 + D*w2~2)\n", encoding="ascii")
    code, _, err = run(capsys, "table", str(path))
    assert code == 2
    assert "D" in err


@pytest.fixture
def solvable_file(tmp_path):
    # realifies to d e^2 = -2 e^12: [e_1, e_2] = 2 e_2, solvable but not nilpotent
    path = tmp_path / "solvable.txt"
    path.write_text("(w1~1, 0)\n", encoding="ascii")
    return str(path)


NOT_NILPOTENT = ("validation error: the underlying real algebra is not nilpotent "
                 "(lower central series does not vanish)\n")


def test_table_rejects_a_non_nilpotent_structure(capsys, solvable_file):
    assert run(capsys, "table", solvable_file) == (2, "", NOT_NILPOTENT)


def test_skt_rejects_a_non_nilpotent_structure(capsys, solvable_file):
    assert run(capsys, "skt", solvable_file) == (2, "", NOT_NILPOTENT)


def test_table_and_skt_reject_a_non_nilpotent_structure_without_conjugates(capsys, tmp_path):
    # d w^1 = w^12 gives [w_1, w_2] = -w_1 with no wbar in any term, so the
    # gate reads the bracket from the w^j alone
    path = tmp_path / "w12.txt"
    path.write_text("(w12, 0)\n", encoding="ascii")
    for command in ("table", "skt"):
        assert run(capsys, command, str(path)) == (2, "", NOT_NILPOTENT)


@pytest.mark.parametrize("command", ["table", "skt"])
@pytest.mark.parametrize("text, dim", [("(0,0,0,0,13+42,14+23)", 6), ("(0,0,12,34)", 4),
                                       ("(" + ",".join("0" * 10) + ")", 10)])
def test_table_and_skt_refuse_a_real_algebra(capsys, tmp_path, command, text, dim):
    # a file that check reads as a real algebra is named as one, not
    # misread as a malformed template; d^2 fails on (0,0,12,34)
    path = tmp_path / "real.txt"
    path.write_text(text + "\n", encoding="ascii")
    assert run(capsys, command, str(path)) == (2, "", (
        f"validation error: {path} holds a real algebra (dim={dim}), "
        "not a complex-structure template\n"))


def test_table_with_binding(capsys, tmp_path):
    path = tmp_path / "j.txt"
    path.write_text("(0, 0, w1~1 + D*w2~2)\n", encoding="ascii")
    code, out, _ = run(capsys, "table", str(path), "--binding", "D=i",
                       "--format", "csv")
    assert code == 0
    assert "bott_chern,2,2,7" in out.splitlines()


def test_a_failing_lemma_is_reported_with_no_sufficient_condition(capsys, tmp_path):
    # row 02a: delta 0 2 0 8 0 2 0 vanishes in every even degree
    path = tmp_path / "02a.txt"
    path.write_text("(0,0,w12+w1~1+w1~2+D*w2~2)\n", encoding="ascii")
    code, out, _ = run(capsys, "table", str(path), "--binding", "D=2+i")
    assert code == 0
    assert out.splitlines()[-2:] == ["delta: 0 2 0 8 0 2 0", "ddbar-lemma: FAILS at k=1"]
    code, out, _ = run(capsys, "table", str(path), "--binding", "D=2+i", "--format", "json")
    assert code == 0
    assert json.loads(out)["ddbar_lemma"] == {"verdict": "FAILS", "witness": 1}


def test_table_binds_two_moduli_of_one_parameter(capsys, tmp_path):
    path = tmp_path / "moduli.txt"
    path.write_text("(0, w1~1, abs(B-1+2i)*w12 + abs(B-1-2i)*w1~2)\n", encoding="ascii")
    code, out, err = run(capsys, "table", str(path),
                         "--binding", "B=1; absBm1p2i=2; absBm1m2i=2")
    assert (code, err) == (0, "")
    assert out.startswith("## Cohomology table (n = 3)")


def test_catalog_single_case_golden(capsys):
    code, out, _ = run(capsys, "catalog", "--case", "09c", "--golden")
    assert code == 0
    assert "pass" in out


def test_catalog_case_11_prints_footnote(capsys):
    code, out, _ = run(capsys, "catalog", "--case", "11")
    assert code == 0
    assert cli.H7_FOOTNOTE in out
    code, out, _ = run(capsys, "catalog", "--case", "12")
    assert code == 0
    assert cli.H7_FOOTNOTE not in out


def test_catalog_case_and_dim_is_a_usage_error(capsys):
    assert run(capsys, "catalog", "--case", "12", "--dim", "4") == (
        1, "", "error: give either --case or --dim, not both\n"
    )


def test_catalog_prints_one_table_per_dimension(capsys, monkeypatch, all_cases, tables):
    # each dimension keeps the header of its own --dim table; the footnote of
    # 6d case 11 closes the output once.  Only the layout is under test, so
    # the tables come from the session fixture.
    by_structure = {id(case.structure): tables[case.id] for case in all_cases}
    monkeypatch.setattr(co, "full_table", lambda cs: by_structure[id(cs)])
    for fmt, tail in (("md", f"\n\n{cli.H7_FOOTNOTE}\n"), ("csv", f"\n# {cli.H7_FOOTNOTE}\n")):
        _, six, _ = run(capsys, "catalog", "--dim", "3", "--format", fmt)
        _, eight, _ = run(capsys, "catalog", "--dim", "4", "--format", fmt)
        code, out, _ = run(capsys, "catalog", "--format", fmt)
        assert code == 0
        assert six.endswith(tail) and not eight.endswith(tail)
        assert out == six[:-len(tail)] + "\n\n" + eight[:-1] + tail


def test_catalog_unknown_case(capsys):
    code, _, err = run(capsys, "catalog", "--case", "zz")
    assert code == 1
    assert err == "error: no catalog case with id 'zz'\n"


def test_internal_key_error_is_not_a_usage_error(capsys, monkeypatch, iwasawa_file):
    def broken(cs):
        raise KeyError("bad index")

    monkeypatch.setattr(co, "full_table", broken)
    with pytest.raises(KeyError, match="bad index"):
        cli.main(["table", iwasawa_file])


def test_catalog_golden_mismatch_exit_code(capsys, monkeypatch):
    cases = cat.list_cases()
    tampered = []
    for case in cases:
        if case.id == "08":
            bad = dict(case.golden_bc)
            bad[(1, 1)] += 1
            case = case._replace(golden_bc=bad)
        tampered.append(case)
    monkeypatch.setattr(cat, "_load_cases", lambda: tuple(tampered))
    code, out, _ = run(capsys, "catalog", "--case", "08", "--golden")
    assert code == 3
    assert "FAIL" in out and "h_bc[1][1]" in out


def test_catalog_json(capsys):
    code, out, _ = run(capsys, "catalog", "--case", "00", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cases"][0]["delta"] == [0, 0, 0]
    assert cli.render_json(payload) == out.strip()


def test_skt_case_08(capsys):
    code, out, _ = run(capsys, "skt", "--case", "08")
    assert code == 0
    assert "(-1) * w12~1~2" in out
    assert "pluriclosed (standard metric): False" in out


def test_skt_case_01b(capsys):
    code, out, _ = run(capsys, "skt", "--case", "01b")
    assert code == 0
    assert "(0) * w12~1~2" in out
    assert "pluriclosed (standard metric): True" in out


def test_skt_case_06a_coefficient(capsys):
    # stored sample D=2, so the coefficient 2(D-1) evaluates to 2
    code, out, _ = run(capsys, "skt", "--case", "06a")
    assert code == 0
    assert "(2) * w12~1~2" in out


def test_skt_random_sweep_deterministic(capsys):
    code1, out1, _ = run(capsys, "skt", "--case", "01b", "--metric", "random",
                         "--seed", "5", "--count", "6")
    code2, out2, _ = run(capsys, "skt", "--case", "01b", "--metric", "random",
                         "--seed", "5", "--count", "6")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "pluriclosed [True]" in out1


def test_skt_requires_source(capsys):
    code, _, err = run(capsys, "skt")
    assert code == 1


def test_skt_file_and_case_is_a_usage_error(capsys, iwasawa_file):
    assert run(capsys, "skt", iwasawa_file, "--case", "08") == (
        1, "", "error: give either a file or --case, not both\n"
    )


def test_skt_case_with_binding_is_a_usage_error(capsys):
    for binding in ("D=1", "=="):
        assert run(capsys, "skt", "--case", "08", "--binding", binding) == (
            1, "", "error: --binding applies to a file, not to --case\n"
        )


def test_check_real_algebra_parses_and_rejects_a_binding(capsys, h5_file):
    assert run(capsys, "check", h5_file, "--binding", "Q=1") == (
        2, "parsed real algebra (dim=6)\nbinding error: unknown parameters: Q\n", ""
    )
    code, out, err = run(capsys, "check", h5_file, "--binding", "Q=1 R=2")
    assert (code, out) == (1, "")
    assert err.startswith("parse error: expected ';' or end of input")


def test_unknown_binding_name_is_a_validation_error(capsys, iwasawa_file, tmp_path):
    assert run(capsys, "table", iwasawa_file, "--binding", "Z=1") == (
        2, "", "validation error: unknown parameters: Z\n"
    )
    path = tmp_path / "j.txt"
    path.write_text("(0, 0, w1~1 + D*w2~2)\n", encoding="ascii")
    assert run(capsys, "skt", str(path), "--binding", "D=i; d=i") == (
        2, "", "validation error: unknown parameters: d\n"
    )
    code, out, _ = run(capsys, "check", str(path), "--binding", "D=i; Z=2")
    assert code == 2
    assert out.splitlines()[-1] == "binding error: unknown parameters: Z"


def test_curves_all_pass(capsys):
    code, out, _ = run(capsys, "curves")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("pass") == 9


def test_curves_failing_point_exit_code(capsys, monkeypatch):
    curve = cat.curve_by_id("A")
    point = curve.points[0]._replace(expected={**curve.points[0].expected, "h_bc(3,1)": 4})
    curves = list(cat._CURVES)
    curves[curves.index(curve)] = curve._replace(points=[point, *curve.points[1:]])
    monkeypatch.setattr(cat, "_CURVES", curves)
    for fmt in ("md", "csv"):
        code, out, _ = run(capsys, "curves", "--id", "A", "--format", fmt)
        assert code == 3
        assert "FAIL" in out
    code, out, _ = run(capsys, "curves", "--id", "A", "--format", "json")
    assert code == 3
    assert [p["match"] for p in json.loads(out)["points"]] == [False, True, True]


def test_figure_data_rows(capsys):
    code, out, _ = run(capsys, "figure-data")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "case_id,Delta1,Delta2,Delta3"
    assert "08,2,6,8" in lines
    assert "00,0,0,0" in lines
    assert "20b,2,9,12" in lines
    assert len(lines) == 52


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "catalog", "--dim", "5")
    assert code == 1


# exact layouts: separators, spacing and column order are part of the output

_GRID_ZERO = """\
| p\\q | 0 | 1 | 2 | 3 |
|---|---|---|---|---|
| 0 | 0 | 0 | 0 | 0 |
| 1 | 0 | 0 | 0 | 0 |
| 2 | 0 | 0 | 0 | 0 |
| 3 | 0 | 0 | 0 | 0 |
"""

IWASAWA_TABLE_MD = f"""\
## Cohomology table (n = 3)

### bott_chern

| p\\q | 0 | 1 | 2 | 3 |
|---|---|---|---|---|
| 0 | 1 | 2 | 3 | 1 |
| 1 | 2 | 4 | 6 | 2 |
| 2 | 3 | 6 | 8 | 3 |
| 3 | 1 | 2 | 3 | 1 |

### aeppli

| p\\q | 0 | 1 | 2 | 3 |
|---|---|---|---|---|
| 0 | 1 | 3 | 2 | 1 |
| 1 | 3 | 8 | 6 | 3 |
| 2 | 2 | 6 | 4 | 2 |
| 3 | 1 | 3 | 2 | 1 |

### dolbeault

| p\\q | 0 | 1 | 2 | 3 |
|---|---|---|---|---|
| 0 | 1 | 2 | 2 | 1 |
| 1 | 3 | 6 | 6 | 3 |
| 2 | 3 | 6 | 6 | 3 |
| 3 | 1 | 2 | 2 | 1 |

### del

| p\\q | 0 | 1 | 2 | 3 |
|---|---|---|---|---|
| 0 | 1 | 3 | 3 | 1 |
| 1 | 2 | 6 | 6 | 2 |
| 2 | 2 | 6 | 6 | 2 |
| 3 | 1 | 3 | 3 | 1 |

### a

{_GRID_ZERO}
### f

{_GRID_ZERO}
betti: 1 4 8 10 8 4 1
delta: 0 2 6 8 6 2 0
ddbar-lemma: FAILS at k=1
"""


def test_table_markdown_layout(capsys, iwasawa_file):
    code, out, _ = run(capsys, "table", iwasawa_file, "--format", "md")
    assert code == 0
    assert out == IWASAWA_TABLE_MD


IWASAWA_TABLE_CSV = """\
theory,p,q,value
bott_chern,0,0,1
bott_chern,0,1,2
bott_chern,0,2,3
bott_chern,0,3,1
bott_chern,1,0,2
bott_chern,1,1,4
bott_chern,1,2,6
bott_chern,1,3,2
bott_chern,2,0,3
bott_chern,2,1,6
bott_chern,2,2,8
bott_chern,2,3,3
bott_chern,3,0,1
bott_chern,3,1,2
bott_chern,3,2,3
bott_chern,3,3,1
aeppli,0,0,1
aeppli,0,1,3
aeppli,0,2,2
aeppli,0,3,1
aeppli,1,0,3
aeppli,1,1,8
aeppli,1,2,6
aeppli,1,3,3
aeppli,2,0,2
aeppli,2,1,6
aeppli,2,2,4
aeppli,2,3,2
aeppli,3,0,1
aeppli,3,1,3
aeppli,3,2,2
aeppli,3,3,1
dolbeault,0,0,1
dolbeault,0,1,2
dolbeault,0,2,2
dolbeault,0,3,1
dolbeault,1,0,3
dolbeault,1,1,6
dolbeault,1,2,6
dolbeault,1,3,3
dolbeault,2,0,3
dolbeault,2,1,6
dolbeault,2,2,6
dolbeault,2,3,3
dolbeault,3,0,1
dolbeault,3,1,2
dolbeault,3,2,2
dolbeault,3,3,1
del,0,0,1
del,0,1,3
del,0,2,3
del,0,3,1
del,1,0,2
del,1,1,6
del,1,2,6
del,1,3,2
del,2,0,2
del,2,1,6
del,2,2,6
del,2,3,2
del,3,0,1
del,3,1,3
del,3,2,3
del,3,3,1
a,0,0,0
a,0,1,0
a,0,2,0
a,0,3,0
a,1,0,0
a,1,1,0
a,1,2,0
a,1,3,0
a,2,0,0
a,2,1,0
a,2,2,0
a,2,3,0
a,3,0,0
a,3,1,0
a,3,2,0
a,3,3,0
f,0,0,0
f,0,1,0
f,0,2,0
f,0,3,0
f,1,0,0
f,1,1,0
f,1,2,0
f,1,3,0
f,2,0,0
f,2,1,0
f,2,2,0
f,2,3,0
f,3,0,0
f,3,1,0
f,3,2,0
f,3,3,0
betti,0,,1
betti,1,,4
betti,2,,8
betti,3,,10
betti,4,,8
betti,5,,4
betti,6,,1
delta,0,,0
delta,1,,2
delta,2,,6
delta,3,,8
delta,4,,6
delta,5,,2
delta,6,,0
ddbar_lemma,,,FAILS at k=1
"""


def test_table_csv_layout(capsys, iwasawa_file):
    code, out, _ = run(capsys, "table", iwasawa_file, "--format", "csv")
    assert code == 0
    assert out == IWASAWA_TABLE_CSV


def test_catalog_csv_layout_with_footnote(capsys):
    code, out, _ = run(capsys, "catalog", "--case", "11", "--format", "csv")
    assert code == 0
    assert out == (
        "id,algebra,skt,h_bc(1.0),h_bc(0.1),h_bc(2.0),h_bc(1.1),h_bc(0.2),"
        "h_bc(3.0),h_bc(2.1),h_bc(1.2),h_bc(0.3),h_bc(3.1),h_bc(2.2),h_bc(1.3),"
        "h_bc(3.2),h_bc(2.3),b1,b2,b3,delta1,delta2,delta3\n"
        '11,"(0,0,0,12,13,23)",0,1,1,2,5,2,1,6,6,1,2,5,2,3,3,3,8,12,2,2,4\n'
        f"# {cli.H7_FOOTNOTE}\n"
    )


def test_curves_markdown_layout(capsys):
    code, out, _ = run(capsys, "curves", "--id", "A", "--format", "md")
    assert code == 0
    assert out == (
        "| curve | point | computed | expected | ok |\n"
        "|---|---|---|---|---|\n"
        "| A | t=0 | h_bc(3,1)=3; pluriclosed=true "
        "| h_bc(3,1)=3; pluriclosed=true | pass |\n"
        "| A | t=1/2 | h_bc(3,1)=2; pluriclosed=true "
        "| h_bc(3,1)=2; pluriclosed=true | pass |\n"
        "| A | t=1 | h_bc(3,1)=2; pluriclosed=true "
        "| h_bc(3,1)=2; pluriclosed=true | pass |\n"
    )


def test_curves_csv_layout(capsys):
    code, out, _ = run(capsys, "curves", "--id", "A", "--format", "csv")
    assert code == 0
    assert out == (
        "curve,point,binding,computed,expected,match\n"
        "A,t=0,\"t=0; E=i\",\"h_bc(3,1)=3; pluriclosed=true\","
        "\"h_bc(3,1)=3; pluriclosed=true\",pass\n"
        "A,t=1/2,\"t=1/2; E=1/4+i\",\"h_bc(3,1)=2; pluriclosed=true\","
        "\"h_bc(3,1)=2; pluriclosed=true\",pass\n"
        "A,t=1,\"t=1; E=1+i\",\"h_bc(3,1)=2; pluriclosed=true\","
        "\"h_bc(3,1)=2; pluriclosed=true\",pass\n"
    )


# `catalog --golden` over both dimensions with the golden h_bc(1,1) of row 08
# raised by one, as in test_catalog_golden_mismatch_exit_code.  The expected
# rows are written from the stored golden fields, which every other row
# matches; row 08 keeps its computed h_bc(1,1) = 4 and fails.

_HEADER_6D = ("id,algebra,skt,h_bc(1.0),h_bc(0.1),h_bc(2.0),h_bc(1.1),h_bc(0.2),h_bc(3.0),"
              "h_bc(2.1),h_bc(1.2),h_bc(0.3),h_bc(3.1),h_bc(2.2),h_bc(1.3),h_bc(3.2),"
              "h_bc(2.3),b1,b2,b3,delta1,delta2,delta3,match")
_HEADER_8D = ("id,algebra,skt,h_bc(1.0),h_bc(2.0),h_bc(1.1),h_bc(3.0),h_bc(2.1),h_bc(4.0),"
              "h_bc(3.1),h_bc(2.2),h_bc(4.1),h_bc(3.2),h_bc(4.2),h_bc(3.3),h_bc(4.3),"
              "b1,b2,b3,b4,delta1,delta2,delta3,delta4,match")
_MD_HEADER_6D = ("| id | skt | (1.0) | (0.1) | (2.0) | (1.1) | (0.2) | (3.0) | (2.1) | (1.2) "
                 "| (0.3) | (3.1) | (2.2) | (1.3) | (3.2) | (2.3) | b | delta | golden |")
_MD_HEADER_8D = ("| id | skt | (1.0) | (2.0) | (1.1) | (3.0) | (2.1) | (4.0) | (3.1) | (2.2) "
                 "| (4.1) | (3.2) | (4.2) | (3.3) | (4.3) | b | delta | golden |")


@pytest.fixture
def row_08_tampered(monkeypatch, all_cases, tables):
    by_structure = {id(case.structure): tables[case.id] for case in all_cases}
    tampered = []
    for case in all_cases:
        if case.id == "08":
            case = case._replace(golden_bc={**case.golden_bc, (1, 1): 5})
            by_structure[id(case.structure)] = tables["08"]
        tampered.append(case)
    monkeypatch.setattr(cat, "_load_cases", lambda: tuple(tampered))
    monkeypatch.setattr(co, "full_table", lambda cs: by_structure[id(cs)])
    return all_cases  # untampered


def _golden_cells(case):
    """The stored, untampered golden fields of ``case`` as cell texts."""
    return ([str(case.golden_bc[column]) for column in case.columns],
            map(str, case.golden_betti), map(str, case.golden_delta))


def test_catalog_golden_csv_over_both_dimensions(capsys, row_08_tampered):
    lines = {3: [_HEADER_6D], 4: [_HEADER_8D]}
    for case in row_08_tampered:
        bc, betti, delta = _golden_cells(case)
        lines[case.dim].append(",".join([
            case.id, f'"{case.algebra_text}"', "1" if case.golden_skt else "0", *bc,
            *betti, *delta, "FAIL" if case.id == "08" else "pass"]))
    assert [len(lines[3]), len(lines[4])] == [52, 22]
    code, out, err = run(capsys, "catalog", "--golden", "--format", "csv")
    assert (code, err) == (3, "")
    assert out == "\n".join(lines[3] + [""] + lines[4] + [f"# {cli.H7_FOOTNOTE}"]) + "\n"
    assert out.count("FAIL") == 1 and "\n\nid,algebra,skt,h_bc(1.0),h_bc(2.0)," in out
    assert "\n08,\"(0,0,0,0,13+42,14+23)\",0,2,2,3,4,3,1,6,6,1,2,8,2,3,3,4,8,10,2,6,8,FAIL\n" in out


def test_catalog_golden_markdown_over_both_dimensions(capsys, row_08_tampered):
    lines = {3: [_MD_HEADER_6D, "|" + "---|" * 19], 4: [_MD_HEADER_8D, "|" + "---|" * 18]}
    for case in row_08_tampered:
        bc, betti, delta = _golden_cells(case)
        lines[case.dim].append("| " + " | ".join([
            case.id, "yes" if case.golden_skt else "no", *bc, " ".join(betti), " ".join(delta),
            "FAIL" if case.id == "08" else "pass"]) + " |")
    lines[3].append("  mismatch 08: h_bc[1][1]: computed 4, golden 5")
    code, out, err = run(capsys, "catalog", "--golden")
    assert (code, err) == (3, "")
    assert out == "\n".join(lines[3] + [""] + lines[4] + ["", cli.H7_FOOTNOTE]) + "\n"
    assert ("| 08 | no | 2 | 2 | 3 | 4 | 3 | 1 | 6 | 6 | 1 | 2 | 8 | 2 | 3 | 3 "
            "| 4 8 10 | 2 6 8 | FAIL |\n") in out


def test_figure_data_is_the_golden_6d_deltas(capsys):
    # the text perfbench/setup_probe.py prints, read against the raw golden file
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden.txt"
    rows = ["case_id,Delta1,Delta2,Delta3"]
    for line in golden.read_text("ascii").splitlines():
        fields = line.split("|")
        if not line.startswith("#") and len(fields[6].split()) == 3:
            rows.append(",".join([fields[0], *fields[7].split()]))
    assert len(rows) == 52
    assert run(capsys, "figure-data") == (0, "\n".join(rows) + "\n", "")


@pytest.mark.parametrize("binding, message", [
    ("D=²", "expected digits (line 1, column 3)"),
    ("D=1+²i", "expected ';' or end of input (line 1, column 4)"),
    ("D=١", "expected digits (line 1, column 3)"),
    ("D=1/١", "malformed rational: expected a positive denominator (line 1, column 5)"),
])
def test_a_non_ascii_digit_is_a_parse_error(capsys, tmp_path, binding, message):
    # the grammar's digits are ASCII: a superscript two or an Arabic-Indic one
    # is neither read as a number nor a crash
    path = tmp_path / "d.txt"
    path.write_text("(0,0,w1~1+D*w2~2)\n", encoding="ascii")
    assert run(capsys, "table", str(path), "--binding", binding) == (
        1, "", f"parse error: {message}\n")


def test_a_binding_that_starts_with_a_minus_needs_the_equals_form(capsys, tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("(0,0,w1~1+D*w2~2)\n", encoding="ascii")
    code, out, err = run(capsys, "check", str(path), "--binding", "-D=1+i")
    assert (code, out) == (1, "")
    assert _is_usage_error(err.splitlines())
    assert err.endswith("\nerror: argument --binding: expected one argument\n")
    code, out, err = run(capsys, "check", str(path), "--binding=-D=1+i")
    assert (code, err) == (1, "parse error: expected an identifier (line 1, column 1)\n")


def _is_usage_error(lines):
    """argparse's usage block, wrapped to the terminal's width, and one error line."""
    return (len(lines) >= 2 and lines[0].startswith("usage: ") and lines[-1].startswith("error: ")
            and all(line.startswith(" ") for line in lines[1:-1]))


# A seeded single-edit fuzz of the catalog's templates and bindings through
# the command line, non-ASCII digits and letters among the edits.
_FUZZ_ALPHABET = "0123456789+-*/~()=;,^ iwDBEc_x²١é"


def _fuzz_edit(text, rng):
    k = rng.randrange(len(text) + 1)
    op, ch = rng.randrange(3), rng.choice(_FUZZ_ALPHABET)
    if op == 0 or k == len(text):
        return text[:k] + ch + text[k:]
    return text[:k] + (ch if op == 1 else "") + text[k + 1:]


def test_cli_fuzz_exits_with_one_line_and_no_traceback(capsys, tmp_path, all_cases):
    rng = random.Random(2016)
    files, codes = {}, set()
    for _ in range(600):
        case = rng.choice(all_cases)
        template, binding = case.template_text, case.binding_text
        if rng.random() < 0.5:
            template = _fuzz_edit(template, rng)
        else:
            binding = _fuzz_edit(binding, rng)
        if template not in files:
            files[template] = tmp_path / f"{len(files)}.txt"
            files[template].write_text(template + "\n", encoding="utf-8")
        argv = [rng.choice(("table", "check", "skt")), str(files[template]), "--binding", binding]
        try:
            code, _, err = run(capsys, *argv)
        except Exception as exc:  # a traceback at the command line
            raise AssertionError(f"{argv} with template {template!r} raised {exc!r}")
        codes.add(code)
        assert code in (0, 1, 2), (argv, template)
        assert "Traceback" not in err, (argv, template)
        lines = err.splitlines()
        assert len(lines) <= 1 or _is_usage_error(lines), (argv, template, err)
        assert code or not err, (argv, template, err)
    assert codes == {0, 1, 2}


def _with_stdout_closed(read_line, unbuffered):
    """Run ``catalog --dim 3`` in a child whose stdout pipe this side closes,
    right away or after one line; its exit code and stderr."""
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    child = subprocess.Popen([sys.executable, "-m", "nilcohom.cli", "catalog", "--dim", "3"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    if read_line:
        assert child.stdout.readline().startswith(b"| id |")
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    return child.wait(timeout=60), err.decode()


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_closed_stdout_exits_1_with_no_traceback(unbuffered):
    # closed before the child writes: its write fails, with a buffer or not
    code, err = _with_stdout_closed(False, unbuffered)
    assert (code, err) == (1, "")
    # as `| head -1`: the rest of the write may fail or may already be in the pipe
    code, err = _with_stdout_closed(True, unbuffered)
    assert code in (0, 1) and err == "", err
