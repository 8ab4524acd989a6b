import dataclasses
import json

import pytest

from nilcohom import catalog as cat
from nilcohom import cli


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


def test_check_non_jacobi_input(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("(0, w1~3, w12)\n", encoding="ascii")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 2
    assert "d-square FAILED" in out


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


def test_missing_file(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/file.txt")
    assert code == 1


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


def test_table_with_binding(capsys, tmp_path):
    path = tmp_path / "j.txt"
    path.write_text("(0, 0, w1~1 + D*w2~2)\n", encoding="ascii")
    code, out, _ = run(capsys, "table", str(path), "--binding", "D=i",
                       "--format", "csv")
    assert code == 0
    assert "bott_chern,2,2,7" in out.splitlines()


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


def test_catalog_unknown_case(capsys):
    code, _, err = run(capsys, "catalog", "--case", "zz")
    assert code == 1
    assert err == "error: no catalog case with id 'zz'\n"


def test_internal_key_error_is_not_a_usage_error(capsys, monkeypatch, iwasawa_file):
    def broken(cs):
        raise KeyError("bad index")

    monkeypatch.setattr(cli.co, "full_table", broken)
    with pytest.raises(KeyError, match="bad index"):
        cli.main(["table", iwasawa_file])


def test_catalog_golden_mismatch_exit_code(capsys, monkeypatch):
    cases = cat.list_cases()
    tampered = []
    for case in cases:
        if case.id == "08":
            bad = dict(case.golden_bc)
            bad[(1, 1)] += 1
            case = dataclasses.replace(case, golden_bc=bad, _cache={})
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


def test_curves_all_pass(capsys):
    code, out, _ = run(capsys, "curves")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("pass") == 9


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
