"""Acceptance gate: every criterion at its stated (zero) tolerance.

Each test prints one ``ACCEPTANCE n: PASS/FAIL`` line (visible with ``-s``);
all comparisons are exact integer or exact rational equalities.
"""

import io
import random
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction

from nilcohom import catalog as cat
from nilcohom import cli
from nilcohom import metrics as me
from nilcohom.algebra import BasisElement, Form, Gaussian
from nilcohom.cohomology import differential_identities_ok
from nilcohom.linalg import exact_rank
from nilcohom.model import instantiate
from nilcohom.parser import parse_binding, parse_complex_structure, parse_gaussian
from rank_oracle import matrix_from_grid, oracle_rank


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_criterion_1_golden_table_6d():
    with criterion(1, "all 6-dimensional golden rows reproduce exactly (<10s)"):
        start = time.time()
        results = [cat.evaluate(case.id) for case in cat.list_cases(3)]
        elapsed = time.time() - start
        failures = {r.case.id: r.diffs for r in results if not r.ok}
        assert failures == {}
        assert len(results) == 51
        assert elapsed < 10.0, f"6d sweep took {elapsed:.1f}s"
        with redirect_stdout(io.StringIO()) as sink:
            assert cli.main(["catalog", "--dim", "3", "--golden", "--format", "csv"]) == 0
        assert sink.getvalue().count("pass") == 51


def test_criterion_2_golden_table_8d():
    with criterion(2, "all 8-dimensional golden rows reproduce exactly (<30s)"):
        start = time.time()
        results = [cat.evaluate(case.id) for case in cat.list_cases(4)]
        elapsed = time.time() - start
        failures = {r.case.id: r.diffs for r in results if not r.ok}
        assert failures == {}
        assert len(results) == 21
        assert elapsed < 30.0, f"8d sweep took {elapsed:.1f}s"
        with redirect_stdout(io.StringIO()) as sink:
            assert cli.main(["catalog", "--dim", "4", "--golden", "--format", "csv"]) == 0
        assert sink.getvalue().count("pass") == 21


# (template, [(binding, expected coefficient of w12~1~2)]) for each family row
_DDBAR_ROWS = [
    ("(0,0,w1~1+D*w2~2)",
     [("D=i", "0"), ("D=1+i", "2"), ("D=-1/2+i", "-1")]),
    ("(0,0,w12+w1~1+w1~2+D*w2~2)",
     [("D=1+i", "0"), ("D=2+i", "2"), ("D=1/4+1/2i", "-3/2")]),
    ("(0,0,w1~1+w1~2+1/4*w2~2)", [("", "-1/2")]),
    ("(0,0,w12+w1~1+w1~2+D*w2~2)",
     [("D=1", "0"), ("D=2", "2"), ("D=-2", "-6")]),
    ("(0,0,w1~1+w1~2+D*w2~2)",
     [("D=0", "-1"), ("D=1/8", "-3/4"), ("D=1/5", "-3/5")]),
    ("(0,0,w12)", [("", "-1")]),
    ("(0,0,w12+w1~1+lambda*w1~2+D*w2~2)",
     [("lambda=0; D=1/2", "0"), ("lambda=1/2; D=1/16i", "-5/4"),
      ("lambda=0; D=1+1/2i", "1")]),
    ("(0,0,w1~1)", [("", "0")]),
]


def test_criterion_3_standard_form_ddbar_coefficients():
    with criterion(3, "ddbar of the standard form matches every family row"):
        top = BasisElement((1, 2), (1, 2))
        std = me.standard_form(3)
        for template_text, samples in _DDBAR_ROWS:
            template = parse_complex_structure(template_text)
            for binding_text, coeff_text in samples:
                cs = instantiate(template, parse_binding(binding_text))
                coeff = parse_gaussian(coeff_text)
                expected = Form.single(top, coeff) if coeff else Form()
                assert me.ddbar_of(cs, std) == expected, (template_text, binding_text)


def test_criterion_4_skt_classification():
    with criterion(4, "pluriclosed existence holds in exactly the seven classes"):
        assert cat.skt_scan(3) == ["00", "01b", "02b", "06b", "09b'", "09c", "12"]
        assert cat.skt_scan(4) == [
            "00_8D", "01b_8D", "02b_8D", "06b_8D", "09b'_8D", "09c_8D", "12_8D",
        ]
        assert cat.skt_scan(3, algebra="(0,0,0,0,0,12+34)") == []


def test_criterion_5_property_suite(all_cases, structures, tables):
    with criterion(5, "differential and duality identities hold for every case"):
        for case in all_cases:
            cs = structures[case.id]
            table = tables[case.id]
            n = table.n
            assert differential_identities_ok(cs), case.id
            for p in range(n + 1):
                for q in range(n + 1):
                    assert table.h_bc[p][q] == table.h_bc[q][p], case.id
                    assert table.h_aeppli[p][q] == table.h_aeppli[q][p], case.id
                    assert table.h_dolbeault[p][q] == table.h_del[q][p], case.id
                    assert table.h_bc[p][q] == table.h_aeppli[n - p][n - q], case.id
                    assert table.a_dim[p][q] == table.f_dim[n - p][n - q], case.id
            chi = table.euler_characteristic()
            assert chi == 0, case.id
            for k in range(2 * n + 1):
                assert table.delta[k] >= 0, case.id
                if k % 2 == 1:
                    assert table.delta[k] % 2 == 0, case.id
                level = (table.level("h_bc", k) + table.level("h_aeppli", k))
                varouchas = (2 * table.level("h_dolbeault", k)
                             + table.level("a_dim", k) + table.level("f_dim", k))
                assert level == varouchas, case.id
                assert table.level("h_dolbeault", k) >= table.betti[k], case.id
            if n % 2 == 1:
                assert table.delta[n] % 4 == 0, case.id
            euler_b = (-1) ** n * chi + 2 * sum(
                (-1) ** (n - k - 1) * table.betti[k] for k in range(n)
            )
            assert table.betti[n] == euler_b, case.id
            chi_dolbeault = sum(
                (-1) ** k * table.level("h_dolbeault", k) for k in range(2 * n + 1)
            )
            euler_h = (-1) ** n * chi_dolbeault + 2 * sum(
                (-1) ** (n - k - 1) * table.level("h_dolbeault", k) for k in range(n)
            )
            assert table.level("h_dolbeault", n) == euler_h, case.id


def test_criterion_6_abelianity_iff_delta3_vanishes(all_cases, tables):
    with criterion(6, "the underlying algebra is abelian iff delta(3) = 0 (6d)"):
        for case in all_cases:
            if case.dim != 3:
                continue
            abelian = case.real_algebra.is_abelian()
            assert abelian == (tables[case.id].delta[3] == 0), case.id


def test_criterion_7_deformation_jumps():
    with criterion(7, "the three deformation curves jump exactly as stated"):
        curve_a = {r.label: r for r in cat.evaluate_curve("A")}
        assert curve_a["t=0"].computed["h_bc(3,1)"] == 3
        assert curve_a["t=1/2"].computed["h_bc(3,1)"] == 2
        assert curve_a["t=1"].computed["h_bc(3,1)"] == 2
        assert all(r.computed["pluriclosed"] for r in curve_a.values())
        curve_b = {r.label: r for r in cat.evaluate_curve("B")}
        assert curve_b["t=0"].computed["h_bc(2,2)"] == 8
        assert curve_b["t=1/4"].computed["h_bc(2,2)"] == 7
        assert curve_b["t=1/2"].computed["h_bc(2,2)"] == 7
        assert all(r.computed["pluriclosed"] for r in curve_b.values())
        curve_c = {r.label: r for r in cat.evaluate_curve("C")}
        assert curve_c["D=1/8"].computed["balanced"] is True
        assert curve_c["D=1"].computed["pluriclosed"] is True
        assert curve_c["D=1/4"].computed == {"balanced": False, "pluriclosed": False}
        # the D=1/4 negative verdict, re-checked over the standard form and
        # twenty seeded random positive forms
        template = parse_complex_structure("(0,0,w12+w1~1+w1~2+D*w2~2)")
        cs = instantiate(template, parse_binding("D=1/4"))
        forms = [me.standard_form(3)] + me.random_positive_forms(3, 20, seed=20)
        for h in forms:
            assert not me.is_pluriclosed(cs, h)
            assert not me.is_balanced(cs, h)


_SKT_CANDIDATE_ALGEBRAS = {
    "(0,0,0,0,0,0)",
    "(0,0,0,0,12,34)",
    "(0,0,0,0,12,14+23)",
    "(0,0,0,0,13+42,14+23)",
    "(0,0,0,0,0,12)",
}


def test_criterion_8_metric_independence(all_cases, structures):
    with criterion(8, "the pluriclosed verdict is metric-independent (6d)"):
        covered = 0
        for case in all_cases:
            if case.dim != 3 or case.algebra_text not in _SKT_CANDIDATE_ALGEBRAS:
                continue
            covered += 1
            cs = structures[case.id]
            standard_verdict = me.is_pluriclosed(cs, me.standard_form(3))
            for h in me.random_positive_forms(3, 20, seed=8):
                assert me.is_pluriclosed(cs, h) == standard_verdict, case.id
        assert covered == 21


def test_criterion_9_rank_oracle_equivalence():
    with criterion(9, "exact_rank agrees with a naive oracle on 1000 matrices"):
        rng = random.Random(99)
        for trial in range(1000):
            rows = rng.randint(1, 12)
            cols = rng.randint(1, 12)
            density = rng.choice((0.3, 0.6, 0.9))
            entries = []
            for _ in range(rows):
                row = []
                for _ in range(cols):
                    if rng.random() > density:
                        row.append(Gaussian.of(0))
                    else:
                        row.append(Gaussian.of(
                            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                        ))
                entries.append(row)
            m = matrix_from_grid(entries)
            assert exact_rank(m.rows, m.columns) == oracle_rank(entries), f"trial {trial}"
