import random
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from nilcohom import cohomology as co, model
from nilcohom.algebra import BasisElement, Form, Gaussian, ONE, ZERO
from nilcohom.linalg import exact_rank
from nilcohom.model import ComplexStructure, instantiate, substitute
from nilcohom.parser import parse_binding, parse_complex_structure
from rank_oracle import grid_of, matrix_from_grid, reference_rank
from scale_oracle import (d_block, grid_product, reference_matrices, reference_ranks, scaled,
                          structure_scale)
from test_model import SMALL_GAUSSIAN, triangular_structures


def build(template, binding=""):
    return instantiate(parse_complex_structure(template), parse_binding(binding))


@pytest.fixture(scope="module")
def torus():
    return build("(0,0,0)")


@pytest.fixture(scope="module")
def iwasawa():
    return build("(0,0,w12)")


@pytest.fixture(scope="module")
def h8():
    return build("(0,0,w1~1)")


def test_component_matrix_examples(torus, iwasawa, h8):
    # a zero block is one of rank 0
    assert co._ranks(torus)["del", 1, 1] == 0
    assert co._ranks(torus)["delbar", 2, 1] == 0
    assert co._ranks(iwasawa)["delbar", 1, 0] == 0
    assert co._ranks(iwasawa)["del", 1, 0] == 1
    assert co._ranks(h8)["del", 1, 0] == 0
    assert co._ranks(h8)["delbar", 1, 0] == 1


def test_deldelbar_on_torus_and_scalars(torus, iwasawa):
    assert co._ranks(torus)["dd", 1, 1] == 0
    assert co._ranks(iwasawa)["dd", 0, 0] == 0


def _matrices(cs):
    """The structure's ``L * d`` in every total degree 0 .. 2n."""
    return [cs.matrix(k) for k in range(2 * cs.n + 1)]


def test_full_table_calls_no_d_and_builds_each_degree_once(monkeypatch):
    # the table reads the structure's matrices; each is built on first use,
    # from the Leibniz table, and read from then on
    cs = build("(0,0,w12+w1~1)")
    built = []
    leibniz = model.leibniz

    def counted(holo, anti, k, *position):
        built.append(k)
        return leibniz(holo, anti, k, *position)

    def no_d(self, f):
        raise AssertionError(f"full_table applied d to {f}")

    monkeypatch.setattr(model, "leibniz", counted)
    monkeypatch.setattr(ComplexStructure, "d", no_d)
    first = co.full_table(cs)
    # one Leibniz list per constant and side (w^j and wbar^j) in each degree
    # built; degree 2 was built at construction, for the d^2 check
    per_degree = 2 * sum(len(f.terms) for f in cs.d_omega)
    assert Counter(built) == {k: per_degree for k in range(2 * cs.n + 1) if k != 2}
    built.clear()
    assert co.full_table(cs) == first and co.differential_identities_ok(cs)
    assert built == []


def _ranked_columns(monkeypatch, structures):
    """Per structure (the two templates, rows 08 and 12_8D): the structure and
    the column list of every matrix ``full_table`` hands to ``exact_rank``."""
    ranked = []
    rank = co.exact_rank

    def counted(rows, columns, pivots=None):
        ranked.append(columns)  # held, so no column's id is reused
        return rank(rows, columns, pivots)

    monkeypatch.setattr(co, "exact_rank", counted)
    for cs in (build("(0,0,w12+w1~1)"), build("(0,0,w1~1,w12+w1~3)"),
               structures["08"], structures["12_8D"]):
        ranked.clear()
        co.full_table(cs)
        yield cs, list(ranked)


def test_full_table_eliminates_each_slot_of_d_once(monkeypatch, structures):
    # d on a (p,q) slot is ranked once, as a whole; the del, delbar and dd
    # ranks are read off its pivots, so no other call sees a column of d.
    # The other calls get only what eliminations put out: per slot, the del
    # parts (del), the delbar parts (dd and concat) of its delbar-led pivots,
    # and its pivots (total)
    for cs, ranked in _ranked_columns(monkeypatch, structures):
        n, ranks = cs.n, co._ranks(cs)
        seen = [[id(v) for v in columns] for columns in ranked]
        slots = []
        for k in range(2 * n + 1):
            d = cs.matrix(k)
            for p in co._slots(n, k):
                lo, size = co._layout(n)[p, k - p]
                slot = [id(v) for v in d.columns[lo:lo + size]]
                hits = [ids for ids in seen if set(ids) & set(slot)]
                assert hits == ([slot] if any(d.columns[lo:lo + size]) else []), (n, p, k - p)
                slots += hits
        outputs = sum(3 * ranks["delbar", p, q] + ranks["stack", p, q]
                      for p in range(n + 1) for q in range(n + 1))
        assert sum(map(len, seen)) - sum(map(len, slots)) <= outputs, n


def test_ranks_match_the_reference_elimination_on_the_catalog(monkeypatch, structures):
    # _ranks reads del and delbar off which rows lead the pivots, so the
    # kernel's shortcuts must leave every pivot as the textbook step makes it
    expected = {cid: co._ranks(cs) for cid, cs in structures.items()}
    monkeypatch.setattr(co, "exact_rank", reference_rank)
    assert {cid: co._ranks(cs) for cid, cs in structures.items()} == expected


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(triangular_structures())
def test_ranks_match_the_reference_elimination_beyond_the_catalog(cs):
    expected = co._ranks(cs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(co, "exact_rank", reference_rank)
        assert co._ranks(cs) == expected


def test_full_table_eliminates_no_matrix_without_a_nonzero_column(monkeypatch, structures):
    # a rank with nothing to eliminate is 0, or the count of the pivots it
    # would resume from, and costs no call
    for cs, ranked in _ranked_columns(monkeypatch, structures):
        assert ranked and all(any(columns) for columns in ranked), cs.n


def test_the_plan_holds_exactly_the_ranks_the_table_holds(structures):
    # the plan drops every key the rank table lacks, so a key it dropped
    # wrongly would read as a rank of 0
    for cs in (build("(0)"), build("(0,w1~1)"), structures["08"], structures["12_8D"]):
        n, ranks = cs.n, co._ranks(cs)
        span = range(n + 1)
        grids, betti = co._plan(n)
        cells = [cell for rows in grids.values() for row in rows for cell in row] + betti
        planned = {key for _, terms in cells for _, key in terms}
        assert planned <= ranks.keys(), n
        named = {(kind, p + dp, q + dq) for _, _, _, terms in co.THEORIES
                 for _, kind, dp, dq in terms for p in span for q in span}
        named |= {("total", k + dk) for k in range(2 * n + 1) for dk in (0, -1)}
        assert named & ranks.keys() <= planned, n
        assert [len(rows) for rows in grids.values()] == [n + 1] * len(co.THEORIES)
        assert len(betti) == 2 * n + 1


def test_matrix_identities(iwasawa, h8, monkeypatch):
    assert co.differential_identities_ok(iwasawa)
    assert co.differential_identities_ok(h8)
    # with the constructor's d^2 check switched off, (0, w1~3, w12) is built,
    # and its d(d w^2) != 0 shows in the matrices
    monkeypatch.setattr(model, "check_d_squared", lambda cs: model.ValidationReport())
    assert not co.differential_identities_ok(build("(0, w1~3, w12)"))


def test_dolbeault_examples(torus, iwasawa, tables):
    table = co.full_table(torus)
    for p in range(4):
        for q in range(4):
            assert table.h_dolbeault[p][q] == comb(3, p) * comb(3, q)
    assert co.full_table(iwasawa).h_dolbeault[0][1] == 2
    for table in (tables["00"], tables["08"], tables["12"], tables["12_8D"]):
        assert table.h_dolbeault[0][0] == 1


def test_bott_chern_examples(torus, iwasawa, h8):
    assert co.full_table(torus).h_bc[1][1] == 9
    iwa = co.full_table(iwasawa)
    assert iwa.h_bc[1][1] == 4
    assert iwa.h_bc[2][0] == 3
    assert iwa.h_bc[2][2] == 8
    h8_table = co.full_table(h8)
    assert h8_table.h_bc[1][1] == 6
    assert h8_table.h_bc[2][1] == 7


def test_aeppli_examples(torus, iwasawa, tables):
    assert co.full_table(torus).h_aeppli[1][1] == 9
    assert co.full_table(iwasawa).h_aeppli[1][1] == 8
    for cid in ("00", "08", "12", "13", "23", "12_8D"):
        table = tables[cid]
        assert table.h_aeppli[table.n][table.n] == 1


def test_a_and_f_vanish_on_torus(torus):
    table = co.full_table(torus)
    for p in range(4):
        for q in range(4):
            assert table.a_dim[p][q] == 0
            assert table.f_dim[p][q] == 0


def test_betti_examples(torus, iwasawa):
    assert co.full_table(torus).betti == [1, 6, 15, 20, 15, 6, 1]
    iwa = co.full_table(iwasawa)
    assert iwa.betti[1:4] == [4, 8, 10]
    assert iwa.betti[0] == 1


def test_delta_examples(torus, iwasawa):
    assert co.full_table(torus).delta == [0] * 7
    iwa = co.full_table(iwasawa)
    assert iwa.delta[1:4] == [2, 6, 8]
    assert iwa.delta[0] == 0


def test_full_table_spot_values(tables):
    t20b = tables["20b"]
    assert t20b.h_bc[2][0] == 2 and t20b.delta[2] == 9
    t11 = tables["11"]
    assert t11.h_bc[1][0] == 1 and t11.delta[1:4] == [2, 2, 4]
    t12_8d = tables["12_8D"]
    assert t12_8d.delta[1:5] == [0, 2, 8, 12]


def test_lemma_status(tables):
    torus = co.ddbar_lemma_status(tables["00"])
    assert torus.satisfied and torus.witness is None
    iwa = co.ddbar_lemma_status(tables["08"])
    assert not iwa.satisfied and iwa.witness == 1
    h8 = co.ddbar_lemma_status(tables["12"])
    assert not h8.satisfied and h8.witness == 2


def _lemma_from_delta(table):
    witness = next((k for k, d in enumerate(table.delta) if d), None)
    return {"verdict": "FAILS" if witness is not None else "SATISFIED", "witness": witness}


def test_the_lemma_verdict_claims_nothing_beyond_delta(tables):
    # 02a, 06a and 09a (delta 0 2 0 8 0 2 0) once also reported a "parity
    # sufficient condition" for the lemma, next to their failing verdict
    for case_id, table in tables.items():
        assert co.ddbar_lemma_status(table).as_dict() == _lemma_from_delta(table), case_id
    assert _lemma_from_delta(tables["02a"]) == {"verdict": "FAILS", "witness": 1}


def test_delta_degree_symmetry(tables):
    # delta is symmetric about the middle degree: delta[k] == delta[2n-k]
    for table in tables.values():
        for k in range(2 * table.n + 1):
            assert table.delta[k] == table.delta[2 * table.n - k]


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(triangular_structures())
def test_identities_beyond_the_catalog(cs):
    # none of these follows from the formula table: each ties ranks of
    # different matrices, or the table to the total complex
    table = co.full_table(cs)
    n = table.n
    for p in range(n + 1):
        for q in range(n + 1):
            assert table.h_bc[p][q] == table.h_bc[q][p]
            assert table.h_bc[p][q] == table.h_aeppli[n - p][n - q]
            assert table.a_dim[p][q] == table.f_dim[n - p][n - q]
            assert table.h_dolbeault[p][q] == table.h_del[q][p]
    for k in range(2 * n + 1):
        varouchas = (2 * table.level("h_dolbeault", k)
                     + table.level("a_dim", k) + table.level("f_dim", k))
        assert table.level("h_bc", k) + table.level("h_aeppli", k) == varouchas
        assert table.delta[k] >= 0
        assert table.delta[k] == table.delta[2 * n - k]
        assert k % 2 == 0 or table.delta[k] % 2 == 0
        assert table.level("h_dolbeault", k) >= table.betti[k]
    assert model.realify(cs).betti() == table.betti
    assert co.ddbar_lemma_status(table).as_dict() == _lemma_from_delta(table)


def _sheared(m, i, j, c):
    """``m @ (I + c E_ij)``: column j gains c times column i."""
    return [[x + c * row[i] if k == j else x for k, x in enumerate(row)] for row in m]


def _random_coframe_change(rng, n):
    """A product A of six shears ``I + c E_ij``, c in Z[i], and its exact inverse."""
    shears = []
    while len(shears) < 6:
        c = Gaussian.of(rng.randint(-2, 2), rng.randint(-2, 2))
        if c:
            shears.append((*rng.sample(range(n), 2), c))
    a = b = [[ONE if r == k else ZERO for k in range(n)] for r in range(n)]
    for i, j, c in shears:
        a = _sheared(a, i, j, c)
    for i, j, c in reversed(shears):
        b = _sheared(b, i, j, -c)
    return a, b


def _in_a_random_coframe(rng, cs):
    """``cs`` written in the coframe ``eta = A w`` of a random change A.

    ``d eta = A d w``, written in eta by substituting ``w = A^-1 eta``.
    """
    n = cs.n
    a, b = _random_coframe_change(rng, n)
    holo = [Form([(BasisElement((k + 1,), ()), b[j][k]) for k in range(n)])
            for j in range(n)]
    anti = [Form([(BasisElement((), (k + 1,)), b[j][k].conjugate()) for k in range(n)])
            for j in range(n)]
    images = [substitute(f, holo, anti) for f in cs.d_omega]
    d_eta = [sum((images[j].scale(a[i][j]) for j in range(n)), Form())
             for i in range(n)]
    return ComplexStructure(n, d_eta)


def test_tables_are_invariant_under_a_change_of_coframe(all_cases, structures, tables):
    # the structure is the same in any coframe, so every dimension of its table is too
    rng = random.Random(10)
    for case in all_cases:
        cs = structures[case.id]
        changed = _in_a_random_coframe(rng, cs)
        assert changed != cs or not any(f.terms for f in cs.d_omega), case.id
        assert co.full_table(changed).as_dict() == tables[case.id].as_dict(), case.id


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(triangular_structures(), st.integers(0, 2 ** 32))
def test_tables_beyond_the_catalog_are_invariant_under_a_change_of_coframe(cs, seed):
    changed = _in_a_random_coframe(random.Random(seed), cs)
    assert co.full_table(changed).as_dict() == co.full_table(cs).as_dict()


def _assert_matches_the_glued_oracle(cs, label):
    # d in every degree against the Gaussian grid of the total complex, built
    # by the tuple oracle's d with no offset of the engine's; each stack rank
    # against the reference grid of d on its slot
    scale, d, grids = structure_scale(cs), _matrices(cs), reference_matrices(cs)
    ranks = co._ranks(cs)
    assert len(d) == 2 * cs.n + 1, label
    for k, m in enumerate(d):
        assert grid_of(m) == scaled(grids["total", k], scale), (label, k)
    for p in range(cs.n + 1):
        for q in range(cs.n + 1):
            m = matrix_from_grid(grids["d", p, q])
            assert ranks["stack", p, q] == exact_rank(m.rows, m.columns), (label, p, q)


def test_d_blocks_match_the_glued_oracle_on_the_catalog(structures):
    for case_id, cs in structures.items():
        _assert_matches_the_glued_oracle(cs, case_id)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(triangular_structures())
def test_d_blocks_match_the_glued_oracle_beyond_the_catalog(cs):
    _assert_matches_the_glued_oracle(cs, cs.d_omega)
    assert co.differential_identities_ok(cs)


def _assert_the_scale_contract(cs, label):
    # every matrix is L times the Gaussian one for the one L of the structure,
    # so each dd product is L^2 times the Gaussian product, d^2 stays zero and
    # every rank the table reads is the Gaussian matrix's
    scale, d, grids = structure_scale(cs), _matrices(cs), reference_matrices(cs)
    for k, m in enumerate(d):
        assert grid_of(m) == scaled(grids["total", k], scale), (label, k)
    for p in range(cs.n + 1):
        for q in range(cs.n):
            dd = grid_product(grids["del", p, q + 1], grids["delbar", p, q])
            product = d_block(d, cs.n, (p, q + 1), (p + 1, q + 1)) @ \
                d_block(d, cs.n, (p, q), (p, q + 1))
            assert grid_of(product) == scaled(dd, scale * scale), (label, p, q)
    assert co.differential_identities_ok(cs), label
    assert co._ranks(cs) == reference_ranks(cs, grids), label


def test_the_scale_contract_on_the_catalog_rows_with_fractional_constants(structures):
    scales = {case_id: structure_scale(cs) for case_id, cs in structures.items()}
    fractional = [case_id for case_id, scale in scales.items() if scale > 1]
    assert len(fractional) == 26
    assert {scales[case_id] for case_id in fractional} == {2, 4, 5, 8, 10, 25}
    for case_id in fractional:
        _assert_the_scale_contract(structures[case_id], case_id)


FRACTIONAL_GAUSSIAN = st.builds(lambda c, den: c / den, SMALL_GAUSSIAN,
                                st.sampled_from((1, 2, 3, 5)))


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(triangular_structures(FRACTIONAL_GAUSSIAN))
def test_the_scale_contract_beyond_the_catalog(cs):
    _assert_the_scale_contract(cs, cs.d_omega)


def test_ranks_of_6d_rows_in_a_random_coframe_match_the_oracle(all_cases, structures):
    # dense matrices, where the pivots' lead split and the resumed
    # eliminations meet full columns
    rng = random.Random(14)
    six_d = [case.id for case in all_cases if structures[case.id].n == 3]
    for case_id in rng.sample(six_d, 6):
        changed = _in_a_random_coframe(rng, structures[case_id])
        assert co._ranks(changed) == reference_ranks(changed), case_id
