"""Packed F_p rows (linalg._packed) against the list-row bodies they stand in for.

bch_evaluate multiplies on packed right operands whenever a field holds the
products' entries, the construct walk packs its options from d =
reps._PACKED_FROM on, and the pointwise group-law check sums the table in one
packed product per point.  Each is compared with the path it replaced, kept in
tests/oracles.py, and bch_evaluate also with the per-word matmul chains of
test_bch; _matmul's packed method is compared with its list-row body.
"""

import random
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unirep import bch, reps
from unirep.bch import bch_components, bch_evaluate
from unirep.errors import UnirepError
from unirep.io import write_rep_file
from unirep.hopf import variable_pairs
from unirep.linalg import SquareMatrix, _field_code, _matmul, _Packed, _packed, scalar_matrix
from unirep.reps import ChiTable, Representation, construct_from_layers, verify_group_law_pointwise
from unirep.samples import random_layer_data, random_strict_upper

from oracles import (reference_construct_from_layers, reference_halves_evaluate,
                     reference_verify_group_law_pointwise)
from test_bch import F, random_element, reference_evaluate
from test_construct_walk import mode
from test_linalg import random_field_rows, reference_int_matmul

PRIMES = (0, 3, 5, 7, 11, 13, 2**31 - 1)


def outcome(evaluate, *args):
    """The result's text, or the type and text of what evaluating raised."""
    try:
        return str(evaluate(*args))
    except UnirepError as exc:
        return type(exc).__name__, str(exc)


def operands(d, p, kind, rng):
    """Two d x d matrices over F_p (Q at p = 0): strictly upper, full, or
    strictly upper with one of them zero."""
    if kind == "full":
        modulus = p or 7
        return [scalar_matrix([[rng.randrange(modulus) for _ in range(d)] for _ in range(d)], p)
                for _ in range(2)]
    x, y = random_strict_upper(d, p, rng), random_strict_upper(d, p, rng)
    return (x, x.zero_like()) if kind == "zero" and d else (x, y)


def components(d, p, kind, rng):
    """P_1..P_m for some m <= d (p may fail their audit), or a constant
    term with a mixed-length combination that is not Lie."""
    if kind == "series":
        return bch_components(rng.randint(1, max(1, min(d, 7))))
    denominators = tuple(q for q in (1, 2, 3, 4, 5) if p == 0 or q % p)
    return [F({(): Fraction(rng.randint(-9, 9), rng.choice(denominators))}),
            random_element(rng, lengths=range(1, d + 2), count=rng.randint(0, 12), denominators=denominators)]


class TestEvaluation:
    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 9), st.sampled_from(PRIMES), st.sampled_from(("strict", "full", "zero")),
           st.sampled_from(("series", "mixed")), st.randoms(use_true_random=False))
    def test_matches_the_halves_body_and_the_word_chains(self, d, p, kind, comps, rng):
        x, y = operands(d, p, kind, rng)
        cs = components(d, p, comps, rng)
        got = outcome(bch_evaluate, cs, x, y)
        assert got == outcome(reference_halves_evaluate, cs, x, y)
        if d and type(got) is str and max(c.max_degree() for c in cs) <= 7:  # the chains run no audit
            assert got == outcome(reference_evaluate, cs, x, y, p)

    @pytest.mark.parametrize("p", [p for p in PRIMES if p])
    def test_results_are_reduced_residues(self, p):
        rng = random.Random(p)
        x, y = random_strict_upper(6, p, rng), random_strict_upper(6, p, rng)
        got = bch_evaluate(bch_components(5 if p > 5 else 2), x, y)
        assert all(type(v.value) is int and 0 <= v.value < p for row in got.entries for v in row)
        assert got == reference_halves_evaluate(bch_components(5 if p > 5 else 2), x, y)

    def test_zero_by_zero(self):
        empty = SquareMatrix([])
        for cs in (bch_components(3), [F({(): 2})], []):
            assert bch_evaluate(cs, empty, empty).size == 0


class TestPlanCache:
    def test_only_the_cached_component_tuples_are_kept(self, monkeypatch):
        planned = []
        plan = bch._plan
        monkeypatch.setattr(bch, "_plan", lambda cs, p: planned.append(cs) or plan(cs, p))
        bch._cached_plan.cache_clear()
        rng = random.Random(0)
        x, y = random_strict_upper(4, 7, rng), random_strict_upper(4, 7, rng)
        comps = bch_components(3)
        own = tuple(list(comps))  # equal, but a caller's own tuple
        for _ in range(3):
            assert bch_evaluate(own, x, y) == bch_evaluate(list(comps), x, y) == bch_evaluate(comps, x, y)
        assert bch._cached_plan.cache_info().currsize == 1
        assert [cs is comps for cs in planned] == [False, False, True, False, False, False, False]

    def test_bounded(self):
        bch._cached_plan.cache_clear()
        comps = bch_components(3)
        primes = [q for q in range(5, 2000) if all(q % f for f in range(2, int(q**0.5) + 1))]
        maxsize = bch._cached_plan.cache_info().maxsize
        assert len(primes) > maxsize
        rng = random.Random(1)
        for q in primes:
            x, y = random_strict_upper(3, q, rng), random_strict_upper(3, q, rng)
            assert bch_evaluate(comps, x, y) == reference_halves_evaluate(comps, x, y)
        assert bch._cached_plan.cache_info().currsize == maxsize


class TestPackedKernel:
    @pytest.mark.parametrize("code", "BHIQ")
    def test_field_width_edges(self, code):
        bits = 8 * array(code).itemsize
        assert array(_field_code(2**bits - 1)).itemsize == bits // 8
        wider = _field_code(2**bits)
        assert wider is None if bits == 64 else array(wider).itemsize > bits // 8
        assert _field_code(0) is not None and array(_field_code(0)).itemsize == 1

    @given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9), st.sampled_from((0, 0.3, 1)),
           st.sampled_from((0, 0.3, 1)), st.sampled_from((2, 3, 13, 2**31 - 1)), st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_matches_the_list_rows(self, r, k, c, da, db, p, rng):
        a, b = random_field_rows(r, k, p, da, rng), random_field_rows(k, c, p, db, rng)
        packed = _packed(b, p)
        assert (type(packed) is _Packed) == (k * (p - 1) ** 2 < 2**64)
        assert _matmul(a, packed, p) == _matmul(a, b, p) == reference_int_matmul(a, b, p)

    def test_rows_are_left_as_they_are_over_q(self):
        rows = [[Fraction(1, 2)]]
        assert _packed(rows, 0) is rows


WALKED = [(2, 8, 11, 2, "blocks"), (2, 8, 11, 2, "shared"), (3, 8, 17, 2, "blocks"), (3, 8, 17, 2, "shared"),
          (2, 9, 19, 3, "blocks"), (2, 9, 19, 3, "shared"), (3, 8, 0, 1, "blocks"), (4, 8, 11, 1, "blocks")]


@pytest.mark.parametrize("n, d, p, layers, family", WALKED)
def test_walk_writes_the_oracles_tables_from_the_packing_threshold(n, d, p, layers, family, monkeypatch):
    assert d >= reps._PACKED_FROM
    seed = next(s for s in range(100) if mode(layers, s) == family)
    data = random_layer_data(n, d, p, layers, seed)
    packed = []
    pack = reps._packed
    monkeypatch.setattr(reps, "_packed", lambda rows, p: packed.append(pack(rows, p)) or packed[-1])
    monkeypatch.setattr(reps, "MAX_CONSTRUCT_NODES", 10**7)
    got = construct_from_layers(data)
    assert packed and all((type(rows) is _Packed) == bool(p) for rows in packed)
    want = reference_construct_from_layers(data)
    for body in ("chi", "poly"):
        assert write_rep_file(got, body) == write_rep_file(want, body)


BIG = 2**31 - 1


def pointwise_table(p, kind, rng):
    """A constructed table over F_p, as it is, with one entry changed, with a
    key dropped, or emptied; at p = BIG one of at least 5 keys, too many for
    _packed's fields (4 (p - 1)^2 is still below 2^64), so its rows stay plain."""
    while True:
        n, d = rng.randint(1, min(p, 4)), rng.randint(1, min(p, 3))
        layers = 1 if p == BIG else rng.randint(1, 2)
        rep = construct_from_layers(random_layer_data(n, d, p, layers, rng.randrange(1000)).trimmed())
        support = dict(rep.chi.support)
        if p != BIG or len(support) >= 5 + (kind == "dropped"):
            break
    key = rng.choice(list(support))
    if kind == "corrupted":
        rows = [[x.value for x in row] for row in support[key].entries]
        a, b = rng.randrange(d), rng.randrange(d)
        rows[a][b] = (rows[a][b] + rng.randrange(1, p)) % p
        support[key] = scalar_matrix(rows, p)
    elif kind == "dropped":
        del support[key]
    elif kind == "empty":
        support = {}
    return Representation(ChiTable(n, p, d, support))


class TestPointwise:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from((2, 3, 5, 7, 13, BIG)), st.sampled_from(("valid", "corrupted", "dropped", "empty")),
           st.randoms(use_true_random=False))
    def test_findings_match_the_cell_by_cell_body(self, p, kind, rng):
        rep = pointwise_table(p, kind, rng)
        if p == BIG and kind != "empty":
            assert _field_code(len(rep.chi.support) * (p - 1) ** 2) is None  # unpacked
        count, seed = rng.choice((None, rng.randint(0, 40))), rng.randrange(100)
        got = verify_group_law_pointwise(rep, "sampled", count, seed).findings
        assert got == reference_verify_group_law_pointwise(rep, "sampled", count, seed).findings
        if p ** (2 * len(variable_pairs(rep.n))) <= 1000:
            got = verify_group_law_pointwise(rep, "exhaustive").findings
            assert got == reference_verify_group_law_pointwise(rep, "exhaustive").findings
