"""Shared residues and the checks around them.

Below arith.SHARED_BELOW the kernels give each output term the one shared
Residue of its value; past it they build a new one, as before.  The bodies
they replaced, a new scalar per term, stay in tests/oracles.py: at every p
the kernels give the same terms in the same key order, with coefficients of
the same types and the same str, and at small p the same objects from call
to call.  The symbolic comodule check, now on ints over Q, is compared with
its Fraction body, and ExponentMatrix's whole-matrix tests with the
per-entry loop they front.
"""

import enum
import math
import random
import sys
import threading
from fractions import Fraction

import pytest

from unirep import arith, reps
from unirep.arith import SHARED_BELOW, Residue
from unirep.errors import ShapeError
from unirep.hopf import ExponentMatrix, Polynomial, _field_sums, coproduct
from unirep.linalg import _wrap, exp_nilpotent, scalar_matrix
from unirep.reps import ChiTable, Representation, construct_from_layers
from unirep.samples import random_chi_support, random_layer_data, random_strict_upper

from oracles import (reference_comodule_findings, reference_construct_from_layers, reference_exponent_flat,
                     reference_field_sums, reference_wrap)
from test_certificate import CORPUS

LARGE = 2**31 - 1
PRIMES = [0, 2, 5, 11, LARGE]


@pytest.fixture
def built(monkeypatch):
    """A cleared shared table, and the count of Residues built since."""
    count = [0]
    post_init = Residue.__post_init__

    def counted(self):
        count[0] += 1
        post_init(self)

    monkeypatch.setattr(Residue, "__post_init__", counted)
    monkeypatch.setattr(arith, "_SHARED", {})
    return count


def described(pairs):
    return [(k, type(c), str(c)) for k, c in pairs]


def random_sums(rng, p, count=80):
    """{flat key: int}: zeros, negatives, multiples of p and ints past 2^64."""
    sums = {}
    for _ in range(count):
        key = tuple(rng.randrange(4) for _ in range(6))
        sums[key] = rng.choice([0, rng.randrange(-50, 50), (p or 7) * rng.randrange(-3, 4),
                                rng.randrange(-2**70, 2**70)])
    return sums


class TestFieldSums:
    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_a_new_scalar_per_term(self, p, seed):
        sums = random_sums(random.Random(seed), p)
        got = _field_sums(sums, p)
        assert described(got) == described(reference_field_sums(sums, p))

    @pytest.mark.parametrize("den", [1, 2, 6, 35, 2**40 * 3])
    def test_ints_over_a_common_denominator(self, den):
        sums = random_sums(random.Random(den), 0)
        got = _field_sums(sums, 0, den)
        assert described(got) == described(reference_field_sums(sums, 0, den))
        assert {c.denominator for _, c in got} != {den} or den == 1  # reduced, so mixed

    def test_fractions_with_mixed_denominators(self):
        rng = random.Random(3)
        sums = {(k,): Fraction(rng.randrange(-9, 10), rng.choice([1, 2, 3, 6, 10])) for k in range(60)}
        assert described(_field_sums(sums, 0)) == described(reference_field_sums(sums, 0))

    def test_one_fraction_per_numerator_over_q(self):
        got = _field_sums({(k,): k % 3 + 1 for k in range(30)}, 0, 6)
        assert len({id(c) for _, c in got}) == 3

    @pytest.mark.parametrize("p", [2, 5, 11])
    def test_shared_across_calls(self, p):
        sums = random_sums(random.Random(p), p)
        first, again = _field_sums(sums, p), _field_sums(dict(sums), p)
        assert all(a is b for (_, a), (_, b) in zip(first, again))
        assert all(c is arith._residues(p)[c.value] for _, c in first)

    def test_builds_one_residue_per_distinct_value(self, built):
        sums = {(k,): k for k in range(200)}
        _field_sums(sums, 11)
        assert built[0] == 10
        _field_sums(sums, 11)
        assert built[0] == 10


class TestWrap:
    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_matches_a_new_residue_per_entry(self, p, d):
        rng = random.Random(d)
        if p:  # unreduced, as sums, differences, negations and scalings leave them
            rows = [[rng.randrange(-3 * p, 3 * p) for _ in range(d)] for _ in range(d)]
        else:
            rows = [[Fraction(rng.randrange(-9, 10), rng.choice([1, 2, 3, 6])) for _ in range(d)] for _ in range(d)]
        got, want = _wrap([row[:] for row in rows], p), reference_wrap([row[:] for row in rows], p)
        assert got == want and str(got) == str(want)
        assert [[type(a) for a in row] for row in got.entries] == [[type(a) for a in row] for row in want.entries]

    @pytest.mark.parametrize("p", [2, 5, 11])
    def test_shared_across_calls(self, p):
        x = random_strict_upper(min(p, 4), p, random.Random(p))
        a, b = exp_nilpotent(x, p), exp_nilpotent(x, p)
        assert all(u is v for r, s in zip(a.entries, b.entries) for u, v in zip(r, s))

    def test_new_residues_past_the_bound(self, built):
        rows = [[3, 1], [0, 5]]
        a, b = _wrap(rows, LARGE), _wrap(rows, LARGE)
        assert a == b and a.entries[0][0] is not b.entries[0][0]
        assert built[0] == 8 and arith._SHARED == {}


class TestTable:
    def test_large_p_stream_leaves_the_table_within_its_bound(self, built):
        values = range(0, 10**5 * 7919, 7919)  # 10^5 distinct values below 2^31 - 1
        out = _field_sums({(v,): v for v in values}, LARGE)
        assert [c.value for _, c in out] == list(values)[1:]
        assert [arith._residues(LARGE)[v].value for v in values] == list(values)
        assert arith._SHARED == {}
        for p in (q for q in range(2, SHARED_BELOW) if all(q % r for r in range(2, math.isqrt(q) + 1))):
            for v in range(p):
                arith._residues(p)[v]
        bound = sum(arith._SHARED)  # each table full: p entries per prime p below SHARED_BELOW
        assert sum(map(len, arith._SHARED.values())) == bound == 80189
        assert built[0] == bound + 2 * 10**5 - 1

    @pytest.mark.parametrize("value", [-1, 5, 7, 2**64])
    def test_unreduced_value_refused(self, built, value):
        with pytest.raises(ValueError, match="not reduced"):
            arith._residues(5)[value]
        assert arith._SHARED[5] == {} and built[0] == 0

    def test_moduli_outside_the_table(self, built):
        for p in (LARGE, SHARED_BELOW):
            assert arith._residues(p)[3] == Residue(3, p)
        with pytest.raises(ValueError, match="modulus"):
            arith._residues(1)[0]
        assert arith._SHARED == {}

    def test_shared_residues_stay_immutable(self):
        r = arith._residues(7)[3]
        with pytest.raises(AttributeError):
            r.value = 4
        assert arith._residues(7)[3] is r and r.value == 3

    def test_threads_get_the_same_residues(self, monkeypatch):
        monkeypatch.setattr(arith, "_SHARED", {})
        primes = [5, 7, 11, 101, 1021]
        results = [None] * 8

        def work(k):
            results[k] = [[arith._residues(p)[v] for v in range(p)] for p in primes]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(results))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got in results:
            for p, residues in zip(primes, got):
                assert all(r is arith._SHARED[p][v] for v, r in enumerate(residues))

    @pytest.mark.parametrize("p", [5, 11, 13])
    def test_construct_uses_the_shared_table(self, p):
        data = random_layer_data(3, 3, p, 2, seed=p)
        rep = construct_from_layers(data)
        assert rep == reference_construct_from_layers(data)
        table = arith._residues(p)
        assert all(a is table[a.value] for m in rep.chi.support.values() for row in m.entries for a in row)

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_coproduct_terms_are_shared(self, p):
        support = random_chi_support(3, 1, p, 6, seed=p, max_entry=3)
        poly = Polynomial(3, p, {M: m.entries[0][0] for M, m in support.items()})
        table = arith._residues(p)
        assert all(c is table[c.value] for c in coproduct(poly).terms.values())


def q_tables():
    """The certificate corpus's tables at p = 0, and random ones whose entries
    have denominators 1, 2, 3 and 6, with and without chi(0) = Id."""
    tables = [(name, rep) for name, rep in CORPUS if rep.p == 0]
    for seed in range(6):
        rng = random.Random(seed)
        n, d = (3, 2) if seed % 2 else (4, 3)
        support = {M: m.map_entries(lambda c: c / rng.choice([1, 2, 3, 6]))
                   for M, m in random_chi_support(n, d, 0, 5, seed, max_entry=2).items()}
        if seed < 3:
            support[ExponentMatrix.zero(n)] = ChiTable(n, 0, d, {}).identity_matrix()
        tables.append((f"random-{seed}", Representation(ChiTable(n, 0, d, support))))
    return tables


@pytest.mark.parametrize("name, rep", q_tables(), ids=[name for name, _ in q_tables()])
def test_comodule_findings_on_ints_match_the_fraction_sums(name, rep):
    got = reps._comodule_findings(rep).findings
    assert got == reference_comodule_findings(rep).findings
    assert not got or not name.endswith("valid")


def sparse_tables(p, d=5):
    """F_p tables with most cells empty: each entry of a random table kept
    with probability 1/4, with chi(0) = Id and without, and one with no keys."""
    tables = [("empty", Representation(ChiTable(3, p, d, {})))]
    for seed in range(4):
        rng = random.Random(seed)
        support = {M: scalar_matrix([[rng.randrange(p) if rng.random() < 0.25 else 0 for _ in range(d)]
                                     for _ in range(d)], p)
                   for M in random_chi_support(3, d, p, 6, seed, max_entry=2)}
        if seed % 2:
            support[ExponentMatrix.zero(3)] = ChiTable(3, p, d, {}).identity_matrix()
        tables.append((f"sparse-{seed}", Representation(ChiTable(3, p, d, support))))
    return tables


def test_comodule_findings_pair_only_the_nonempty_cells():
    # the tensor side sums a_ik (x) a_kj only over the k where cells (a, k) and
    # (k, b) both have entries; the oracle runs every k
    for name, rep in [(name, rep) for name, rep in CORPUS if rep.p] + sparse_tables(7):
        assert reps._comodule_findings(rep).findings == reference_comodule_findings(rep).findings, name


class Small(enum.IntEnum):
    TWO = 2


def exponent_rows(rng, n):
    """n x n rows, strictly upper triangular and non-negative, with up to
    three entries replaced by something out of place."""
    rows = [[rng.randrange(3) if j > i else 0 for j in range(n)] for i in range(n)]
    for _ in range(rng.randrange(4)):
        i, j = rng.randrange(n), rng.randrange(n)
        rows[i][j] = rng.choice([True, False, 1.0, "1", None, -1, -2**70, 2**70, 1, Small.TWO, Fraction(2)])
    return rows


def outcome(call, *args):
    try:
        return "returns", call(*args)
    except ShapeError as exc:
        return "raises", str(exc)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 12])
def test_exponent_matrix_checks_match_the_per_entry_loop(n):
    rng = random.Random(n)
    seen = set()
    for _ in range(400):
        rows = exponent_rows(rng, n)
        got = outcome(lambda r: ExponentMatrix(n, r).flat, rows)
        want = outcome(reference_exponent_flat, n, rows)
        assert got == want, rows
        if got[0] == "returns":
            assert [type(v) for v in got[1]] == [type(v) for v in want[1]]
        seen.add(got[1] if got[0] == "raises" else "ok")
    assert len(seen) >= (2 if n == 1 else 5)
