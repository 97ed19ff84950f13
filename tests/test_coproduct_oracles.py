"""The direct and the closed-form coproduct against the bodies they replaced.

``coproduct`` shares each monomial's expansion through a small cache and, like
``split_coproduct``, sums over Q on ints over one common denominator.  The
oracles in ``oracles.py`` expand every term anew and sum Fractions; the two
must agree on the terms, their key order and ``str``.
"""

import random
from fractions import Fraction

import pytest

from unirep import hopf
from unirep.arith import Residue, coerce_scalar
from unirep.errors import ModulusMismatchError
from unirep.hopf import ExponentMatrix, Polynomial, coproduct, variable_pairs
from unirep.linalg import SquareMatrix, scalar_matrix
from unirep.reps import ChiTable, Representation
from unirep.samples import random_chi_support
from unirep.splittings import split_coproduct

from oracles import reference_coproduct, reference_split_coproduct_sums

PRIMES = [0, 5, 7, 11]
MIXED = [Fraction(1, 2), Fraction(1, 3), Fraction(-5, 6), Fraction(7, 4), 3, -1]


def assert_same(fast, slow):
    assert type(fast) is type(slow)
    assert list(fast.terms.items()) == list(slow.terms.items())
    assert [type(c) for c in fast.terms.values()] == [type(c) for c in slow.terms.values()]
    assert str(fast) == str(slow)


def random_poly(n, p, rng, count, max_entry=2):
    terms = {}
    for _ in range(count):
        flat = [rng.randint(0, max_entry) if rng.random() < 0.5 else 0 for _ in variable_pairs(n)]
        terms[hopf._key(n, tuple(flat))] = rng.choice(MIXED)
    return Polynomial(n, p, terms)


def x(n, p, *pairs):
    """The monomial prod x_ij over the given pairs."""
    out = Polynomial.one(n, p)
    for i, j in pairs:
        out = out * Polynomial.variable(n, p, i, j)
    return out


class TestCoproduct:
    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_polynomials_with_mixed_denominators(self, n, p):
        rng = random.Random(10 * n + p)
        for count in range(1, 8):
            f = random_poly(n, p, rng, count)
            assert_same(coproduct(f), reference_coproduct(f))

    @pytest.mark.parametrize("p", PRIMES)
    def test_cancelling_key_is_dropped(self, p):
        # Delta(x13) and Delta(x12 x23) both hold x12 (x) x23 once, so
        # c * x13 - c * x12 x23 cancels it, and over F_5 a weight 1 + 4
        f = x(3, p, (1, 3)) * Fraction(1, 2) - x(3, p, (1, 2), (2, 3)) * Fraction(1, 2)
        cancelled = hopf._key(3, (1, 0, 0)).flat + hopf._key(3, (0, 0, 1)).flat
        fast = coproduct(f)
        assert cancelled not in fast.terms
        assert len(fast.terms) == 5
        assert_same(fast, reference_coproduct(f))
        if p:
            g = x(3, p, (1, 3)) + x(3, p, (1, 2), (2, 3)) * (p - 1)
            assert cancelled not in coproduct(g).terms
            assert_same(coproduct(g), reference_coproduct(g))

    @pytest.mark.parametrize("p", PRIMES)
    def test_zero_and_constant(self, p):
        zero = Polynomial.zero(3, p)
        assert coproduct(zero).terms == {}
        assert_same(coproduct(zero), reference_coproduct(zero))
        c = Polynomial.constant(3, p, Fraction(-5, 6))
        assert_same(coproduct(c), reference_coproduct(c))

    @pytest.mark.parametrize("p", PRIMES)
    def test_cold_and_warm_cache(self, p):
        f = random_poly(4, p, random.Random(p), 6)
        hopf._monomial_coproduct.cache_clear()
        cold = coproduct(f)
        hits = hopf._monomial_coproduct.cache_info().hits
        warm = coproduct(f)
        assert hopf._monomial_coproduct.cache_info().hits > hits
        assert_same(cold, warm)
        assert_same(warm, reference_coproduct(f))

    def test_cache_is_small_and_holds_tuples(self):
        assert hopf._monomial_coproduct.cache_info().maxsize == 32
        image = hopf._monomial_coproduct(3, 0, (1, 1, 1))
        assert type(image) is tuple
        assert type(hopf._monomial_coproduct(3, 0, (0, 0, 0))) is tuple


def mixed_table(n, d, p, seed):
    """A seeded chi table whose entries carry denominators 2, 3, 4 and 6."""
    rng = random.Random(seed)
    support = random_chi_support(n, d, p, 3, seed=seed, max_entry=2)
    return ChiTable(n, p, d, {M: scalar_matrix([[rng.choice(MIXED + [0]) for _ in range(d)]
                                                for _ in range(d)], p) for M in support})


class TestSplitCoproduct:
    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_the_summing_oracle(self, n, p):
        for seed in range(4):
            for chi in (mixed_table(n, 2, p, seed),
                        ChiTable(n, p, 2, random_chi_support(n, 2, p, 3, seed=seed, max_entry=2))):
                fast, slow = split_coproduct(chi), reference_split_coproduct_sums(chi)
                for a in range(2):
                    for b in range(2):
                        assert_same(fast[a][b], slow[a][b])

    @pytest.mark.parametrize("p", PRIMES)
    def test_matches_the_direct_coproduct(self, p):
        for seed in range(3):
            chi = mixed_table(3, 2, p, seed)
            grid, entries = split_coproduct(chi), Representation(chi).poly_matrix.entries
            for a in range(2):
                for b in range(2):
                    direct = coproduct(entries[a][b])
                    assert grid[a][b] == direct
                    assert str(grid[a][b]) == str(direct)

    def test_entry_that_reduces_to_zero_keeps_its_key_order(self):
        # x13 sorts first; a raw 5 there is refused, and the Residue 5 = 0 of F_5
        # leaves the table without x13, so the cell has Delta(x12 x23)'s own order
        M1 = ExponentMatrix.epsilon(3, 1, 3)
        M2 = ExponentMatrix.epsilon(3, 1, 2) + ExponentMatrix.epsilon(3, 2, 3)
        with pytest.raises(ModulusMismatchError, match="^entry 5 is not in the field of characteristic 5$"):
            ChiTable(3, 5, 1, {M2: SquareMatrix([[Residue(1, 5)]]), M1: SquareMatrix([[5]])})
        chi = ChiTable(3, 5, 1, {M2: SquareMatrix([[Residue(1, 5)]]), M1: SquareMatrix([[Residue(5, 5)]])})
        assert list(chi.support) == [M2]
        fast = split_coproduct(chi)[0][0]
        assert next(iter(fast.terms)) == (1, 0, 1, 0, 0, 0)
        assert_same(fast, reference_split_coproduct_sums(chi)[0][0])
        assert fast == coproduct(x(3, 5, (1, 2), (2, 3)))

    @pytest.mark.parametrize("p, first, second, named", [
        (5, Fraction(1, 5), Residue(1, 7), "second"),
        (5, Residue(1, 7), Fraction(1, 5), "second"),
        (0, Residue(1, 7), Fraction(1, 2), "first"),  # a Fraction is in the field at p = 0
    ])
    def test_first_bad_entry_raises_first(self, p, first, second, named):
        # the constructor reads the matrices in insertion order, each row by row,
        # so second, in e, is read before first, in z, though z sorts first
        one, zero = coerce_scalar(1, p), coerce_scalar(0, p)
        z, e = ExponentMatrix.zero(2), ExponentMatrix.epsilon(2, 1, 2)
        with pytest.raises(ModulusMismatchError) as refused:
            ChiTable(2, p, 2, {e: SquareMatrix([[one, zero], [second, one]]),
                               z: SquareMatrix([[one, first], [zero, one]])})
        entry = {"first": first, "second": second}[named]
        assert str(refused.value) == f"entry {entry!r} is not in the field of characteristic {p}"
