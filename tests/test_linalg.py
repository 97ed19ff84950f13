"""Exact matrices and the truncated exponential / logarithm."""

import random
from fractions import Fraction

import pytest

from unirep.arith import Residue, coerce_scalar
from unirep.errors import (
    ConversionError,
    ModulusMismatchError,
    NotNilpotentError,
    SeriesTerminationError,
    ShapeError,
)
from unirep.hopf import Polynomial
from unirep.linalg import (
    SquareMatrix,
    commutator,
    exp_nilpotent,
    log_unipotent,
    nilpotency_index,
    scalar_matrix,
)
from unirep.samples import random_strict_upper


class TestSquareMatrix:
    def test_shape_enforced(self):
        with pytest.raises(ShapeError):
            SquareMatrix([[1, 2], [3]])

    def test_product(self):
        a = scalar_matrix([[0, 1], [0, 0]], 0)
        b = scalar_matrix([[0, 0], [1, 0]], 0)
        assert (a @ b) == scalar_matrix([[1, 0], [0, 0]], 0)
        assert commutator(a, b) == scalar_matrix([[1, 0], [0, -1]], 0)

    def test_identity_and_scale(self):
        m = SquareMatrix.identity(3, Fraction(1))
        assert m.scale(Fraction(2)).entries[1][1] == 2
        assert m.transpose() == m


class TestNilpotency:
    def test_index(self):
        n = scalar_matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]], 0)
        assert nilpotency_index(n, 3) == 3
        assert nilpotency_index(n.zero_like(), 3) == 1

    def test_not_nilpotent(self):
        with pytest.raises(NotNilpotentError):
            nilpotency_index(SquareMatrix.identity(2, Fraction(1)), 5)


class TestExpLog:
    def test_exp_superdiagonal(self):
        n = scalar_matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]], 0)
        e = exp_nilpotent(n)
        assert e == scalar_matrix([[1, 1, Fraction(1, 2)], [0, 1, 1], [0, 0, 1]], 0)

    def test_log_inverts_exp_rational(self):
        rng = random.Random(1)
        for _ in range(10):
            x = random_strict_upper(4, 0, rng)
            assert log_unipotent(exp_nilpotent(x)) == x

    def test_exp_inverts_log_mod_p(self):
        p = 7
        rng = random.Random(2)
        for _ in range(10):
            x = random_strict_upper(5, p, rng)
            g = exp_nilpotent(x, p)
            assert log_unipotent(g, p) == x
            assert exp_nilpotent(log_unipotent(g, p), p) == g

    def test_exp_is_homomorphism_on_commuting(self):
        x = scalar_matrix([[0, 2, 0], [0, 0, 0], [0, 0, 0]], 11)
        y = x.scale(Residue(3, 11))
        assert exp_nilpotent(x + y, 11) == exp_nilpotent(x, 11) @ exp_nilpotent(y, 11)

    def test_char_bound_violation(self):
        # nilpotency index 4 exceeds char bound 3: series would divide by 3!
        n = scalar_matrix(
            [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]], 3
        )
        with pytest.raises(SeriesTerminationError):
            exp_nilpotent(n, 3)

    def test_exp_requires_nilpotent(self):
        with pytest.raises(NotNilpotentError):
            exp_nilpotent(SquareMatrix.identity(2, Fraction(1)))

    def test_no_p_denominator_when_index_small(self):
        # index d <= p never touches 1/p, so entries are honest residues
        p = 5
        rng = random.Random(3)
        x = random_strict_upper(5, p, rng)
        g = exp_nilpotent(x, p)
        assert all(isinstance(v, Residue) for row in g.entries for v in row)


# --- the int kernel for F_p matrices against per-entry Residue arithmetic ---

KERNEL_PRIMES = (2, 3, 5, 11, 13, 2**31 - 1)


def reference_matmul(a, b):
    """Triple loop over the entries' own arithmetic, summed left to right."""
    d = len(a)
    out = []
    for i in range(d):
        row = []
        for j in range(d):
            acc = None
            for k in range(d):
                term = a[i][k] * b[k][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


def reference_entrywise(fn, *matrices):
    return [[fn(*cells) for cells in zip(*rows)] for rows in zip(*(m.entries for m in matrices))]


def random_residue_matrix(d, p, rng):
    return SquareMatrix([[Residue(rng.randrange(p), p) for _ in range(d)] for _ in range(d)])


def random_fraction_matrix(d, rng):
    return SquareMatrix(
        [[Fraction(rng.randrange(-9, 10), rng.randrange(1, 6)) for _ in range(d)] for _ in range(d)]
    )


def assert_residue_entries(m, expected, p):
    assert m.entries == expected
    assert all(type(v) is Residue and v.p == p for row in m.entries for v in row)


class TestResidueKernel:
    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    @pytest.mark.parametrize("d", range(1, 8))
    def test_matches_residue_arithmetic(self, d, p):
        rng = random.Random(1000 * d + p % 1000)
        for _ in range(3):
            a = random_residue_matrix(d, p, rng)
            b = random_residue_matrix(d, p, rng)
            c = Residue(rng.randrange(p), p)
            k = rng.randrange(1, 50)
            while k % p == 0:
                k += 1
            assert_residue_entries(a @ b, reference_matmul(a.entries, b.entries), p)
            assert_residue_entries(a * b, reference_matmul(a.entries, b.entries), p)
            assert_residue_entries(a + b, reference_entrywise(lambda x, y: x + y, a, b), p)
            assert_residue_entries(a - b, reference_entrywise(lambda x, y: x - y, a, b), p)
            assert_residue_entries(-a, reference_entrywise(lambda x: -x, a), p)
            assert_residue_entries(a.scale(c), reference_entrywise(lambda x: x * c, a), p)
            assert_residue_entries(a.scale(k), reference_entrywise(lambda x: x * k, a), p)
            assert_residue_entries(a / k, reference_entrywise(lambda x: x / k, a), p)
            r = Residue(k, p)
            assert_residue_entries(a / r, reference_entrywise(lambda x: x / r, a), p)

    def test_operands_are_not_changed(self):
        rng = random.Random(5)
        a = random_residue_matrix(4, 7, rng)
        b = random_residue_matrix(4, 7, rng)
        before = [row[:] for row in a.entries], [row[:] for row in b.entries]
        a @ b, a + b, a - b, -a, a.scale(3), a / 2
        assert (a.entries, b.entries) == before

    def test_entries_are_read_fresh(self):
        a = scalar_matrix([[1, 2], [3, 4]], 7)
        a @ a
        a.entries[0][0] = Residue(5, 7)
        assert (a @ a).entries == reference_matmul(a.entries, a.entries)

    def test_two_moduli_raise(self):
        rng = random.Random(6)
        a = random_residue_matrix(3, 5, rng)
        b = random_residue_matrix(3, 7, rng)
        for op in (lambda: a @ b, lambda: a + b, lambda: a - b, lambda: a.scale(Residue(2, 7))):
            with pytest.raises(ModulusMismatchError):
                op()

    def test_one_swapped_entry_raises(self):
        rng = random.Random(7)
        a = random_residue_matrix(3, 5, rng)
        b = random_residue_matrix(3, 5, rng)
        a.entries[1][2] = Residue(1, 7)
        for op in (lambda: a @ b, lambda: b @ a, lambda: a + b, lambda: b - a):
            with pytest.raises(ModulusMismatchError):
                op()

    @pytest.mark.parametrize("k", [5, 10, Residue(0, 5), Residue(10, 5)])
    def test_division_by_multiple_of_p_raises(self, k):
        a = random_residue_matrix(3, 5, random.Random(8))
        with pytest.raises(ConversionError):
            a / k

    def test_fraction_matrices_unchanged(self):
        rng = random.Random(9)
        for d in range(1, 6):
            a = random_fraction_matrix(d, rng)
            b = random_fraction_matrix(d, rng)
            assert (a @ b).entries == reference_matmul(a.entries, b.entries)
            assert (a + b).entries == reference_entrywise(lambda x, y: x + y, a, b)
            assert (a - b).entries == reference_entrywise(lambda x, y: x - y, a, b)
            assert (-a).entries == reference_entrywise(lambda x: -x, a)
            c = Fraction(2, 3)
            assert a.scale(c).entries == reference_entrywise(lambda x: x * c, a)
            assert (a / 3).entries == reference_entrywise(lambda x: x / 3, a)
            assert all(type(v) is Fraction for row in (a @ b).entries for v in row)

    def test_polynomial_matrices_unchanged(self):
        p = 5
        x, y = Polynomial.variable(3, p, 1, 2), Polynomial.variable(3, p, 2, 3)
        one, zero = Polynomial.one(3, p), Polynomial.zero(3, p)
        a = SquareMatrix([[one, x], [zero, x * y + one]])
        b = SquareMatrix([[y, zero], [x + y, one]])
        c = Residue(3, p)
        assert (a @ b).entries == reference_matmul(a.entries, b.entries)
        assert (a + b).entries == reference_entrywise(lambda u, v: u + v, a, b)
        assert (a - b).entries == reference_entrywise(lambda u, v: u - v, a, b)
        assert (-a).entries == reference_entrywise(lambda u: -u, a)
        assert a.scale(c).entries == reference_entrywise(lambda u: u * c, a)
        assert (a / 2).entries == reference_entrywise(lambda u: u / 2, a)

    def test_mixed_fraction_and_residue_takes_entry_arithmetic(self):
        a = scalar_matrix([[1, 2], [0, 1]], 5)
        b = SquareMatrix([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])
        with pytest.raises(TypeError):
            a @ b

