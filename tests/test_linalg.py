"""Exact matrices and the truncated exponential / logarithm."""

import itertools
import random
import time
from fractions import Fraction
from math import factorial
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unirep import arith, reps
from unirep.arith import Residue, coerce_scalar
from unirep.bch import bch_components, bch_evaluate
from unirep.errors import (
    ConversionError,
    ModulusMismatchError,
    NotNilpotentError,
    SeriesTerminationError,
    ShapeError,
)
from unirep.hopf import Polynomial
from unirep.io import write_rep_file
from unirep.linalg import (
    SquareMatrix,
    _is_nilpotent,
    _matmul,
    _operands,
    commutator,
    exp_nilpotent,
    log_unipotent,
    nilpotency_index,
    one_like,
    scalar_matrix,
)
from unirep.reps import construct_from_layers
from unirep.samples import random_invertible, random_layer_data, random_strict_upper

from oracles import generic_element, reference_nilpotency_index, reference_walk_exp, reference_walk_log


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


# --- nilpotency counted on the series walk, against the SquareMatrix power loop ---

def assert_index_matches_the_power_loop(m, cap):
    expected = outcome(reference_nilpotency_index, m, cap)
    assert outcome(nilpotency_index, m, cap) == expected
    p, (a,), _ = _operands(m)
    assert outcome(_is_nilpotent, a, cap, p) == (expected if type(expected) is str else "None")


@st.composite
def conjugated_cases(draw):
    """(m, d) for a d x d matrix m over F_p (Q when p = 0), 0 <= d <= 5:
    S N S^-1 for a strictly upper N (nilpotent), S (1 + N) S^-1 (unipotent,
    so not), random entries (mostly not), or zero."""
    p = draw(st.sampled_from([0, 2, 13, 2**31 - 1]))
    d = draw(st.integers(0, 5))
    if d == 0:
        return SquareMatrix([]), d
    rng = draw(st.randoms(use_true_random=False))
    shape = draw(st.sampled_from(["nilpotent", "unipotent", "random", "zero"]))
    if shape == "random":
        modulus = p or 7
        return scalar_matrix([[rng.randrange(modulus) for _ in range(d)] for _ in range(d)], p), d
    nilpotent = random_strict_upper(d, p, rng)
    if shape == "zero":
        return nilpotent.zero_like(), d
    s, s_inv = random_invertible(d, p, rng)
    if shape == "unipotent":
        nilpotent = nilpotent + nilpotent.identity_like()
    return s @ nilpotent @ s_inv, d


@st.composite
def polynomial_conjugated_cases(draw):
    """(m, d) for a d x d matrix m over F_13[x12, x13, x23] or Q[x12, x13, x23],
    1 <= d <= 4: S U S^-1 for a constant S and a strictly upper U (nilpotent),
    optionally with one nonzero diagonal entry (not)."""
    p = draw(st.sampled_from([0, 13]))
    d = draw(st.integers(1, 4))
    rng = draw(st.randoms(use_true_random=False))
    xs = [Polynomial.variable(3, p, i, j) for i, j in ((1, 2), (1, 3), (2, 3))]
    one, zero = Polynomial.one(3, p), Polynomial.zero(3, p)
    rows = [[rng.choice(xs) ** rng.randrange(3) * rng.randrange(3) if j > i else zero for j in range(d)]
            for i in range(d)]
    if draw(st.booleans()):
        k = rng.randrange(d)
        rows[k][k] = rng.choice(xs) + rng.randrange(3)
    s, s_inv = (m.map_entries(lambda c: one * c) for m in random_invertible(d, p, rng))
    return s @ SquareMatrix(rows) @ s_inv, d


class TestNilpotencyOracle:
    @given(conjugated_cases())
    @settings(max_examples=200, deadline=None)
    def test_scalar_matrices(self, case):
        m, d = case
        for cap in range(1, d + 3):
            assert_index_matches_the_power_loop(m, cap)

    @given(polynomial_conjugated_cases())
    @settings(max_examples=60, deadline=None)
    def test_polynomial_matrices(self, case):
        m, d = case
        for cap in range(1, d + 3):
            assert_index_matches_the_power_loop(m, cap)

    @pytest.mark.parametrize("m", [
        scalar_matrix([[1, 1], [0, 1]], 7),
        SquareMatrix([[Polynomial.variable(3, 7, 1, 2), Polynomial.one(3, 7)],
                      [Polynomial.zero(3, 7), Polynomial.variable(3, 7, 1, 2)]]),
    ], ids=["unipotent", "polynomial"])
    def test_a_huge_cap_forms_at_most_d_powers(self, m):
        cap = 10**9
        start = time.perf_counter()
        with pytest.raises(NotNilpotentError) as exc:
            nilpotency_index(m, cap)
        p, (a,), _ = _operands(m)
        assert _is_nilpotent(a, cap, p) is None
        assert time.perf_counter() - start < 0.1
        assert str(exc.value) == "matrix is not nilpotent within 1000000000 powers"

    def test_empty_matrix_has_index_one(self):
        assert nilpotency_index(SquareMatrix([]), 1) == 1
        assert _is_nilpotent([], 1) == 1
        assert _is_nilpotent([], 0) is None
        assert _is_nilpotent([[0]], 0) is None


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

    def test_plain_int_entries_are_rationals(self):
        # int entries used to be divided as floats: [1.0, 1.0, 0.5; ...]
        n = SquareMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        e = exp_nilpotent(n)
        assert e == scalar_matrix([[1, 1, Fraction(1, 2)], [0, 1, 1], [0, 0, 1]], 0)
        assert all(type(v) is Fraction for row in e.entries for v in row)
        g = SquareMatrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        x = log_unipotent(g)
        assert x == scalar_matrix([[0, 1, Fraction(-1, 2)], [0, 0, 1], [0, 0, 0]], 0)
        assert all(type(v) is Fraction for row in x.entries for v in row)
        assert log_unipotent(SquareMatrix([[1, Fraction(1, 2)], [0, 1]])) == scalar_matrix(
            [[0, Fraction(1, 2)], [0, 0]], 0)

    @pytest.mark.parametrize("entries", [
        [[Residue(0, 7), Fraction(1)], [Residue(0, 7), Residue(0, 7)]],
        [[Residue(0, 7), Residue(1, 11)], [Residue(0, 7), Residue(0, 7)]],
        [[Residue(0, 7), 1], [Residue(0, 7), Residue(0, 7)]],
        [[Fraction(0), Residue(1, 7)], [Fraction(0), Fraction(0)]],
    ])
    def test_entries_outside_one_field_raise(self, entries):
        m = SquareMatrix(entries)
        for fn in (exp_nilpotent, log_unipotent):
            with pytest.raises(ModulusMismatchError, match="is not in the field of characteristic"):
                fn(m)

    def test_no_p_denominator_when_index_small(self):
        # index d <= p never touches 1/p, so entries are honest residues
        p = 5
        rng = random.Random(3)
        x = random_strict_upper(5, p, rng)
        g = exp_nilpotent(x, p)
        assert all(isinstance(v, Residue) for row in g.entries for v in row)



# --- the two-pass exp/log (index first, then the series), kept as the oracle ---

def reference_series_index(x, char_bound):
    cap = x.size if char_bound is None else min(char_bound, x.size)
    try:
        return nilpotency_index(x, cap)
    except NotNilpotentError:
        if char_bound is not None and char_bound < x.size:
            raise SeriesTerminationError(
                f"nilpotency index exceeds the characteristic bound {char_bound}") from None
        raise


def reference_exp(x, char_bound=None):
    index = reference_series_index(x, char_bound)
    result = x.identity_like()
    power = x.identity_like()
    kfact = 1
    for k in range(1, index):
        power = power @ x
        kfact *= k
        result = result + power / kfact
    return result


def reference_log(g, char_bound=None):
    u = g - g.identity_like()
    index = reference_series_index(u, char_bound)
    result = u.zero_like()
    power = g.identity_like()
    for k in range(1, index):
        power = power @ u
        term = power / k
        result = result + (term if k % 2 == 1 else -term)
    return result


def outcome(fn, *args):
    """The result as its string, or the error's type and message."""
    try:
        return str(fn(*args))
    except (NotNilpotentError, SeriesTerminationError, ValueError, ConversionError,
            ModulusMismatchError) as exc:
        return type(exc), str(exc)


def jordan_block(d, p):
    return scalar_matrix([[int(j == i + 1) for j in range(d)] for i in range(d)], p)


def series_inputs(p, rng, full_unbounded=False):
    """Nilpotent, conjugated-nilpotent and non-nilpotent d x d matrices over
    F_p (Q when p = 0), with char bounds that pass and fail.  Over F_p the
    nilpotent ones also come without a bound, so with d > p the index can
    pass p and the series meets p | k!; so do the non-nilpotent ones when
    ``full_unbounded``, where the two-pass series raises NotNilpotentError
    first and the one-pass series raises ConversionError first."""
    bounds = (None,) if p == 0 else (p, 2, 1)
    for d in range(1, 7):
        nilpotent = random_strict_upper(d, p, rng)
        s, s_inv = random_invertible(d, p, rng)
        full = (random_fraction_matrix(d, rng) if p == 0
                else scalar_matrix([[rng.randrange(p) for _ in range(d)] for _ in range(d)], p))
        for x in (nilpotent, s @ nilpotent @ s_inv, full):
            for bound in bounds:
                yield x, bound
        if p:
            for x in (nilpotent, s @ jordan_block(d, p) @ s_inv, jordan_block(d, p)):
                yield x, None
            if full_unbounded:
                yield full, None


class TestSeriesOracle:
    """exp/log find the nilpotency index while they sum; the two-pass series
    stays the oracle, errors included."""

    @pytest.mark.parametrize("p", [0, 2, 3, 5, 7, 11])
    @pytest.mark.parametrize("seed", range(4))
    def test_scalar_matrices(self, p, seed):
        rng = random.Random(seed)
        for x, bound in series_inputs(p, rng):
            assert outcome(exp_nilpotent, x, bound) == outcome(reference_exp, x, bound)
            g = x + x.identity_like()
            assert outcome(log_unipotent, g, bound) == outcome(reference_log, g, bound)

    @pytest.mark.parametrize("n", range(2, 6))
    @pytest.mark.parametrize("p", [0, 2, 3, 7])
    def test_generic_element_log_and_its_exp(self, n, p):
        # the library's series take field entries only; the tests' two
        # polynomial series, one pass and two, agree and invert each other
        g = generic_element(n, p)
        bound = p or None
        log_g = outcome(reference_walk_log, g, bound)
        assert log_g == outcome(reference_log, g, bound)
        if isinstance(log_g, str):
            x = reference_walk_log(g, bound)
            assert x == reference_log(g, bound)
            assert outcome(reference_walk_exp, x, bound) == outcome(reference_exp, x, bound)
            assert reference_walk_exp(x, bound) == g
        else:
            assert log_g[0] is SeriesTerminationError

    @pytest.mark.parametrize("p", [0, 7])
    def test_polynomial_matrices_refused(self, p):
        g = generic_element(3, p)
        x = g - g.identity_like()
        components = bch_components(2)
        for fn, args in ((exp_nilpotent, (x, p or None)), (log_unipotent, (g, p or None)),
                         (bch_evaluate, (components, x, x))):
            with pytest.raises(ModulusMismatchError, match="is not in the field of characteristic 0"):
                fn(*args)

    @pytest.mark.parametrize("p", [0, 2, 3, 5, 7, 11])
    @pytest.mark.parametrize("seed", range(4))
    def test_against_the_one_pass_operator_series(self, p, seed):
        rng = random.Random(50 + seed)
        for x, bound in series_inputs(p, rng, full_unbounded=True):
            assert outcome(exp_nilpotent, x, bound) == outcome(reference_walk_exp, x, bound)
            g = x + x.identity_like()
            assert outcome(log_unipotent, g, bound) == outcome(reference_walk_log, g, bound)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_p_divides_k_factorial_raises(self, p):
        for d in range(1, 8):
            x = jordan_block(d, p)
            g = x + x.identity_like()
            exp_out, log_out = outcome(exp_nilpotent, x, None), outcome(log_unipotent, g, None)
            if d <= p:  # the index d keeps every k < p
                assert isinstance(exp_out, str) and isinstance(log_out, str)
            else:  # exp meets p! and log meets p before the powers end
                assert exp_out == (ConversionError, f"division by {factorial(p)} is not invertible mod {p}")
                assert log_out == (ConversionError, f"division by {p} is not invertible mod {p}")

    def test_messages(self):
        n = scalar_matrix([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]], 3)
        assert outcome(exp_nilpotent, n, 3) == (
            SeriesTerminationError, "nilpotency index exceeds the characteristic bound 3")
        one = SquareMatrix.identity(2, Fraction(1))
        assert outcome(exp_nilpotent, one) == (NotNilpotentError, "matrix is not nilpotent within 2 powers")
        assert outcome(exp_nilpotent, n, 0) == (ValueError, "cap must be at least 1")


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

    def test_plain_int_matrices_are_read_over_q(self):
        # they used to take their entries' own arithmetic, so m / 2 was [0.5, 1.0; 1.5, 2.0]
        rng = random.Random(10)
        for d in range(1, 5):
            rows = [[rng.randrange(-9, 10) for _ in range(d)] for _ in range(d)]
            m, q = SquareMatrix(rows), scalar_matrix(rows, 0)
            mixed = SquareMatrix([[Fraction(v, 2) if (i + j) % 2 else v for j, v in enumerate(r)]
                                  for i, r in enumerate(rows)])
            for got, want in ((m / 2, q / 2), (m @ m, q @ q), (m + m, q + q), (m - m, q - q),
                              (-m, -q), (m.scale(3), q.scale(3)), (m.scale(Fraction(1, 3)), q.scale(Fraction(1, 3))),
                              (mixed @ m, SquareMatrix(reference_matmul(mixed.entries, q.entries)))):
                assert got == want and str(got) == str(want)
                assert all(type(v) is Fraction for row in got.entries for v in row)
            assert str(m @ m) == str(SquareMatrix(reference_matmul(rows, rows)))  # same text as int sums
        assert str(SquareMatrix([[1, 2], [3, 4]]) / 2) == "[1/2, 1; 3/2, 2]"
        assert nilpotency_index(SquareMatrix([[0, 1], [0, 0]]), 2) == 2
        assert (SquareMatrix([]) @ SquareMatrix([])).size == 0

    def test_one_like_is_the_shared_one(self):
        assert one_like(Residue(3, 13)) is arith._residues(13)[1]
        assert one_like(Fraction(2)) == 1 and one_like(Polynomial.zero(2, 13)) == Polynomial.one(2, 13)

    def test_mixed_fraction_and_residue_takes_entry_arithmetic(self):
        a = scalar_matrix([[1, 2], [0, 1]], 5)
        b = SquareMatrix([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])
        with pytest.raises(TypeError):
            a @ b


# --- the zero-skipping field kernel against the dense body it replaced --------

def reference_int_matmul(a, b, p):
    """The dense body _matmul had on field rows: every output entry the dot
    product of a row and a column, reduced mod p when p > 0."""
    cols = list(zip(*b))
    if p:
        return [[sum(map(mul, row, col)) % p for col in cols] for row in a]
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


DENSITIES = (0, 0.1, 0.5, 0.9, 1)
FIELD_PRIMES = (0, 2, 5, 13, 2**31 - 1)


def random_field_rows(r, c, p, density, rng):
    """r x c rows over F_p (ints) or Q (Fractions, p = 0), each entry nonzero
    with probability ``density``."""
    def nonzero():
        if p:
            return rng.randrange(1, p)
        return Fraction(rng.choice([-1, 1]) * rng.randrange(1, 20), rng.randrange(1, 7))

    zero = 0 if p else Fraction(0)
    return [[nonzero() if rng.random() < density else zero for _ in range(c)] for _ in range(r)]


class TestFieldKernel:
    @given(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7), st.sampled_from(DENSITIES),
           st.sampled_from(DENSITIES), st.sampled_from(FIELD_PRIMES), st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_dense_body(self, r, k, c, da, db, p, rng):
        a, b = random_field_rows(r, k, p, da, rng), random_field_rows(k, c, p, db, rng)
        out = _matmul(a, b, p)
        assert out == reference_int_matmul(a, b, p)
        assert len(out) == r and all(len(row) == c for row in out)
        if p:
            assert all(type(v) is int and 0 <= v < p for row in out for v in row)
        else:
            assert all(type(v) is Fraction for row in out for v in row)

    @pytest.mark.parametrize("p", FIELD_PRIMES)
    def test_no_row_is_shared(self, p):
        rng = random.Random(p % 1000)
        for density in DENSITIES:
            for r, k, c in ((1, 1, 1), (3, 2, 4), (5, 5, 5), (6, 3, 2)):
                a, b = random_field_rows(r, k, p, density, rng), random_field_rows(k, c, p, density, rng)
                out = _matmul(a, b, p)
                before = [[row[:] for row in m] for m in (a, b, out)]
                for i in range(r):
                    out[i][0] = -1
                    assert out[:i] + out[i + 1:] == before[2][:i] + before[2][i + 1:]
                    assert (a, b) == (before[0], before[1])
                    out[i][0] = before[2][i][0]

    def test_series_over_q_stays_in_fractions(self):
        x = SquareMatrix([[Fraction(0), Fraction(1, 2), Fraction(0)],
                          [Fraction(0), Fraction(0), Fraction(3)],
                          [Fraction(0), Fraction(0), Fraction(0)]])
        for m in (exp_nilpotent(x), log_unipotent(exp_nilpotent(x))):
            assert all(type(v) is Fraction for row in m.entries for v in row)
        assert log_unipotent(exp_nilpotent(x)) == x

    @pytest.mark.parametrize("p", [0, 11, 13])
    def test_construct_is_byte_identical_under_the_dense_body(self, p, monkeypatch):
        shapes = [(n, d, L) for n in (2, 3, 4) for d in (2, 3, 4, 6) for L in (1, 2, 3)
                  if (p == 0 and L == 1) or (p and p >= max(n, d))]
        datas = [random_layer_data(n, d, p, L, seed) for (n, d, L), seed in itertools.product(shapes, range(3))]
        fast = [write_rep_file(construct_from_layers(data)) for data in datas]
        monkeypatch.setattr(reps, "_matmul", reference_int_matmul)
        assert fast == [write_rep_file(construct_from_layers(data)) for data in datas]
