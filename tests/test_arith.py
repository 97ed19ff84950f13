"""Scalar domains and base-p combinatorics."""

import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unirep.arith import (
    MAX_D,
    MAX_N,
    PAryDigits,
    Residue,
    _residues,
    check_field,
    coerce_scalar,
    factorial,
    gamma_factor,
    matrix_multinomial,
    multinomial,
    p_ary_digits,
    scalar_from_str,
    scalar_to_str,
    sum_carries,
)
from unirep.errors import ConversionError, CostBoundError, ModulusMismatchError, ShapeError


class TestResidue:
    def test_arithmetic(self):
        a, b = Residue(3, 7), Residue(5, 7)
        assert a + b == Residue(1, 7)
        assert a - b == Residue(5, 7)
        assert a * b == Residue(1, 7)
        assert -a == Residue(4, 7)
        assert a / b == a * Residue(3, 7)  # 5 * 3 = 15 = 1 mod 7

    def test_int_mixing(self):
        assert Residue(3, 7) + 11 == Residue(0, 7)
        assert 2 * Residue(4, 7) == Residue(1, 7)

    def test_int_minus_residue(self):
        assert 2 - Residue(5, 7) == Residue(4, 7)
        assert 12 - Residue(5, 7) == Residue(0, 7)
        assert -1 - Residue(0, 3) == Residue(2, 3)

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatchError):
            Residue(1, 5) + Residue(1, 7)

    def test_division_by_zero(self):
        with pytest.raises(ConversionError):
            Residue(1, 5) / Residue(0, 5)


class TestCheckField:
    @pytest.mark.parametrize("n,p,d", [(3, 0, 2), (1, 2, 1), (4, 11, 9), (2, 2**31 - 1, 1)])
    def test_accepts(self, n, p, d):
        check_field(n, p, d)

    @pytest.mark.parametrize("n,p,d", [
        (3, 1, 2), (3, 4, 2), (3, 9, 2), (3, -7, 2), (3, 2**61 - 1, 2), (0, 5, 2), (3, 5, 0),
    ])
    def test_refuses(self, n, p, d):
        with pytest.raises(ValueError):
            check_field(n, p, d)

    def test_size_bounds(self):
        check_field(MAX_N, 0, MAX_D)
        for n, d in ((MAX_N + 1, 1), (1, MAX_D + 1), (20000, 1), (2, 1000)):
            with pytest.raises(CostBoundError):
                check_field(n, 7, d)


class TestCoercion:
    def test_rational_to_residue(self):
        # 1/2 = 3 mod 5
        assert coerce_scalar(Fraction(1, 2), 5) == Residue(3, 5)

    def test_p_in_denominator(self):
        with pytest.raises(ConversionError):
            coerce_scalar(Fraction(1, 5), 5)

    def test_char_zero(self):
        assert coerce_scalar(3, 0) == Fraction(3)

    @given(st.integers(-50, 50), st.integers(1, 50))
    def test_string_roundtrip_rational(self, num, den):
        c = Fraction(num, den)
        assert scalar_from_str(scalar_to_str(c), 0) == c

    @given(st.integers(0, 10))
    def test_string_roundtrip_residue(self, v):
        c = Residue(v, 11)
        assert scalar_from_str(scalar_to_str(c), 11) == c

    def test_residue_out_of_range(self):
        with pytest.raises(ValueError):
            scalar_from_str("7", 5)

    @pytest.mark.parametrize("p,text,canonical", [
        (7, "+1", "1"), (7, " 1", "1"), (7, "1 ", "1"), (7, "01", "1"), (7, "0_1", "1"), (7, "\uff11", "1"),
        (7, "-0", "0"), (0, "1.5", "3/2"), (0, "1e1", "10"), (0, "3/6", "1/2"), (0, "1/1", "1"),
        (0, "+1/2", "1/2"), (0, "-0", "0"),
    ])
    def test_only_the_canonical_text_is_read(self, p, text, canonical):
        with pytest.raises(ValueError, match=f"^{re.escape(repr(text))} is not the canonical text {canonical!r}$"):
            scalar_from_str(text, p)
        assert scalar_to_str(scalar_from_str(canonical, p)) == canonical

    @pytest.mark.parametrize("p", [2, 13, 1021])
    def test_residues_are_the_shared_ones(self, p):
        assert all(scalar_from_str(str(v), p) is _residues(p)[v] for v in range(min(p, 50)))

    def test_past_the_bound_residues_are_new(self):
        a, b = scalar_from_str("5", 1031), scalar_from_str("5", 1031)
        assert a == b == Residue(5, 1031) and a is not b
        assert type(scalar_from_str("-7/2", 0)) is Fraction


class TestMultinomial:
    def test_factorial(self):
        assert [factorial(k) for k in range(6)] == [1, 1, 2, 6, 24, 120]
        assert factorial(20) == 2432902008176640000
        with pytest.raises(ValueError, match="^factorial of a negative integer$"):
            factorial(-1)

    def test_basic(self):
        assert multinomial(4, [2, 2]) == 6
        assert multinomial(3, [1, 1, 1]) == 6
        assert multinomial(3, [1, 1, 0]) == 0  # sum mismatch

    def test_matrix_example(self):
        # ((0 2 3 / 0 0 1 / 0 0 0) choose three layers) = C(2;1,1,0) C(1;0,1,0) C(3;2,0,1) = 6
        whole = [[0, 2, 3], [0, 0, 1], [0, 0, 0]]
        parts = [
            [[0, 1, 2], [0, 0, 0], [0, 0, 0]],
            [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
            [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
        ]
        assert matrix_multinomial(whole, parts) == 6

    def test_matrix_sum_mismatch(self):
        with pytest.raises(ShapeError):
            matrix_multinomial([[0, 1], [0, 0]], [[[0, 0], [0, 0]]])


class TestBasePDigits:
    @given(st.integers(0, 10**6), st.sampled_from([2, 3, 5, 7, 11]))
    def test_reconstruct(self, r, p):
        assert p_ary_digits(r, p).reconstruct() == r

    def test_zero(self):
        assert p_ary_digits(0, 5).digits == (0,)

    def test_digits_are_a_frozen_value(self):
        # 19 = 1 + 0*3 + 2*9: least significant first, no trailing zero digit
        d = p_ary_digits(19, 3)
        assert d == PAryDigits((1, 0, 2), 3) and d.p == 3 and d.reconstruct() == 19
        with pytest.raises(AttributeError):
            d.digits = (0,)
        with pytest.raises(ValueError):
            p_ary_digits(-1, 3)

    @given(st.integers(0, 5000), st.integers(0, 5000), st.sampled_from([2, 5, 7]))
    def test_carry_matches_digit_oracle(self, r, s, p):
        # carrying happens iff the digit sums of r + s ever drop below the
        # plain digit sums, i.e. iff the digit sum is not additive
        def digit_sum(v):
            return sum(p_ary_digits(v, p).digits)

        assert sum_carries(r, s, p) == (digit_sum(r) + digit_sum(s) != digit_sum(r + s))

    def test_gamma_factor(self):
        # 23 = 3 + 4*5 in base 5, so Gamma = 3! * 4! = 144
        assert gamma_factor(23, 5) == 144
        assert gamma_factor(0, 7) == 1
        assert gamma_factor(7, 7) == 1  # digits (0, 1)

    @given(st.integers(0, 10**4), st.sampled_from([5, 7, 11]))
    def test_gamma_coprime_to_p(self, r, p):
        assert gamma_factor(r, p) % p != 0
