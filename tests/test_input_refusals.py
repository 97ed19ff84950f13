"""Input refusals at the library's boundary, each pinned by its error type and
message, and public operations that no other test runs."""

import math
import random
from decimal import Decimal
from fractions import Fraction
from re import escape as re_escape

import pytest

from unirep import arith
from unirep.arith import Residue, check_field, coerce_scalar, matrix_multinomial
from unirep.bch import FreeElement, bch_components, bch_evaluate, left_nested_expand
from unirep.errors import (
    ConversionError,
    HypothesisError,
    ModulusMismatchError,
    ParseError,
    ShapeError,
)
from unirep.hopf import ExponentMatrix, Polynomial
from unirep.io import parse_rep_file, write_rep_file
from unirep.linalg import SquareMatrix, commutator, nilpotency_index, scalar_matrix
from unirep.reps import (
    ChiTable,
    LieLayerData,
    construct_from_layers,
    verify_group_law_pointwise,
)
from unirep.samples import random_layer_data, random_strict_upper
from unirep.splittings import Splitting, SplitVarId, brute_solve_yz, l_expression

E12 = [[0, 1], [0, 0]]


class TestFieldCheckAtTheConstructors:
    @pytest.mark.parametrize("n, p, d", [(2, -3, 2), (2, 1, 2), (2, 4, 2), (2, 6, 2), (2, 9, 2),
                                         (2, 15, 2), (0, 5, 2), (2, 5, 0)])
    def test_refused_with_check_fields_message(self, n, p, d):
        # the family over Z/9 and Z/4 would construct and pass the comodule check
        # though its group law fails: neither ring is a field
        image = scalar_matrix(E12, p if p >= 2 else 0)
        match = (fr"^p must be 0 or a prime below 2\^31, got p = {p}$" if n and d
                 else fr"^n and d must be positive, got n = {n}, d = {d}$")
        with pytest.raises(ValueError, match=match):
            check_field(n, p, d)
        with pytest.raises(ValueError, match=match):
            ChiTable(n, p, d, {})
        with pytest.raises(ValueError, match=match):
            LieLayerData(n, p, d, [{(1, 2): image}, {(1, 2): image}])

    def test_each_prime_is_divided_once(self, monkeypatch):
        p = 2**31 - 1
        arith._PRIMES.discard(p)
        roots = []
        isqrt = math.isqrt
        monkeypatch.setattr(arith.math, "isqrt", lambda v: roots.append(v) or isqrt(v))
        for _ in range(3):
            check_field(2, p, 2)
        assert roots == [p]
        for _ in range(2):  # a refused modulus is divided again: only primes are kept
            with pytest.raises(ValueError, match="^p must be 0 or a prime below 2\\^31, got p = 9$"):
                check_field(2, 9, 2)
        assert roots == [p, 9, 9]

    def test_largest_prime_accepted(self):
        p = 2**31 - 1
        data = LieLayerData(2, p, 2, [{(1, 2): scalar_matrix(E12, p)}])
        assert ChiTable(2, p, 2, {}).p == p
        assert construct_from_layers(data).p == p


class TestShapeRefusals:
    def test_chi_table_entry_of_wrong_dimensions(self):
        with pytest.raises(ShapeError, match="^chi table entry has wrong dimensions$"):
            ChiTable(2, 5, 2, {ExponentMatrix.zero(3): SquareMatrix.identity(2, Residue(1, 5))})
        with pytest.raises(ShapeError, match="^chi table entry has wrong dimensions$"):
            ChiTable(2, 5, 2, {ExponentMatrix.zero(2): SquareMatrix.identity(3, Residue(1, 5))})

    def test_chi_table_key_and_value_types(self):
        one = SquareMatrix.identity(2, Residue(1, 5))
        # a flat tuple, the key type of Polynomial.terms, is not an ExponentMatrix
        message = "^chi table entry {} must map an ExponentMatrix to a SquareMatrix$"
        with pytest.raises(ShapeError, match=message.format(r"\(0, 0, 0\)")):
            ChiTable(3, 5, 2, {(0, 0, 0): one})
        with pytest.raises(ShapeError, match=message.format(re_escape(repr(ExponentMatrix.zero(3))))):
            ChiTable(3, 5, 2, {ExponentMatrix.zero(3): one.entries})

    def test_layer_key_and_image_types(self):
        image = scalar_matrix(E12, 5)
        for key in [(1, 2, 3), (1,), "12", (1, "2"), 12]:
            message = f"^layer key {re_escape(repr(key))} is not an \\(i, j\\) pair of ints$"
            with pytest.raises(ShapeError, match=message):
                LieLayerData(2, 5, 2, [{key: image}])
        with pytest.raises(ShapeError, match=r"^layer image of \(1, 2\) is not a SquareMatrix$"):
            LieLayerData(2, 5, 2, [{(1, 2): image.entries}])

    def test_layer_pair_out_of_range_and_image_of_wrong_size(self):
        image = scalar_matrix(E12, 5)
        with pytest.raises(ShapeError, match=r"^basis pair \(1, 3\) out of range$"):
            LieLayerData(2, 5, 2, [{(1, 3): image}])
        with pytest.raises(ShapeError, match=r"^basis pair \(2, 1\) out of range$"):
            LieLayerData(2, 5, 2, [{(2, 1): image}])
        with pytest.raises(ShapeError, match="^layer image has wrong dimension$"):
            LieLayerData(2, 5, 3, [{(1, 2): image}])

    def test_exponent_matrix(self):
        with pytest.raises(ShapeError, match="^expected a 2x2 matrix$"):
            ExponentMatrix(2, [[0, 1], [0]])
        with pytest.raises(IndexError, match=r"^\(0, 1\) is outside a 2x2 matrix$"):
            ExponentMatrix.zero(2).entry(0, 1)
        with pytest.raises(ShapeError, match="^size mismatch$"):
            ExponentMatrix.zero(2) + ExponentMatrix.zero(3)

    def test_square_matrix(self):
        with pytest.raises(ShapeError, match="^matrix size mismatch$"):
            SquareMatrix([[1]]) + SquareMatrix([[1, 0], [0, 1]])
        with pytest.raises(ValueError, match="^cap must be at least 1$"):
            nilpotency_index(scalar_matrix(E12, 5), 0)

    def test_bch_operands_of_two_sizes(self):
        # a 3 x 3 and a 4 x 4 operand evaluated to a 3 x 3 matrix, [0, 2, 6; 0, 0, 3; 0, 0, 0],
        # where X @ Y and the commutator refuse them; now refused as they are, before the audit
        rng = random.Random(0)
        x, y = random_strict_upper(3, 7, rng), random_strict_upper(4, 7, rng)
        for refused in (lambda: x @ y, lambda: commutator(x, y), lambda: bch_evaluate(bch_components(3), x, y),
                        lambda: bch_evaluate(bch_components(3), y, x)):
            with pytest.raises(ShapeError, match="^matrix size mismatch$"):
                refused()
        x3, y3 = random_strict_upper(3, 3, rng), random_strict_upper(2, 3, rng)  # P_3's 1/12 fails the audit at 3
        with pytest.raises(ShapeError, match="^matrix size mismatch$"):
            bch_evaluate(bch_components(3), x3, y3)

    def test_split_variables_and_search(self):
        with pytest.raises(ShapeError, match=r"^need 1 <= i < j <= n, got \(2, 1\) with n = 3$"):
            l_expression(2, 1, 3)
        with pytest.raises(ShapeError, match="^size mismatch$"):
            brute_solve_yz(ExponentMatrix.zero(2), ExponentMatrix.zero(3))

    def test_matrix_multinomial_parts_of_another_size(self):
        with pytest.raises(ShapeError, match="^parts must have the same size as the whole matrix$"):
            matrix_multinomial([[0, 1], [0, 0]], [[[0, 1, 0], [0, 0, 0], [0, 0, 0]]])


class TestValueRefusals:
    def test_unknown_pointwise_mode(self):
        rep = construct_from_layers(LieLayerData(2, 5, 2, [{(1, 2): scalar_matrix(E12, 5)}]))
        with pytest.raises(HypothesisError, match="^unknown pointwise mode 'random'$"):
            verify_group_law_pointwise(rep, mode="random")

    def test_evaluate_mod_over_q(self):
        # before the refusal it read the Fraction coefficient's .value and raised AttributeError
        point = {(1, 2): 3, (1, 3): 0, (2, 3): 0}
        with pytest.raises(HypothesisError, match="^evaluation mod p needs a positive characteristic$"):
            Polynomial.variable(3, 0, 1, 2).evaluate_mod(point)
        assert Polynomial.variable(3, 5, 1, 2).evaluate_mod(point) == 3

    def test_rep_file_body_and_empty_file(self):
        rep = construct_from_layers(LieLayerData(2, 5, 2, [{(1, 2): scalar_matrix(E12, 5)}]))
        with pytest.raises(ValueError, match="^unknown body format 'xml'$"):
            write_rep_file(rep, body="xml")
        with pytest.raises(ParseError, match="^line 1: empty file$"):
            parse_rep_file("")

    def test_no_layers(self):
        with pytest.raises(ValueError, match="^need at least one layer$"):
            random_layer_data(3, 2, 7, num_layers=0, seed=0)

    def test_empty_bracket_sequence(self):
        with pytest.raises(ValueError, match="^empty bracket sequence$"):
            left_nested_expand(())

    def test_residue_out_of_its_field(self):
        with pytest.raises(ConversionError, match="^cannot lift a residue to characteristic zero$"):
            coerce_scalar(Residue(1, 5), 0)
        with pytest.raises(ModulusMismatchError, match="^residue mod 5 used where mod 7 expected$"):
            coerce_scalar(Residue(1, 5), 7)

    @pytest.mark.parametrize("p", [0, 5])
    @pytest.mark.parametrize("value", [0.1, 0.5, "1/2", "3", Decimal("0.5"), None, [1]])
    def test_only_field_scalars_are_coerced(self, value, p):
        # before, anything Fraction() parses was read: 0.1 as 3602879701896397/2^55
        message = f"^{re_escape(repr(value))} is not a field scalar \\(an int, Fraction or Residue\\)$"
        with pytest.raises(TypeError, match=message):
            coerce_scalar(value, p)
        with pytest.raises(TypeError, match=message):
            scalar_matrix([[value]], p)
        with pytest.raises(TypeError, match=message):
            Polynomial(2, p, {(1,): value})

    @pytest.mark.parametrize("other", [Fraction(1, 2), 1.5])
    def test_residue_refuses_non_integers(self, other):
        with pytest.raises(TypeError):
            Residue(1, 5) + other
        with pytest.raises(TypeError):
            Residue(1, 5) / other


class TestSplittingInputs:
    @pytest.mark.parametrize("args", [(1.0, 2, 1), (True, 2, 1), ("1", 2, 1), (1, 2.0, 1), (1, 2, False)])
    def test_split_variable_takes_exact_ints(self, args):
        with pytest.raises(ShapeError, match=rf"^split variable indices must be ints, got {re_escape(repr(args))}$"):
            SplitVarId(*args)

    @pytest.mark.parametrize("value", [1.5, True, "1", Fraction(1)])
    def test_splitting_values_are_ints(self, value):
        message = f"a splitting maps SplitVarIds to ints, got SplitVarId(i=1, j=2, k=1): {value!r}"
        with pytest.raises(ShapeError, match=f"^{re_escape(message)}$"):
            Splitting(3, {SplitVarId(1, 2, 1): value})

    def test_splitting_keys_are_split_variables(self):
        # a plain tuple equals its SplitVarId but is not one
        assert (1, 2, 1) == SplitVarId(1, 2, 1)
        for key in ((1, 2, 1), "s_12^1"):
            message = f"a splitting maps SplitVarIds to ints, got {key!r}: 1"
            with pytest.raises(ShapeError, match=f"^{re_escape(message)}$"):
                Splitting(3, {key: 1})


class TestPublicOperations:
    def test_scalar_minus_polynomial(self):
        f = 2 * Polynomial.variable(3, 7, 1, 2) + 1
        assert 3 - f == Polynomial.constant(3, 7, 2) - 2 * Polynomial.variable(3, 7, 1, 2)
        assert str(3 - f) == "2 + 5*x12"

    def test_equal_splittings_hash_alike(self):
        s = Splitting(3, {SplitVarId(1, 2, 1): 2, SplitVarId(1, 3, 2): 1})
        t = Splitting(3, {SplitVarId(1, 3, 2): 1, SplitVarId(1, 2, 1): 2, SplitVarId(2, 3, 1): 0})
        assert s == t and hash(s) == hash(t)
        assert len({s, t}) == 1

    def test_zero_free_element(self):
        zero = FreeElement()
        assert str(zero) == "0"
        assert not zero
        assert zero.max_degree() == 0

    def test_brute_search_stops_at_a_forced_value_past_the_bound(self):
        # n = 2 has the variables s_12^1 (R_12) and s_12^2 (L_12): Y = 3 eps_12
        # forces s_12^2 = 3, which is past bound 2
        Y = ExponentMatrix.epsilon(2, 1, 2, 3)
        assert brute_solve_yz(Y, ExponentMatrix.zero(2), bound=2) == []
        assert len(brute_solve_yz(Y, ExponentMatrix.zero(2), bound=3)) == 1
