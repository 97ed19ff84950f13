"""The representing Hopf algebra: polynomials, coproduct, counit."""

import copy
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unirep.arith import Residue
from unirep.errors import ShapeError
from unirep.hopf import (
    ExponentMatrix,
    Polynomial,
    TensorElement,
    coproduct,
    counit,
    tensor_of,
    variable_pairs,
)
from unirep.reps import ChiTable, Representation
from unirep.samples import random_chi_support

from oracles import reference_poly_str, reference_power


def x(n, p, i, j):
    return Polynomial.variable(n, p, i, j)


def matrix(n, flat):
    """The exponent matrix with these flat entries, through the checked constructor."""
    entries = iter(flat)
    return ExponentMatrix(n, [[next(entries) if j > i else 0 for j in range(n)] for i in range(n)])


def as_pairs(t):
    """The terms of t keyed by (left, right) pairs of checked exponent matrices."""
    half = t.n * (t.n - 1) // 2
    return {(matrix(t.n, k[:half]), matrix(t.n, k[half:])): c for k, c in t.terms.items()}


def from_pairs(n, p, terms):
    """The tensor element with these pair-keyed terms, flattened only here."""
    return TensorElement(n, p, {left.flat + right.flat: c for (left, right), c in terms.items()})


class TestExponentMatrix:
    def test_strictly_upper_enforced(self):
        with pytest.raises(ShapeError):
            ExponentMatrix(2, ((1, 0), (0, 0)))
        with pytest.raises(ShapeError):
            ExponentMatrix(2, ((0, -1), (0, 0)))

    def test_positions_row_major(self):
        m = ExponentMatrix(3, ((0, 2, 1), (0, 0, 3), (0, 0, 0)))
        assert list(m.positions()) == [((1, 2), 2), ((1, 3), 1), ((2, 3), 3)]
        assert m.total_degree() == 6

    def test_epsilon_and_add(self):
        e = ExponentMatrix.epsilon(3, 1, 3, 2)
        assert e.entry(1, 3) == 2
        assert (e + e).entry(1, 3) == 4
        assert e.scale(3).entry(1, 3) == 6


class TestPolynomialRing:
    def test_ring_axioms_sample(self):
        f = x(3, 7, 1, 2) + 2 * x(3, 7, 2, 3)
        g = x(3, 7, 1, 3) - 1
        h = x(3, 7, 1, 2)
        assert f * (g + h) == f * g + f * h
        assert f * g == g * f

    def test_zero_coefficients_dropped(self):
        f = x(3, 5, 1, 2) + 4 * x(3, 5, 1, 2)
        assert not f.terms  # 1 + 4 = 0 mod 5

    def test_power_binary_char_zero(self):
        f = x(3, 0, 1, 2) + 1
        cube = f**3
        assert cube.coefficient(ExponentMatrix.epsilon(3, 1, 2, 2)) == Fraction(3)

    def test_freshman_dream(self):
        p = 5
        f = x(3, p, 1, 2) + x(3, p, 2, 3)
        fp = f**p
        assert fp == x(3, p, 1, 2) ** p + x(3, p, 2, 3) ** p
        assert fp.coefficient(ExponentMatrix.epsilon(3, 1, 2, p)) == Residue(1, p)

    @given(st.integers(0, 60))
    @settings(max_examples=25, deadline=None)
    def test_power_matches_repeated_product(self, m):
        p = 5
        f = x(3, p, 1, 2) + 2 * x(3, p, 1, 3) + 3
        slow = Polynomial.one(3, p)
        for _ in range(m):
            slow = slow * f
        assert f**m == slow

    def test_evaluate_mod(self):
        p = 7
        f = x(3, p, 1, 2) * x(3, p, 2, 3) + 2
        assert f.evaluate_mod({(1, 2): 3, (1, 3): 0, (2, 3): 4}) == (3 * 4 + 2) % p


class TestCoproduct:
    def test_generator_formula(self):
        # Delta(x_13) = 1 (x) x_13 + x_12 (x) x_23 + x_13 (x) 1
        t = coproduct(x(3, 0, 1, 3))
        z = ExponentMatrix.zero(3)
        e = ExponentMatrix.epsilon
        assert as_pairs(t) == {
            (z, e(3, 1, 3)): Fraction(1),
            (e(3, 1, 2), e(3, 2, 3)): Fraction(1),
            (e(3, 1, 3), z): Fraction(1),
        }
        # flat keys: x12, x13, x23 of the left factor, then of the right
        assert t.terms == {(0, 0, 0, 0, 1, 0): 1, (1, 0, 0, 0, 0, 1): 1, (0, 1, 0, 0, 0, 0): 1}

    def test_superdiagonal_is_primitive(self):
        t = coproduct(x(4, 0, 2, 3))
        assert len(t.terms) == 2

    def test_multiplicative(self):
        f = x(3, 7, 1, 2) + 3
        g = x(3, 7, 1, 3) * x(3, 7, 2, 3)
        assert coproduct(f * g) == coproduct(f) * coproduct(g)

    def test_counit(self):
        f = x(3, 0, 1, 2) * x(3, 0, 1, 3) + Fraction(5, 2)
        assert counit(f) == Fraction(5, 2)

    def test_coassociativity_on_generators(self):
        # (Delta (x) 1) Delta = (1 (x) Delta) Delta checked by triple expansion
        n, p = 4, 0
        for i, j in variable_pairs(n):
            t = coproduct(Polynomial.variable(n, p, i, j))
            left = {}
            right = {}
            for (l, r), c in as_pairs(t).items():
                for (ll, lr), cc in as_pairs(coproduct(Polynomial(n, p, {l: 1}))).items():
                    key = (ll, lr, r)
                    left[key] = left.get(key, 0) + c * cc
                for (rl, rr), cc in as_pairs(coproduct(Polynomial(n, p, {r: 1}))).items():
                    key = (l, rl, rr)
                    right[key] = right.get(key, 0) + c * cc
            assert {k: v for k, v in left.items() if v} == {k: v for k, v in right.items() if v}


class TestSubstitution:
    def test_variable_power_substitution(self):
        # [[1, 2a + 3b], [0, 1]] with cubes substituted: coefficients untouched
        n, p = 3, 0
        f = 2 * x(n, p, 1, 2) + 3 * x(n, p, 1, 3)
        g = f.scale_exponents(3)
        assert g == 2 * x(n, p, 1, 2) ** 3 + 3 * x(n, p, 1, 3) ** 3

    def test_tensor_substitution(self):
        t = tensor_of(x(3, 5, 1, 2), x(3, 5, 2, 3))
        s = t.scale_exponents(5)
        assert s == tensor_of(x(3, 5, 1, 2) ** 5, x(3, 5, 2, 3) ** 5)

    def test_coproduct_commutes_with_p_power(self):
        # Delta(f^[p]) = Delta(f)^[p] for monomial substitution in char p
        p = 5
        rng = random.Random(0)
        for _ in range(5):
            f = sum(
                (rng.randrange(p) * x(3, p, i, j) for i, j in variable_pairs(3)),
                Polynomial.constant(3, p, rng.randrange(p)),
            )
            assert coproduct(f.scale_exponents(p)) == coproduct(f).scale_exponents(p)

    def test_rejects_zero_power(self):
        with pytest.raises(ValueError):
            x(3, 5, 1, 2).scale_exponents(0)

    @pytest.mark.parametrize("e", [0, -1, 2.0, True, "2"])
    def test_scale_exponents_refuses_powers_below_one(self, e):
        # e = 0 would send distinct monomials to the one key 1 and drop terms
        f = x(3, 7, 1, 2) + x(3, 7, 1, 3)
        for obj in (f, coproduct(x(3, 7, 1, 3)), coproduct(f)):
            with pytest.raises(ValueError, match=f"must be an integer at least 1, got {e!r}"):
                obj.scale_exponents(e)


class TestTensorElement:
    def test_product(self):
        a = tensor_of(x(3, 0, 1, 2), Polynomial.one(3, 0))
        b = tensor_of(Polynomial.one(3, 0), x(3, 0, 2, 3))
        ab = a * b
        key = ExponentMatrix.epsilon(3, 1, 2).flat + ExponentMatrix.epsilon(3, 2, 3).flat
        assert ab.terms == {key: Fraction(1)}
        assert as_pairs(ab) == {(ExponentMatrix.epsilon(3, 1, 2), ExponentMatrix.epsilon(3, 2, 3)): Fraction(1)}

    def test_power_freshman_dream(self):
        p = 5
        t = coproduct(x(3, p, 1, 3))
        tp = t**p
        assert tp == t.scale_exponents(p)


# --- entry-arithmetic references for the int/Fraction term kernel -----------

PRIMES = [0, 2, 5, 13, 2**31 - 1]


def reference_poly_mul(f, g):
    """Key sums and coefficient products in the coefficients' own arithmetic,
    coerced again by the constructor."""
    terms = {}
    for ka, ca in f.terms.items():
        for kb, cb in g.terms.items():
            rows_a, rows_b = matrix(f.n, ka).rows, matrix(f.n, kb).rows
            key = ExponentMatrix(f.n, [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(rows_a, rows_b)])
            terms[key] = terms.get(key, 0) + ca * cb
    return Polynomial(f.n, f.p, terms)


def reference_sum(cls, s, t):
    terms = dict(s.terms)
    for k, c in t.terms.items():
        terms[k] = terms.get(k, 0) + c
    return cls(s.n, s.p, terms)


def reference_tensor_mul(s, t):
    """Pair keys summed half by half through the checked constructor."""
    terms = {}
    for (la, ra), ca in as_pairs(s).items():
        for (lb, rb), cb in as_pairs(t).items():
            key = (reference_key_sum(la, lb), reference_key_sum(ra, rb))
            terms[key] = terms.get(key, 0) + ca * cb
    return from_pairs(s.n, s.p, terms)


def reference_key_sum(a, b):
    return ExponentMatrix(a.n, [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)])


def pairwise_coproduct(poly):
    """The algebra-map extension summed as out + acc * c, term by term."""
    n, p = poly.n, poly.p
    out = TensorElement(n, p)
    for key, c in poly.terms.items():
        acc = from_pairs(n, p, {(ExponentMatrix.zero(n), ExponentMatrix.zero(n)): 1})
        for (i, j), m in matrix(n, key).positions():
            z = ExponentMatrix.zero(n)
            gen = {(z, ExponentMatrix.epsilon(n, i, j)): 1, (ExponentMatrix.epsilon(n, i, j), z): 1}
            for k in range(i + 1, j):
                gen[(ExponentMatrix.epsilon(n, i, k), ExponentMatrix.epsilon(n, k, j))] = 1
            for _ in range(m):
                acc = reference_tensor_mul(acc, from_pairs(n, p, gen))
        out = reference_sum(TensorElement, out, TensorElement(n, p, {k: v * c for k, v in acc.terms.items()}))
    return out


def random_poly(rng, n, p, size, max_exp=2):
    terms = {}
    for _ in range(size):
        rows = [[rng.randint(0, max_exp) if j > i else 0 for j in range(n)] for i in range(n)]
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 4)) if p == 0 else rng.randrange(p)
        terms[ExponentMatrix(n, rows)] = c
    return Polynomial(n, p, terms)


def random_tensor(rng, n, p, size):
    f, g = random_poly(rng, n, p, size), random_poly(rng, n, p, size)
    terms = {}
    for (kf, cf), (kg, _) in zip(f.terms.items(), g.terms.items()):
        terms[(matrix(n, kf), matrix(n, kg))] = cf
    return from_pairs(n, p, terms)


class TestKernelAgainstReference:
    @pytest.mark.parametrize("p", PRIMES)
    def test_polynomial_products_and_sums(self, p):
        rng = random.Random(p)
        for _ in range(30):
            n = rng.randint(2, 4)
            f = random_poly(rng, n, p, rng.randint(0, 6))
            g = random_poly(rng, n, p, rng.randint(0, 6))
            assert (f * g).terms == reference_poly_mul(f, g).terms
            assert (f + g).terms == reference_sum(Polynomial, f, g).terms
            assert (f - f).terms == {}
            c = rng.randrange(max(p, 7))
            assert (f * c).terms == Polynomial(n, p, {k: v * c for k, v in f.terms.items()}).terms

    @pytest.mark.parametrize("p", PRIMES)
    def test_tensor_products_and_sums(self, p):
        rng = random.Random(100 + p)
        for _ in range(20):
            n = rng.randint(2, 4)
            s, t = random_tensor(rng, n, p, rng.randint(0, 5)), random_tensor(rng, n, p, rng.randint(0, 5))
            assert (s * t).terms == reference_tensor_mul(s, t).terms
            assert (s + t).terms == reference_sum(TensorElement, s, t).terms
            assert (s - s).terms == {}

    @pytest.mark.parametrize("p", PRIMES)
    def test_coproduct(self, p):
        rng = random.Random(200 + p)
        for _ in range(8):
            n = rng.randint(2, 4)
            f = random_poly(rng, n, p, rng.randint(0, 5))
            assert coproduct(f).terms == pairwise_coproduct(f).terms

    @pytest.mark.parametrize("p", PRIMES)
    def test_tensor_of(self, p):
        rng = random.Random(300 + p)
        for _ in range(15):
            n = rng.randint(2, 4)
            f, g = random_poly(rng, n, p, rng.randint(0, 4)), random_poly(rng, n, p, rng.randint(0, 4))
            expected = from_pairs(n, p, {(matrix(n, kf), matrix(n, kg)): cf * cg for kf, cf in f.terms.items()
                                         for kg, cg in g.terms.items()})
            assert tensor_of(f, g).terms == expected.terms

    def test_coefficients_are_reduced_field_elements(self):
        p = 2**31 - 1
        f = random_poly(random.Random(1), 3, p, 5)
        for c in (f * f).terms.values():
            assert type(c) is Residue and c.p == p and 0 < c.value < p
        g = random_poly(random.Random(2), 3, 0, 5)
        assert all(type(c) is Fraction and c for c in (g * g).terms.values())

    def test_operands_unchanged(self):
        f = x(3, 5, 1, 2) + 2 * x(3, 5, 2, 3) + 1
        before = dict(f.terms)
        f * f, f + f, -f, f * 3, coproduct(f)
        assert f.terms == before


# --- the TensorElement-product coproduct, kept as the oracle ------------------


def generator_coproduct(n, p, i, j):
    """Delta(x_ij) on flat keys: x_ab of the left factor at its index in
    variable_pairs(n), of the right factor N places further."""
    pairs = variable_pairs(n)
    N, ij = len(pairs), pairs.index((i, j))
    ones = [(N + ij,), (ij,)] + [(pairs.index((i, k)), N + pairs.index((k, j))) for k in range(i + 1, j)]
    return TensorElement(n, p, {tuple(int(pos in at) for pos in range(2 * N)): 1 for at in ones})


def reference_coproduct(poly):
    """Each term's image as a TensorElement product of generator coproduct
    powers, reduced into the field after every product."""
    n, p = poly.n, poly.p
    sums = {}
    for key, c in poly.terms.items():
        image = TensorElement.one(n, p)
        for (i, j), m in matrix(n, key).positions():
            image = image * generator_coproduct(n, p, i, j) ** m
        for k, v in image.terms.items():
            sums[k] = sums.get(k, 0) + v * c
    return TensorElement(n, p, sums)


class TestCoproductOracle:
    """The coproduct from per-generator multinomial weights on ints against
    the TensorElement products it replaced."""

    @pytest.mark.parametrize("p", [0, 5, 7, 11])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_seeded_polynomials(self, n, p):
        # p^l, p^l + 1 and 2p take the digit-by-digit expansion through
        # zero digits, digits above 1 and exponents scaled by p^2
        exponents = (1, p, p + 1, 2 * p, p * p, p * p + 1) if p else (1, 2, 3, 4)
        rng = random.Random(10 * n + p)
        pairs = variable_pairs(n)
        polys = [Polynomial.zero(n, p), Polynomial.constant(n, p, 3)]
        for _ in range(6 if pairs else 0):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                flat = [0] * len(pairs)
                for at in rng.sample(range(len(pairs)), min(2, len(pairs))):
                    flat[at] = rng.choice(exponents)
                terms[matrix(n, flat)] = rng.randint(1, 20)
            polys.append(Polynomial(n, p, terms))
        for f in polys:
            assert coproduct(f).terms == reference_coproduct(f).terms

    @pytest.mark.parametrize("p", [0, 5, 7, 11])
    def test_every_entry_of_chi_tables(self, p):
        for n, count, seed in ((3, 4, p), (4, 3, p + 1)):
            chi = ChiTable(n, p, 2, random_chi_support(n, 2, p, count, seed, max_entry=2))
            for row in Representation(chi).poly_matrix.entries:
                for f in row:
                    assert coproduct(f).terms == reference_coproduct(f).terms


class TestKeys:
    def keys(self, n, seed, count=40):
        rng = random.Random(seed)
        out = []
        for _ in range(count):
            rows = [[rng.randint(0, 3) if j > i else 0 for j in range(n)] for i in range(n)]
            out.append((rows, ExponentMatrix(n, rows)))
        return out

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_trusted_sum_and_scale_equal_checked_construction(self, n):
        keys = self.keys(n, n)
        for (ra, a), (rb, b) in zip(keys, keys[1:]):
            checked = ExponentMatrix(n, [[u + v for u, v in zip(x, y)] for x, y in zip(ra, rb)])
            assert a + b == checked and hash(a + b) == hash(checked)
            assert (a + b).flat == checked.flat and (a + b).rows == checked.rows
            for e in (0, 1, 7):
                scaled = ExponentMatrix(n, [[e * u for u in x] for x in ra])
                assert a.scale(e) == scaled and hash(a.scale(e)) == hash(scaled)

    def test_equal_keys_hash_equal(self):
        a = ExponentMatrix(3, ((0, 1, 2), (0, 0, 3), (0, 0, 0)))
        b = ExponentMatrix.epsilon(3, 1, 2) + ExponentMatrix.epsilon(3, 1, 3, 2) + ExponentMatrix.epsilon(3, 2, 3, 3)
        assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
        assert a != ExponentMatrix.zero(3) and a != a.flat
        assert ExponentMatrix.zero(0) != ExponentMatrix.zero(1)  # both have empty flats

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sort_key_order_is_row_major_order(self, n):
        keys = [m for _, m in self.keys(n, 10 + n)]
        row_major = sorted(keys, key=lambda m: tuple(v for r in m.rows for v in r))
        assert sorted(keys, key=ExponentMatrix.sort_key) == row_major

    def test_rows_view_and_entries(self):
        rows = ((0, 2, 1), (0, 0, 3), (0, 0, 0))
        m = ExponentMatrix(3, rows)
        assert m.rows == rows and m.flat == (2, 1, 3)
        assert [m.entry(i, j) for i in (1, 2, 3) for j in (1, 2, 3)] == [v for r in rows for v in r]
        assert ExponentMatrix(3, m.rows) == m
        assert repr(m) == "ExponentMatrix(n=3, rows=((0, 2, 1), (0, 0, 3), (0, 0, 0)))"
        assert ExponentMatrix.epsilon(4, 2, 4, 5).rows[1][3] == 5

    def test_immutable(self):
        m = ExponentMatrix.epsilon(3, 1, 2)
        for name, value in (("n", 4), ("flat", (9, 9, 9)), ("rows", ())):
            with pytest.raises(AttributeError):
                setattr(m, name, value)
        with pytest.raises(AttributeError):
            del m.flat
        assert m.flat == (1, 0, 0) and isinstance(m.flat, tuple)
        assert copy.deepcopy(m) == m and pickle.loads(pickle.dumps(m)) == m

    @pytest.mark.parametrize("bad", [0.5, 1.0, True, False, "1", None])
    def test_constructor_rejects_non_integer_entries(self, bad):
        with pytest.raises(ShapeError):
            ExponentMatrix(2, ((0, bad), (0, 0)))

    @pytest.mark.parametrize("args", [(3, 2, 1), (3, 1, 2, -1), (3, 1, 2, 0.5), (3, 1, 2, True)])
    def test_epsilon_checks(self, args):
        with pytest.raises(ShapeError):
            ExponentMatrix.epsilon(*args)

    def test_negative_scale_still_checked(self):
        with pytest.raises(ShapeError):
            ExponentMatrix.epsilon(3, 1, 2).scale(-1)


class TestSharedTermAlgebra:
    """Polynomial and TensorElement share one term algebra; the strings, the
    key layouts and the type boundary between them are pinned here."""

    @pytest.mark.parametrize("p, poly, tensor", [
        (0, "7/2 + 1*x13*x23^2 + 4*x12",
         "-2/3*(1)(x)(1) + -2*(1)(x)(x23^2) + 1*(1)(x)(x13) + 1*(x13)(x)(1) + 1/3*(x12)(x)(1)"
         " + 1*(x12)(x)(x23) + 1*(x12)(x)(x23^2)"),
        (5, "1 + 1*x13*x23^2 + 4*x12",
         "1*(1)(x)(1) + 3*(1)(x)(x23^2) + 1*(1)(x)(x13) + 1*(x13)(x)(1) + 2*(x12)(x)(1)"
         " + 1*(x12)(x)(x23) + 1*(x12)(x)(x23^2)"),
    ])
    def test_golden_strings(self, p, poly, tensor):
        f = 4 * x(3, p, 1, 2) + x(3, p, 1, 3) * x(3, p, 2, 3) ** 2 + Fraction(7, 2)
        t = tensor_of(x(3, p, 1, 2) - 2, x(3, p, 2, 3) ** 2 + Fraction(1, 3)) + coproduct(x(3, p, 1, 3))
        assert str(f) == repr(f) == poly
        assert str(t) == repr(t) == tensor
        assert str(Polynomial.zero(3, p)) == str(TensorElement.zero(3, p)) == "0"

    def test_types_do_not_mix(self):
        f = x(3, 5, 1, 2) + 1
        t = coproduct(f)
        for combine in (lambda: f * t, lambda: t * f, lambda: t + 1, lambda: t - 1,
                        lambda: t + f, lambda: f + t, lambda: f - t):
            with pytest.raises(ShapeError):
                combine()
        assert f != t and t != f
        assert not isinstance(t, Polynomial) and not isinstance(f, TensorElement)

    @pytest.mark.parametrize("other", [coproduct(x(4, 5, 1, 2)), coproduct(x(3, 7, 1, 2)),
                                       coproduct(x(3, 0, 1, 2))])
    def test_tensors_from_different_rings_do_not_mix(self, other):
        t = coproduct(x(3, 5, 1, 2))
        for combine in (lambda: t + other, lambda: t - other, lambda: t * other, lambda: other * t):
            with pytest.raises(ShapeError):
                combine()
        assert t != other

    # a key is one flat tuple of 2N = 6 ints >= 0 for n = 3
    @pytest.mark.parametrize("key", [
        "junk",
        (0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (0, 0, -1, 0, 0, 0),
        (0, 0, True, 0, 0, 0),
        (0, 0, 1.0, 0, 0, 0),
        (ExponentMatrix.zero(3), ExponentMatrix.epsilon(3, 1, 2)),
        (0,) * 12,
    ])
    def test_tensor_constructor_refuses_bad_keys(self, key):
        with pytest.raises(ShapeError, match="is not a flat tuple of 2N exponents of size 3"):
            TensorElement(3, 5, {key: 1})

    def test_tensor_constructor_accepts_flat_keys_and_drops_zero_terms(self):
        z, e = ExponentMatrix.zero(3), ExponentMatrix.epsilon(3, 1, 2)
        t = TensorElement(3, 5, {z.flat + e.flat: 6, e.flat + z.flat: 5})
        assert t.terms == {(0, 0, 0, 1, 0, 0): Residue(1, 5)}
        assert t.coefficient(z, e) == Residue(1, 5) and t.coefficient(e, z) == Residue(0, 5)

    def test_polynomial_constructor_refuses_bad_keys(self):
        for key in (ExponentMatrix.zero(2), (ExponentMatrix.zero(3), ExponentMatrix.zero(3)), "junk"):
            with pytest.raises(ShapeError):
                Polynomial(3, 5, {key: 1})
        # a key is checked whatever its coefficient: 0, and 5 = 0 mod 5, with the wrong width
        for terms in ({"junk": 0}, {(1, 2): 5}):
            with pytest.raises(ShapeError):
                Polynomial(3, 5, terms)

    def test_shared_operations_agree_on_both_layouts(self):
        # a polynomial f and the tensor f (x) 1 have the same arithmetic
        p = 7
        one = Polynomial.one(3, p)
        f = x(3, p, 1, 2) + 2 * x(3, p, 2, 3) + 3
        g = x(3, p, 1, 3) - 1
        for lhs, rhs in ((f * g, tensor_of(f, one) * tensor_of(g, one)),
                         (f + g, tensor_of(f, one) + tensor_of(g, one)),
                         (f - g, tensor_of(f, one) - tensor_of(g, one)),
                         (-f, -tensor_of(f, one)),
                         (f * 3, 3 * tensor_of(f, one)),
                         (f ** 9, tensor_of(f, one) ** 9)):
            assert tensor_of(lhs, one) == rhs
        assert not TensorElement.zero(3, p) and tensor_of(f, one)
        assert TensorElement.one(3, p) == tensor_of(one, one)


class TestFlatPolynomialKeys:
    """Polynomial terms are keyed by the flat tuple of their N exponents, in
    variable_pairs(n) order, as TensorElement keys its 2N."""

    @pytest.mark.parametrize("p", PRIMES)
    def test_keys_round_trip_and_render_as_exponent_matrices(self, p):
        rng = random.Random(400 + p)
        for _ in range(25):
            n = rng.randint(1, 4)
            N = n * (n - 1) // 2
            f = random_poly(rng, n, p, rng.randint(0, 6))
            for g in (f, f * f + 3, f.scale_exponents(rng.randint(1, 4)), f**2 - f, Polynomial.one(n, p)):
                assert all(type(k) is tuple and len(k) == N and all(type(v) is int and v >= 0 for v in k)
                           for k in g.terms)
                assert Polynomial(n, p, g.terms) == g
                assert str(g) == repr(g) == reference_poly_str(g)
                for k, c in g.terms.items():
                    M = matrix(n, k)
                    assert g.coefficient(M) == g.coefficient(M.flat) == c
                if N:  # every exponent 99 is in none of them
                    absent = matrix(n, (99,) * N)
                    assert g.coefficient(absent) == g.coefficient(absent.flat) == Polynomial.zero(n, p).constant_term()

    def test_constructor_reads_exponent_matrices_as_their_flats(self):
        e = ExponentMatrix.epsilon
        f = Polynomial(3, 7, {e(3, 1, 2, 2): 3, e(3, 2, 3).flat: 1, ExponentMatrix.zero(3): 5})
        assert f.terms == {(2, 0, 0): Residue(3, 7), (0, 0, 1): Residue(1, 7), (0, 0, 0): Residue(5, 7)}
        assert f == 3 * x(3, 7, 1, 2) ** 2 + x(3, 7, 2, 3) + 5
        assert f.constant_term() == counit(f) == Residue(5, 7)

    @pytest.mark.parametrize("cls, width", [(Polynomial, 3), (TensorElement, 6)])
    @pytest.mark.parametrize("bad", ["other n", "short", "long", "negative", "float", "bool"])
    def test_both_types_refuse_bad_keys(self, cls, width, bad):
        key = {"other n": ExponentMatrix.epsilon(4 if width == 3 else 2, 1, 2),
               "short": (0,) * (width - 1),
               "long": (0,) * (width + 1),
               "negative": (0,) * (width - 1) + (-1,),
               "float": (0,) * (width - 1) + (1.0,),
               "bool": (True,) + (0,) * (width - 1)}[bad]
        for c in (1, 0, 5, Fraction(10, 3)):  # the last three are 0 mod 5
            with pytest.raises(ShapeError, match="is not"):
                cls(3, 5, {key: c})

    def test_tensor_refuses_exponent_matrices_of_its_own_n(self):
        with pytest.raises(ShapeError):
            TensorElement(3, 5, {ExponentMatrix.zero(3): 1})


# --- one square-and-multiply loop against the per-digit products -----------

POWER_PRIMES = [0, 2, 5, 101, 2**31 - 1]


@st.composite
def powers(draw):
    """(base, m): a Polynomial or TensorElement of up to three terms, and m
    with up to three p-ary digits of at most 4, m <= p^2 + p (m <= 8 at p = 0)."""
    p = draw(st.sampled_from(POWER_PRIMES))
    n = draw(st.integers(2, 3))
    cls = draw(st.sampled_from([Polynomial, TensorElement]))
    width = (1 if cls is Polynomial else 2) * n * (n - 1) // 2
    keys = st.tuples(*[st.integers(0, 2)] * width)
    coefficients = st.integers(-3, 3) if p else st.fractions(-3, 3, max_denominator=4)
    base = cls(n, p, draw(st.dictionaries(keys, coefficients, min_size=1, max_size=3)))
    if not p:
        return base, draw(st.integers(0, 8))
    digits = draw(st.lists(st.integers(0, min(p - 1, 4)), min_size=1, max_size=3))
    return base, min(sum(c * p**l for l, c in enumerate(digits)), p * p + p)


class TestPower:
    @given(powers())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_power(self, case):
        base, m = case
        got, want = base**m, reference_power(base, m)
        assert got == want
        assert str(got) == str(want)

    @pytest.mark.parametrize("p", POWER_PRIMES)
    def test_negative_power_refused(self, p):
        for f in (x(3, p, 1, 2) + 1, coproduct(x(3, p, 1, 3))):
            with pytest.raises(ValueError, match="^negative power$"):
                f ** -1

    def test_large_power_of_a_variable_is_one_digit_of_squarings(self):
        f = Polynomial.variable(3, 2**31 - 1, 1, 2)
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            g = f ** 2**18
            elapsed.append(time.perf_counter() - start)
        assert g == Polynomial(3, 2**31 - 1, {ExponentMatrix.epsilon(3, 1, 2, 2**18): 1})
        assert min(elapsed) < 0.01
