"""The series log(e^x e^y), its components, and the projection machinery."""

import random
from fractions import Fraction
from math import factorial

import pytest

from unirep.arith import coerce_scalar
from unirep.bch import (
    FreeElement,
    bch_components,
    bch_evaluate,
    bracket_expand,
    bracket_normalize,
    denominator_audit,
    dynkin_projection,
    homogeneous_component,
    left_nested_expand,
    log_product_series,
)
from unirep.errors import SeriesTerminationError
from unirep.linalg import exp_nilpotent, log_unipotent
from unirep.samples import random_strict_upper


def F(terms):
    return FreeElement(terms)


# Reference implementations: the short per-word algorithms that the shared
# prefix/suffix ones in unirep.bch replaced, kept as oracles.


def reference_series(max_degree):
    """log(e^x e^y) to max_degree by enumerating every block tuple."""
    out = {}

    def extend(k, degree, w, denom):
        if k > 0:
            out[w] = out.get(w, 0) + Fraction((-1) ** (k - 1), k * denom)
        for total in range(1, max_degree - degree + 1):
            for a in range(total + 1):
                b = total - a
                extend(k + 1, degree + total, w + ("x",) * a + ("y",) * b,
                       denom * factorial(a) * factorial(b))

    extend(0, 0, (), 1)
    return FreeElement(out)


def reference_projection(e):
    """Word by word: c * w -> (c/len(w)) * left_nested_expand(w)."""
    out = FreeElement.zero()
    for w, c in e.terms.items():
        out = out + left_nested_expand(w, Fraction(c, len(w)))
    return out


def reference_evaluate(components, X, Y, p):
    """One matmul chain per word; the empty word is the identity."""
    gens = {"x": X, "y": Y}
    result = X.zero_like()
    for comp in components:
        for w, c in comp.terms.items():
            m = X.identity_like()
            for letter in w:
                m = m @ gens[letter]
            result = result + m.scale(coerce_scalar(c, p))
    return result


def random_element(rng, lengths, count, denominators=(1, 2, 3, 4)):
    """Seeded random combination of words with the given lengths; not Lie in
    general."""
    return F({
        tuple(rng.choice("xy") for _ in range(rng.choice(lengths))):
            Fraction(rng.randint(-9, 9), rng.choice(denominators))
        for _ in range(count)
    })


class TestGoldenComponents:
    def test_p1(self):
        assert bch_components(1)[0] == F({("x",): 1, ("y",): 1})

    def test_p2(self):
        assert bch_components(2)[1] == F({("x", "y"): Fraction(1, 2), ("y", "x"): Fraction(-1, 2)})

    def test_p3_six_terms(self):
        expected = F({
            ("x", "x", "y"): Fraction(1, 12),
            ("x", "y", "x"): Fraction(-1, 6),
            ("x", "y", "y"): Fraction(1, 12),
            ("y", "x", "x"): Fraction(1, 12),
            ("y", "x", "y"): Fraction(-1, 6),
            ("y", "y", "x"): Fraction(1, 12),
        })
        assert bch_components(3)[2] == expected

    def test_components_partition_series(self):
        series = log_product_series(4)
        total = FreeElement.zero()
        for comp in bch_components(4):
            total = total + comp
        assert total == series
        assert homogeneous_component(series, 2) == bch_components(4)[1]

    @pytest.mark.parametrize("m", range(1, 9))
    def test_series_matches_tuple_enumeration(self, m):
        assert log_product_series(m) == reference_series(m)

    def test_term_counts_to_degree_10(self):
        counts = [len(comp.terms) for comp in bch_components(10)]
        assert counts == [2, 2, 6, 4, 30, 28, 126, 124, 390, 388]

    def test_components_hold_checked_terms(self):
        # the series and its slices skip FreeElement's checks; re-checking
        # them must change nothing
        for m, comp in enumerate(bch_components(10), start=1):
            assert FreeElement(comp.terms).terms == comp.terms
            assert all(len(w) == m and type(c) is Fraction and c for w, c in comp.terms.items())
        for comp in bch_components(6):
            projected = dynkin_projection(comp)
            assert FreeElement(projected.terms).terms == projected.terms

    def test_outside_construction_is_checked(self):
        with pytest.raises(ValueError):
            FreeElement({("x", "z"): 1})
        e = FreeElement({("x",): 2, ("y",): 0})
        assert e.terms == {("x",): Fraction(2)} and type(e.terms[("x",)]) is Fraction

    def test_cached_components_are_immutable(self):
        comps = bch_components(3)
        with pytest.raises(TypeError):
            comps[0] = None
        assert bch_components(3)[0] == F({("x",): 1, ("y",): 1})


class TestDynkin:
    def test_fixes_components(self):
        for m, comp in enumerate(bch_components(6), start=1):
            assert dynkin_projection(comp) == comp, m

    def test_left_nested_expand(self):
        # (x o y) o x = xyx - yx^2 - x^2y + xyx = 2xyx - yx^2 - x^2y
        got = left_nested_expand(("x", "y", "x"))
        assert got == F({
            ("x", "y", "x"): 2,
            ("y", "x", "x"): -1,
            ("x", "x", "y"): -1,
        })

    def test_projection_of_p2_bracket_form(self):
        # phi(P_2) = 1/4 x o y - 1/4 y o x = 1/2 x o y, re-expanded equals P_2
        p2 = bch_components(2)[1]
        half_bracket = left_nested_expand(("x", "y"), Fraction(1, 2))
        assert dynkin_projection(p2) == half_bracket

    def test_rejects_constants(self):
        with pytest.raises(ValueError):
            dynkin_projection(F({(): 1}))

    def test_matches_per_word_expansion(self):
        rng = random.Random(11)
        moved = 0
        for _ in range(40):
            e = random_element(rng, lengths=range(1, 7), count=rng.randint(1, 12))
            projected = dynkin_projection(e)
            assert projected == reference_projection(e)
            moved += projected != e
        assert moved > 30  # random elements are mostly not Lie


class TestBracketRewriting:
    def random_tree(self, rng, depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(("x", "y"))
        return (self.random_tree(rng, depth - 1), self.random_tree(rng, depth - 1))

    def test_normalize_matches_direct_expansion(self):
        rng = random.Random(0)
        for _ in range(30):
            tree = self.random_tree(rng, 3)
            expanded = FreeElement.zero()
            for letters, coeff in bracket_normalize(tree):
                expanded = expanded + left_nested_expand(letters, coeff)
            assert expanded == bracket_expand(tree)

    def test_left_nested_identity(self):
        # P o (Q o x) = -(P o x) o Q + (P o Q) o x with P = x, Q = y, x = x
        lhs = bracket_expand(("x", ("y", "x")))
        rhs = bracket_expand((("x", "x"), "y")) * (-1) + bracket_expand((("x", "y"), "x"))
        assert lhs == rhs


class TestDenominatorAudit:
    def test_small_primes(self):
        for p in (5, 7, 11):
            comps = bch_components(p - 1)
            for m in range(1, p):
                assert denominator_audit(comps[m - 1], p), (p, m)

    def test_detects_bad_denominator(self):
        assert not denominator_audit(F({("x",): Fraction(1, 5)}), 5)


class TestEvaluation:
    def test_matches_log_of_product(self):
        p = 5
        rng = random.Random(7)
        comps = bch_components(4)
        for _ in range(25):
            x = random_strict_upper(4, p, rng)
            y = random_strict_upper(4, p, rng)
            lhs = bch_evaluate(comps, x, y)
            rhs = log_unipotent(exp_nilpotent(x, p) @ exp_nilpotent(y, p), p)
            assert lhs == rhs

    def test_rational_case(self):
        rng = random.Random(8)
        comps = bch_components(3)
        x = random_strict_upper(3, 0, rng)
        y = random_strict_upper(3, 0, rng)
        assert bch_evaluate(comps, x, y) == log_unipotent(exp_nilpotent(x) @ exp_nilpotent(y))

    def test_audit_failure_raises(self):
        p = 3
        rng = random.Random(9)
        x = random_strict_upper(4, p, rng)
        y = random_strict_upper(4, p, rng)
        with pytest.raises(SeriesTerminationError):
            bch_evaluate(bch_components(4), x, y)
        with pytest.raises(SeriesTerminationError):
            bch_evaluate([F({("x", "y"): 1}), F({(): Fraction(1, 3)})], x, y)

    @pytest.mark.parametrize("p", [0, 5, 7, 11])
    def test_matches_per_word_chains(self, p):
        rng = random.Random(100 + p)
        for _ in range(6):
            d = rng.randint(2, 5)
            x = random_strict_upper(d, p, rng)
            y = random_strict_upper(d, p, rng)
            comps = [
                F({(): Fraction(rng.randint(1, 9), rng.choice((1, 2, 3)))}),
                random_element(rng, lengths=range(1, 6), count=rng.randint(1, 10),
                               denominators=(1, 2, 3)),
                random_element(rng, lengths=range(0, 4), count=rng.randint(1, 5),
                               denominators=(1, 2, 3)),
            ]
            assert bch_evaluate(comps, x, y) == reference_evaluate(comps, x, y, p)

    def test_degree_8_matches_log_of_product(self):
        # criterion 5 at degree 8: 9 x 9 over F_11
        p = 11
        comps = bch_components(8)
        rng = random.Random(2025)
        for _ in range(3):
            x = random_strict_upper(9, p, rng)
            y = random_strict_upper(9, p, rng)
            lhs = bch_evaluate(comps, x, y)
            assert lhs == log_unipotent(exp_nilpotent(x, p) @ exp_nilpotent(y, p), p)
