"""The series log(e^x e^y), its components, and the projection machinery."""

import random
import re
from fractions import Fraction
from math import factorial

import pytest

from unirep import arith
from unirep.arith import Residue, coerce_scalar
from unirep.bch import (
    MAX_BCH_DEGREE,
    FreeElement,
    bch_components,
    bch_evaluate,
    bracket_expand,
    bracket_normalize,
    denominator_audit,
    _dynkin_fixed,
    dynkin_projection,
    homogeneous_component,
    left_nested_expand,
    log_product_series,
)
from unirep.errors import CostBoundError, ModulusMismatchError, SeriesTerminationError
from unirep.linalg import SquareMatrix, exp_nilpotent, log_unipotent, scalar_matrix
from unirep.samples import random_strict_upper

from oracles import reference_dynkin_projection, reference_log_product_series


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
        with pytest.raises(TypeError):
            comps[0].terms[("x",)] = 5
        with pytest.raises(TypeError):
            del comps[2].terms[("x", "x", "y")]
        assert bch_components(3)[0] == F({("x",): 1, ("y",): 1})
        assert bch_components(3)[2] == F(comps[2].terms) and len(comps[2].terms) == 6
        # arithmetic on a cached component builds a new element and leaves it be
        assert comps[0] + comps[0] == F({("x",): 2, ("y",): 2})
        assert -comps[1] + comps[1] == FreeElement.zero()
        assert bch_components(3)[0] == F({("x",): 1, ("y",): 1})

    def test_terms_cannot_be_rebound(self):
        comps = bch_components(3)
        with pytest.raises(AttributeError):
            comps[0].terms = {}
        with pytest.raises(AttributeError):
            F({("x",): 1}).terms = {}
        assert str(bch_components(3)[0]) == "1*x + 1*y"
        assert bch_components(3)[0] == F({("x",): 1, ("y",): 1})


class TestDenseAgainstDictOracles:
    """The dense word-indexed series and left-nested sum against the
    dict-keyed code they replaced."""

    @pytest.mark.parametrize("m", range(1, 13))
    def test_series(self, m):
        dense = log_product_series(m)
        assert dense == reference_log_product_series(m)
        assert all(type(c) is Fraction and c for c in dense.terms.values())

    def test_projection_on_random_elements(self):
        rng = random.Random(23)
        moved = 0
        for i in range(320):
            # repeated draws of a word add up, and may cancel out
            terms = {}
            for _ in range(rng.randint(1, 14)):
                length = 1 + i % 8 if rng.random() < 0.5 else rng.randint(1, 8)
                if rng.random() < 0.2:
                    w = (rng.choice("xy"),) * length
                else:
                    w = tuple(rng.choice("xy") for _ in range(length))
                terms[w] = terms.get(w, 0) + Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6)))
            e = F(terms)
            projected = dynkin_projection(e)
            assert projected == reference_dynkin_projection(e)
            assert FreeElement(projected.terms).terms == projected.terms
            moved += projected != e
        assert moved > 300  # random elements are mostly not Lie

    def test_projection_edge_cases(self):
        for e in (F({}), F({("x",): 3}), F({("y",): Fraction(-1, 2), ("x",): 1}),
                  F({("x",) * 7: 1, ("y",) * 5: 2}), F({("x", "y") * 4: Fraction(1, 7)})):
            assert dynkin_projection(e) == reference_dynkin_projection(e)
        assert dynkin_projection(F({("x",) * 7: 1, ("y",) * 5: 2})) == FreeElement.zero()


class TestDynkin:
    def test_fixes_components(self):
        for m, comp in enumerate(bch_components(6), start=1):
            assert dynkin_projection(comp) == comp, m

    @pytest.mark.parametrize("m", range(1, 13))
    def test_integer_check_agrees_with_the_projection(self, m):
        comp = bch_components(12)[m - 1]
        assert _dynkin_fixed(comp) and dynkin_projection(comp) == comp
        words = sorted(comp.terms)
        for w in (words[0], words[len(words) // 2], words[-1]):
            changed = F({**comp.terms, w: comp.terms[w] + Fraction(1, 7)})
            # one word of length >= 2 is not Lie; every element of length 1 is
            assert _dynkin_fixed(changed) == (dynkin_projection(changed) == changed) == (m == 1)

    def test_integer_check_agrees_on_random_elements(self):
        rng = random.Random(12)
        for _ in range(60):
            e = random_element(rng, lengths=range(1, 8), count=rng.randint(0, 12))
            assert _dynkin_fixed(e) == (dynkin_projection(e) == e)
        for e in (F({(): 1}), F({("x",) * (MAX_BCH_DEGREE + 1): 1})):
            with pytest.raises((ValueError, CostBoundError)) as raised:
                _dynkin_fixed(e)
            with pytest.raises(raised.type, match=f"^{re.escape(str(raised.value))}$"):
                dynkin_projection(e)

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

    def test_refuses_a_word_past_the_degree_bound(self):
        # a dense vector of 2^L entries per length: L = 18 is refused before
        # one is built, and L = 17, the largest P_m of `bch`, is still projected
        message = f"^projection of a word of length 18 is over the bound of {MAX_BCH_DEGREE}$"
        with pytest.raises(CostBoundError, match=message):
            dynkin_projection(F({("x",): 1, ("x", "y") * 9: 1}))
        assert dynkin_projection(F({("x",) * MAX_BCH_DEGREE: 1})) == FreeElement.zero()

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

    @pytest.mark.parametrize("p", [0, 2, 3, 13])
    @pytest.mark.parametrize("d", range(1, 8))
    def test_matches_per_word_chains_by_size(self, d, p):
        rng = random.Random(1000 * d + p)
        denominators = tuple(q for q in (1, 2, 3, 4, 5) if p == 0 or q % p)
        for _ in range(3):
            x = random_strict_upper(d, p, rng)
            y = random_strict_upper(d, p, rng)
            comps = [
                F({(): Fraction(rng.randint(1, 9), rng.choice(denominators))}),
                random_element(rng, lengths=range(1, d + 2), count=rng.randint(1, 12),
                               denominators=denominators),
            ]
            assert bch_evaluate(comps, x, y) == reference_evaluate(comps, x, y, p)

    def test_plain_int_entries_are_rationals(self):
        comps = bch_components(3)
        ints = [[0, 1, 2], [0, 0, 3], [0, 0, 0]], [[0, 5, 0], [0, 0, 1], [0, 0, 0]]
        lhs = bch_evaluate(comps, *map(SquareMatrix, ints))
        assert lhs == bch_evaluate(comps, *(scalar_matrix(m, 0) for m in ints))
        assert all(type(v) is Fraction for row in lhs.entries for v in row)

    @pytest.mark.parametrize("ps", [(7, 0), (7, 11), (0, 7)])
    def test_operands_in_two_fields_raise(self, ps):
        rng = random.Random(3)
        x, y = (random_strict_upper(3, p, rng) for p in ps)
        with pytest.raises(ModulusMismatchError,
                           match=f"is not in the field of characteristic {ps[0]}$"):
            bch_evaluate(bch_components(2), x, y)

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


class TestResidueCount:
    """Over F_p the series and BCH evaluation run on int rows and build their
    output entries once, however many steps they take.  Below
    arith.SHARED_BELOW the entries are the shared residues, so from a cleared
    table a call builds one Residue per distinct entry value and a repeat call
    builds none; past it a call builds d^2."""

    @pytest.fixture
    def built(self, monkeypatch):
        count = [0]
        post_init = Residue.__post_init__

        def counted(self):
            count[0] += 1
            post_init(self)

        monkeypatch.setattr(Residue, "__post_init__", counted)
        monkeypatch.setattr(arith, "_SHARED", {})
        return count

    @staticmethod
    def calls(d, p):
        rng = random.Random(d * p)
        comps = bch_components(max(d - 1, 1))
        x, y = random_strict_upper(d, p, rng), random_strict_upper(d, p, rng)
        g = exp_nilpotent(x, p)
        return (
            lambda: exp_nilpotent(x, p),
            lambda: exp_nilpotent(x),
            lambda: log_unipotent(g, p),
            lambda: bch_evaluate(comps, x, y),
        )

    @pytest.mark.parametrize("p", [7, 11, 13])
    @pytest.mark.parametrize("d", range(1, 8))
    def test_d_squared_per_call(self, built, d, p):
        for call in self.calls(d, p):
            arith._SHARED.clear()
            built[0] = 0
            out = call()
            assert built[0] == len({a.value for row in out.entries for a in row})
            built[0] = 0
            again = call()
            assert built[0] == 0
            assert all(a is b for r, s in zip(out.entries, again.entries) for a, b in zip(r, s))

    @pytest.mark.parametrize("d", [1, 4, 7])
    def test_d_squared_past_the_sharing_bound(self, built, d):
        for call in self.calls(d, 2**31 - 1):
            built[0] = 0
            call()
            assert built[0] == d * d
            assert arith._SHARED == {}
