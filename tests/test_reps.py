"""Representation core: extraction, construction, decomposition, audits."""

import random

import pytest

from unirep.arith import Residue, coerce_scalar
from unirep.errors import CostBoundError, HypothesisError, UnirepError
from unirep.hopf import ExponentMatrix, Polynomial, variable_pairs
from unirep.linalg import SquareMatrix, scalar_matrix
from unirep.reps import (
    MAX_EXHAUSTIVE_PAIRS,
    ChiTable,
    LieLayerData,
    Representation,
    check_morphism,
    construct_from_layers,
    construct_single_layer,
    decompose_to_layers,
    extract_chi,
    frobenius_twist_rep,
    layer_morphism_equivalence,
    tautological_layer,
    verify_chi_relations,
    verify_comodule,
    verify_group_law_pointwise,
)
from unirep.samples import random_layer_data, random_strict_upper


def poly(n, p, exponents):
    """Build a polynomial from {((i,j,e), ...): coeff} exponent tuples."""
    terms = {}
    for key, c in exponents.items():
        m = ExponentMatrix.zero(n)
        for i, j, e in key:
            m = m + ExponentMatrix.epsilon(n, i, j, e)
        terms[m] = c
    return Polynomial(n, p, terms)


def six_dim_fixture(p=0):
    """A 6-dimensional matrix formula over U_3 used as an extraction fixture."""
    n = 6

    def row(*entries):
        return entries

    one = Polynomial.one(3, p)
    zero = Polynomial.zero(3, p)
    x12 = poly(3, p, {((1, 2, 1),): 1})
    x13 = poly(3, p, {((1, 3, 1),): 1})
    x23 = poly(3, p, {((2, 3, 1),): 1})
    entries = [
        row(one, 2 * x12, x12, 2 * x12 * x12, x13, 2 * x12 * x13),
        row(zero, one, zero, x12, zero, x13),
        row(zero, zero, one, 2 * x12, x23, 2 * x12 * x23),
        row(zero, zero, zero, one, zero, x23),
        row(zero, zero, zero, zero, one, 2 * x12),
        row(zero, zero, zero, zero, zero, one),
    ]
    return SquareMatrix(entries)


class TestExtraction:
    def test_six_dim_coefficients(self):
        chi = extract_chi(six_dim_fixture())
        e = ExponentMatrix.epsilon
        # chi(eps_12 + eps_13): single 2 in the top-right corner
        m = e(3, 1, 2) + e(3, 1, 3)
        mat = chi.get(m)
        assert mat.entries[0][5] == 2
        assert sum(1 for row in mat.entries for v in row if v) == 1
        # chi(eps_12)
        expected = [[0] * 6 for _ in range(6)]
        expected[0][1], expected[0][2], expected[1][3] = 2, 1, 1
        expected[2][3], expected[4][5] = 2, 2
        assert chi.get(e(3, 1, 2)) == scalar_matrix(expected, 0)
        # chi(2 eps_12): single 2 at (1, 4)
        expected2 = [[0] * 6 for _ in range(6)]
        expected2[0][3] = 2
        assert chi.get(e(3, 1, 2, 2)) == scalar_matrix(expected2, 0)
        # chi(2 eps_12 + eps_13) = 0
        assert chi.get(e(3, 1, 2, 2) + e(3, 1, 3)).is_zero()

    def test_assembly_roundtrip(self):
        pm = six_dim_fixture()
        assert Representation.from_poly_matrix(pm).poly_matrix == pm


class TestConstruction:
    def test_single_generator_layer(self):
        # eps_12 -> E_12, the rest -> 0: the 2-dimensional additive formula
        n, p, d = 3, 7, 2
        layer = {(1, 2): scalar_matrix([[0, 1], [0, 0]], p)}
        pm = construct_single_layer(layer, n, p, d)
        x12 = poly(n, p, {((1, 2, 1),): 1})
        assert pm == SquareMatrix([
            [Polynomial.one(n, p), x12],
            [Polynomial.zero(n, p), Polynomial.one(n, p)],
        ])

    def test_tautological_recovers_generic_element(self):
        n, p = 3, 7
        data = LieLayerData(n, p, n, [tautological_layer(n, p)])
        rep = construct_from_layers(data)
        for i, j in ((1, 2), (1, 3), (2, 3)):
            assert rep.poly_matrix.entries[i - 1][j - 1] == poly(n, p, {((i, j, 1),): 1})

    def test_hypothesis_guard(self):
        data = LieLayerData(3, 2, 3, [tautological_layer(3, 2)])
        with pytest.raises(HypothesisError):
            construct_from_layers(data)

    def test_char_zero_single_layer_only(self):
        layer = tautological_layer(3, 0)
        data = LieLayerData(3, 0, 3, [layer, layer])
        with pytest.raises(HypothesisError):
            construct_from_layers(data)

    def test_invalid_layer_data_rejected(self):
        # eps_12 and eps_23 both mapped to non-commuting images with
        # chi([eps_12, eps_23]) = 0 is not a homomorphism
        p = 7
        bad = {
            (1, 2): scalar_matrix([[0, 1], [0, 0]], p),
            (2, 3): scalar_matrix([[0, 0], [1, 0]], p),
        }
        data = LieLayerData(3, p, 2, [bad])
        assert not data.validate().ok
        with pytest.raises(HypothesisError):
            construct_from_layers(data)


class TestComodule:
    def test_constructed_rep_passes(self):
        data = random_layer_data(3, 2, 7, 2, seed=0)
        rep = construct_from_layers(data)
        assert verify_comodule(rep, use_splitting=True).ok

    def test_broken_rep_fails(self):
        n, p, d = 3, 7, 2
        support = {
            ExponentMatrix.zero(n): SquareMatrix.identity(d, Residue(1, p)),
            ExponentMatrix.epsilon(n, 1, 3): scalar_matrix([[0, 1], [0, 0]], p),
        }
        # x_13 without the x_12 x_23 cross term cannot satisfy the coproduct
        rep = Representation(ChiTable(n, p, d, support))
        report = verify_comodule(rep)
        assert any(f["check"] == "coproduct" for f in report.findings)

    def test_missing_identity_detected(self):
        n, p, d = 3, 7, 2
        rep = Representation(ChiTable(n, p, d, {}))
        report = verify_comodule(rep)
        assert any(f["check"] == "chi-at-zero" for f in report.findings)


def non_representation():
    """x_12^2 alone off the diagonal: Phi(g)Phi(h) = Phi(gh) fails."""
    n, p, d = 3, 5, 2
    support = {
        ExponentMatrix.zero(n): SquareMatrix.identity(d, Residue(1, p)),
        ExponentMatrix.epsilon(n, 1, 2, 2): scalar_matrix([[0, 1], [0, 0]], p),
    }
    return Representation(ChiTable(n, p, d, support))


def pointwise_reference_failures(rep, count, seed):
    """Failing sampled pairs, counted with the plain triple-loop product mod p
    and the same draws as verify_group_law_pointwise."""
    n, p, d = rep.n, rep.p, rep.d
    pairs = variable_pairs(n)

    def mul(a, b, size):
        return [[sum(a[i][k] * b[k][j] for k in range(size)) % p for j in range(size)]
                for i in range(size)]

    def point_matrix(point):
        m = [[int(i == j) for j in range(n)] for i in range(n)]
        for (i, j), v in point.items():
            m[i - 1][j - 1] = v
        return m

    def phi(point):
        return [[rep.poly_matrix.entries[a][b].evaluate_mod(point) for b in range(d)]
                for a in range(d)]

    rng = random.Random(seed)
    draws = [({ij: rng.randrange(p) for ij in pairs}, {ij: rng.randrange(p) for ij in pairs})
             for _ in range(count)]
    failures = 0
    for g, h in draws:
        gh = mul(point_matrix(g), point_matrix(h), n)
        gh_point = {(i, j): gh[i - 1][j - 1] for i, j in pairs}
        failures += mul(phi(g), phi(h), d) != phi(gh_point)
    return failures


class TestGroupLawPointwise:
    def test_tautological_exhaustive(self):
        data = LieLayerData(3, 5, 3, [tautological_layer(3, 5)])
        rep = construct_from_layers(data)
        assert verify_group_law_pointwise(rep, mode="exhaustive").ok

    def test_sampled_mode(self):
        data = random_layer_data(3, 2, 7, 1, seed=4)
        rep = construct_from_layers(data)
        assert verify_group_law_pointwise(rep, mode="sampled", count=50, seed=1).ok

    def test_detects_non_representation(self):
        assert not verify_group_law_pointwise(non_representation(), mode="exhaustive").ok

    def test_sampled_count_zero_checks_no_pair(self):
        rep = non_representation()
        assert verify_group_law_pointwise(rep, mode="sampled", count=0).ok
        assert not verify_group_law_pointwise(rep, mode="sampled").ok
        with pytest.raises(ValueError):
            verify_group_law_pointwise(rep, mode="sampled", count=-1)

    def test_findings_match_reference(self):
        rep = non_representation()
        report = verify_group_law_pointwise(rep, mode="sampled", count=40, seed=2)
        assert len(report.findings) == pointwise_reference_failures(rep, count=40, seed=2) > 0

    def test_exhaustive_cost_bound(self):
        # criterion 3 runs U_3(F_5) exhaustively, 125^2 pairs
        assert 125**2 <= MAX_EXHAUSTIVE_PAIRS < 5**12
        n, p = 4, 5
        rep = Representation(ChiTable(n, p, 1, {
            ExponentMatrix.zero(n): SquareMatrix.identity(1, Residue(1, p)),
        }))
        with pytest.raises(CostBoundError):
            verify_group_law_pointwise(rep, mode="exhaustive")

    def test_char_zero_exhaustive_is_an_error(self):
        data = LieLayerData(3, 0, 3, [tautological_layer(3, 0)])
        rep = construct_from_layers(data)
        with pytest.raises(HypothesisError):
            verify_group_law_pointwise(rep, mode="exhaustive")


class TestDecomposition:
    @pytest.mark.parametrize("seed", range(5))
    def test_roundtrip(self, seed):
        data = random_layer_data(3, 2, 7, 2, seed=seed).trimmed()
        rep = construct_from_layers(data)
        assert decompose_to_layers(rep) == data

    def test_char_zero_roundtrip(self):
        data = random_layer_data(3, 3, 0, 1, seed=2).trimmed()
        rep = construct_from_layers(data)
        assert decompose_to_layers(rep) == data

    def test_hypothesis_guard(self):
        # p = 5 < 2d = 6
        data = random_layer_data(3, 3, 5, 1, seed=0)
        rep = construct_from_layers(data)
        with pytest.raises(HypothesisError):
            decompose_to_layers(rep)

    def test_rejects_non_comodule(self):
        n, p, d = 3, 7, 2
        support = {
            ExponentMatrix.zero(n): SquareMatrix.identity(d, Residue(1, p)),
            ExponentMatrix.epsilon(n, 1, 3): scalar_matrix([[0, 1], [0, 0]], p),
        }
        rep = Representation(ChiTable(n, p, d, support))
        with pytest.raises(UnirepError):
            decompose_to_layers(rep)


class TestStructureAudits:
    def test_constructed_rep_passes(self):
        from unirep.reps import audit_structure_lemmas

        data = random_layer_data(4, 2, 11, 2, seed=6)
        rep = construct_from_layers(data)
        assert verify_chi_relations(rep).ok
        assert audit_structure_lemmas(rep).ok

    def test_bracket_violation_detected(self):
        # chi(eps_12) and chi(eps_23) nonzero but chi(eps_13) = 0 while the
        # commutator is not: bracket table must flag it
        n, p, d = 3, 11, 2
        support = {
            ExponentMatrix.zero(n): SquareMatrix.identity(d, Residue(1, p)),
            ExponentMatrix.epsilon(n, 1, 2): scalar_matrix([[0, 1], [0, 0]], p),
            ExponentMatrix.epsilon(n, 2, 3): scalar_matrix([[0, 0], [1, 0]], p),
        }
        rep = Representation(ChiTable(n, p, d, support))
        report = verify_chi_relations(rep)
        assert any(f["check"] == "chi-bracket" for f in report.findings)

    def test_audit_guard(self):
        from unirep.reps import audit_structure_lemmas

        data = random_layer_data(3, 3, 7, 1, seed=0)
        rep = construct_from_layers(data)
        # p = 7 >= 2d = 6 passes; drop to p=5 < 6 via a fresh instance
        assert audit_structure_lemmas(rep).ok
        small = construct_from_layers(random_layer_data(3, 3, 5, 1, seed=0))
        with pytest.raises(HypothesisError):
            audit_structure_lemmas(small)


class TestFrobeniusTwist:
    def test_shifts_layers(self):
        data = random_layer_data(3, 2, 7, 2, seed=1).trimmed()
        rep = construct_from_layers(data)
        twisted = frobenius_twist_rep(rep)
        assert verify_comodule(twisted).ok
        shifted = LieLayerData(3, 7, 2, ({},) + data.layers).trimmed()
        assert decompose_to_layers(twisted) == shifted

    def test_char_zero_rejected(self):
        data = random_layer_data(3, 2, 0, 1, seed=1)
        rep = construct_from_layers(data)
        with pytest.raises(HypothesisError):
            frobenius_twist_rep(rep)


def shared_nilpotent_rep(n, d, p, coeffs):
    """Representation whose images are multiples of one shared nilpotent."""
    nil = scalar_matrix([[0, 1], [0, 0]], p) if d == 2 else None
    layer = {
        (i, i + 1): nil.scale(coerce_scalar(c, p))
        for (i, c) in zip(range(1, n), coeffs)
        if c
    }
    return construct_from_layers(LieLayerData(n, p, d, [layer])), nil


def reference_is_morphism(t, src, dst):
    """T chi_src(M) = chi_dst(M) T for every M, by the triple-loop product
    over the entries' own arithmetic."""
    rows = t.entries if isinstance(t, SquareMatrix) else t

    def mul(a, b):
        return [[sum((a[i][k] * b[k][j] for k in range(1, len(b))), a[i][0] * b[0][j])
                 for j in range(len(b[0]))] for i in range(len(a))]

    return all(
        mul(rows, src.chi.get(M).entries) == mul(dst.chi.get(M).entries, rows)
        for M in set(src.chi.support) | set(dst.chi.support)
    )


class TestMorphisms:
    def test_commuting_polynomial_is_morphism(self):
        n, d, p = 3, 2, 11
        rep, nil = shared_nilpotent_rep(n, d, p, (3, 4))
        t = SquareMatrix.identity(d, Residue(2, p)) + nil.scale(Residue(5, p))
        assert check_morphism(t, rep, rep)
        report = layer_morphism_equivalence(t, rep, rep)
        assert report.ok and report.data == {"full": True, "per_layer": True, "agree": True}

    def test_random_candidate_usually_fails_both(self):
        n, d, p = 3, 2, 11
        rep1, _ = shared_nilpotent_rep(n, d, p, (3, 4))
        rep2, _ = shared_nilpotent_rep(n, d, p, (5, 1))
        rng = random.Random(0)
        t = random_strict_upper(d, p, rng) + SquareMatrix.identity(d, Residue(7, p))
        report = layer_morphism_equivalence(t, rep1, rep2)
        assert report.data["agree"]
        assert not report.data["full"]

    def test_zero_map_is_a_morphism(self):
        n, d, p = 3, 2, 11
        rep1, _ = shared_nilpotent_rep(n, d, p, (3, 4))
        rep2, _ = shared_nilpotent_rep(n, d, p, (5, 1))
        zero = scalar_matrix([[0, 0], [0, 0]], p)
        assert check_morphism(zero, rep1, rep2)
        assert layer_morphism_equivalence(zero, rep1, rep2).ok

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_products(self, seed):
        n, d, p = 3, 2, 11
        rng = random.Random(seed)
        rep1, nil = shared_nilpotent_rep(n, d, p, (3, 4))
        rep2, _ = shared_nilpotent_rep(n, d, p, (rng.randrange(p), rng.randrange(p)))
        candidates = [
            random_strict_upper(d, p, rng) + SquareMatrix.identity(d, Residue(rng.randrange(p), p)),
            nil.scale(Residue(rng.randrange(p), p)),
            [[rng.randrange(p) for _ in range(d)] for _ in range(d)],
        ]
        for t in candidates:
            for src, dst in ((rep1, rep1), (rep1, rep2), (rep2, rep1)):
                assert check_morphism(t, src, dst) == reference_is_morphism(t, src, dst)

    def test_rectangular_candidate(self):
        n, p = 3, 11
        rep1, nil = shared_nilpotent_rep(n, 2, p, (3, 4))
        # the trivial quotient of V is V / im(nil): the second-coordinate
        # functional intertwines, the first does not
        trivial = Representation(ChiTable(n, p, 1, {
            ExponentMatrix.zero(n): SquareMatrix.identity(1, Residue(1, p)),
        }))
        t = [[Residue(0, p), Residue(1, p)]]
        assert check_morphism(t, rep1, trivial)
        t2 = [[Residue(1, p), Residue(0, p)]]
        assert not check_morphism(t2, rep1, trivial)
