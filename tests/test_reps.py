"""Representation core: extraction, construction, decomposition, audits."""

import itertools
import json
import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from unirep import cli, hopf, linalg, reps
from unirep.arith import Residue, coerce_scalar, p_ary_digits
from unirep.errors import (
    CostBoundError,
    HypothesisError,
    ModulusMismatchError,
    NotNilpotentError,
    ShapeError,
    UnirepError,
)
from unirep.hopf import (
    ExponentMatrix,
    Polynomial,
    coproduct,
    variable_pairs,
)
from unirep.io import write_rep_file
from unirep.linalg import SquareMatrix, scalar_matrix
from unirep.reps import (
    MAX_CONSTRUCT_NODES,
    MAX_EXHAUSTIVE_PAIRS,
    ChiTable,
    Report,
    LieLayerData,
    Representation,
    check_morphism,
    construct_from_layers,
    decompose_to_layers,
    extract_chi,
    frobenius_twist_rep,
    layer_morphism_equivalence,
    tautological_layer,
    verify_chi_relations,
    verify_comodule,
    verify_group_law_pointwise,
)
from unirep.samples import _embed, random_layer_data, random_strict_upper
from unirep.splittings import split_coproduct

from oracles import construct_single_layer, matrix_product_tensor_side


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
        assert Representation(extract_chi(pm)).poly_matrix == pm


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


# --- the per-layer exp/log construction, kept as the oracle --------------------

def reference_construct(data):
    """prod_l (e^{phi_l(log g)})^[p^l] as polynomial matrices: the generic
    logarithm and one exponential per layer, multiplied in layer order."""
    n, p, d = data.n, data.p, data.d
    one, zero = Polynomial.one(n, p), Polynomial.zero(n, p)
    result = SquareMatrix([[one if a == b else zero for b in range(d)] for a in range(d)])
    for l, layer in enumerate(data.layers):
        factor = construct_single_layer(layer, n, p, d)
        if l > 0:
            factor = factor.map_entries(lambda f: f.scale_exponents(p**l))
        result = result @ factor
    return Representation(extract_chi(result, n, p))


def construct_grid(count, seed):
    """A seeded sample of (n, d, p, layers, seed) over n 1..5, d 1..4,
    p in (0, 5, 7, 11), 1-3 layers and seeds 0..3, inside the regime."""
    grid = [(n, d, p, layers, s) for n in range(1, 6) for d in range(1, 5) for p in (0, 5, 7, 11)
            for layers in (1, 2, 3) for s in range(4)
            if (p == 0 and layers == 1) or (p and p >= max(n, d))]
    return random.Random(seed).sample(grid, count)


def block_layers(n, p, count):
    """``count`` tautological layers, each on its own n-wide diagonal block."""
    d = n * count
    taut = tautological_layer(n, p)
    return LieLayerData(n, p, d, [{ij: _embed(m, n * l, d, p) for ij, m in taut.items()}
                                  for l in range(count)])


NILPOTENT_2 = [[0, 1], [0, 0]]


class TestClosedFormOracle:
    def cases(self):
        for args in construct_grid(80, seed=12):
            yield random_layer_data(*args)
        for n in (3, 4):
            yield LieLayerData(n, 7, n, [tautological_layer(n, 7)])
        yield LieLayerData(3, 0, 3, [tautological_layer(3, 0)])
        yield block_layers(3, 7, 2)
        yield block_layers(2, 5, 2)
        yield block_layers(3, 0, 1)
        yield LieLayerData(1, 5, 2, [{}])
        yield LieLayerData(1, 0, 1, [{}])
        yield LieLayerData(3, 7, 2, [])
        yield LieLayerData(3, 7, 2, [{}, {(1, 2): scalar_matrix(NILPOTENT_2, 7)}])
        yield LieLayerData(3, 5, 2, [{(2, 3): scalar_matrix(NILPOTENT_2, 5)}, {},
                                     {(1, 2): scalar_matrix(NILPOTENT_2, 5)}])

    def test_matches_reference_on_both_bodies(self):
        for data in self.cases():  # construct_from_layers validates each
            rep, ref = construct_from_layers(data), reference_construct(data)
            assert rep == ref
            for body in ("chi", "poly"):
                assert write_rep_file(rep, body) == write_rep_file(ref, body)

    @pytest.mark.parametrize("p, layer", [(0, 0), (5, 0), (5, 1)])
    def test_unvalidated_non_nilpotent_image_raises(self, p, layer):
        layers = [{}] * layer + [{(1, 2): scalar_matrix([[1, 0], [0, 0]], p)}]
        data = LieLayerData(2, p, 2, layers)
        assert not data.validate().ok
        with pytest.raises(NotNilpotentError):
            reference_construct(data)
        with pytest.raises(NotNilpotentError):
            construct_from_layers(data, validate=False)

    def test_node_budget(self, monkeypatch):
        data = random_layer_data(4, 2, 7, 2, seed=1)
        assert construct_from_layers(data) == reference_construct(data)
        assert MAX_CONSTRUCT_NODES >= 10**5
        monkeypatch.setattr(reps, "MAX_CONSTRUCT_NODES", 3)
        with pytest.raises(CostBoundError, match="over 3 nodes"):
            construct_from_layers(data)

    @pytest.mark.parametrize("validate", [False, True])
    def test_root_subgroup_products_count_before_they_are_formed(self, monkeypatch, validate):
        # one pair with four layers of polynomials in one 16 x 16 nilpotent:
        # its 15,504 digit-tuple products took about 9 s before anything was
        # counted; now the third layer's 2,312 are refused before they are formed
        data = random_layer_data(2, 16, 37, 4, seed=0)
        monkeypatch.setattr(reps, "MAX_CONSTRUCT_NODES", 1000)
        start = time.perf_counter()
        with pytest.raises(CostBoundError, match="over 1000 nodes"):
            construct_from_layers(data, validate=validate)
        assert time.perf_counter() - start < 0.5

    def test_root_subgroup_products_share_the_walk_budget(self, monkeypatch):
        data = random_layer_data(2, 8, 17, 4, seed=0)
        assert len(construct_from_layers(data).chi.support) == 330
        # 1,320 products in the pair's layers, then 1 + 329 nodes in the walk,
        # each weighing 8^2 / 9 of a d = 3 node
        def nodes(count):
            return math.ceil(count * 64 / 9)

        monkeypatch.setattr(reps, "MAX_CONSTRUCT_NODES", nodes(1320 + 330))
        assert len(construct_from_layers(data).chi.support) == 330
        monkeypatch.setattr(reps, "MAX_CONSTRUCT_NODES", nodes(1320 + 329))
        with pytest.raises(CostBoundError):
            construct_from_layers(data)
        monkeypatch.setattr(reps, "MAX_CONSTRUCT_NODES", nodes(1319))
        with pytest.raises(CostBoundError):
            construct_from_layers(data)

    def test_node_budget_on_the_command_line(self, monkeypatch, capsys):
        monkeypatch.setattr(reps, "MAX_CONSTRUCT_NODES", 3)
        assert cli.main(["roundtrip", "--n", "4", "--d", "2", "--p", "7", "--layers", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: constructing chi takes over 3 nodes\n"

    def test_large_n_roundtrip(self, capsys):
        # the generic logarithm of U_22 ran out of memory; the walk costs what the support does
        assert cli.main(["roundtrip", "--n", "22", "--d", "2", "--p", "23"]) == 0
        assert json.loads(capsys.readouterr().out)["actual"] == "exact layer recovery"

    def test_no_logarithm_is_taken(self, monkeypatch):
        # the series are counted wherever a unirep module binds them, so a
        # call through linalg or through a name imported from it is seen
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        for fn in (linalg.log_unipotent, linalg.exp_nilpotent):
            wrapper = counted(fn)
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] == "unirep" and getattr(module, fn.__name__, None) is fn:
                    monkeypatch.setattr(module, fn.__name__, wrapper)
        data = random_layer_data(4, 3, 7, 2, seed=0)
        rep = construct_from_layers(data)
        assert calls == []
        assert rep == reference_construct(data)
        g = linalg.exp_nilpotent(scalar_matrix(NILPOTENT_2, 7), 7)
        assert linalg.log_unipotent(g, 7) == scalar_matrix(NILPOTENT_2, 7)
        assert calls == ["exp_nilpotent", "log_unipotent"]  # the counter does count


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


    @pytest.mark.parametrize("p, r, size", [(0, 6, 7), (5, 6, 4), (5, 25, 2)])
    @pytest.mark.parametrize("d, pairs", [(1, 4), (2, 18)])
    @pytest.mark.parametrize("use_splitting", [False, True])
    def test_cost_bound_counts_terms_before_expanding(self, p, r, size, d, pairs, use_splitting, monkeypatch):
        # chi(0) = Id and chi(r eps_12) = 3 in every entry at n = 2: Delta(x_12^r)
        # multiplies out r + 1 pairs over Q and, over F_p, the product of
        # (digit + 1) over the p-ary digits of r, once per nonzero entry; the
        # tensor side sum_k a_ik (x) a_kj has 2 * 2 term pairs at d = 1 and
        # 2 * (3 * 3) at d = 2 (a_ii = 1 + 3 x^r, a_ij = 3 x^r), and the
        # splitting formula enumerates 1 + (r + 1) splittings, once per M
        chi = ChiTable(2, p, d, {ExponentMatrix.zero(2): SquareMatrix.identity(d, coerce_scalar(1, p)),
                                 ExponentMatrix.epsilon(2, 1, 2, r): scalar_matrix([[3] * d] * d, p)})
        rep = Representation(chi)
        terms = pairs + d + d * d * size + (r + 2 if use_splitting else 0)
        cost = terms * (2 + 8)
        monkeypatch.setattr(reps, "MAX_COMODULE_EXPONENTS", cost)
        verify_comodule(rep, use_splitting)

        def expand(*args):
            raise AssertionError("expanded before the bound was checked")

        monkeypatch.setattr(reps, "MAX_COMODULE_EXPONENTS", cost - 1)
        monkeypatch.setattr(reps, "_monomial_coproduct", expand)
        monkeypatch.setattr(reps, "split_coproduct", expand)
        with pytest.raises(CostBoundError, match=fr"costs {cost} exponents \({terms} terms\), "
                                                 fr"over the bound of {cost - 1}$"):
            verify_comodule(rep, use_splitting)

    def test_cost_bound_keeps_decompose_from_expanding(self, monkeypatch):
        data = random_layer_data(3, 2, 7, 2, seed=0).trimmed()
        rep = construct_from_layers(data)
        monkeypatch.setattr(reps, "MAX_COMODULE_EXPONENTS", 0)
        # a valid table is rebuilt from its layers, so the bound is never consulted
        assert decompose_to_layers(rep) == decompose_to_layers(rep, check=False) == data
        rows = [list(row) for row in rep.chi.identity_matrix().entries]
        rows[0][-1] += 1  # chi(0) is not Id: the symbolic check runs, and meets the bound
        rep.chi.support[ExponentMatrix.zero(3)] = SquareMatrix(rows)
        with pytest.raises(CostBoundError, match="the comodule check costs"):
            decompose_to_layers(rep)
        assert decompose_to_layers(rep, check=False) == data


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

    def test_sampled_bound_weighs_the_pair_work(self, monkeypatch):
        # 50,000 pairs on this d = 2 rep of U_4(F_11) take about 1.3 s, so
        # 10^6 would take some 26 s: refused before the first draw
        class Drawn(Exception):
            pass

        def draw(seed):
            raise Drawn

        rep = construct_from_layers(random_layer_data(4, 2, 11, 1, seed=1))
        heavy = construct_from_layers(random_layer_data(3, 6, 13, 3, seed=0))
        monkeypatch.setattr(reps.random, "Random", draw)
        with pytest.raises(CostBoundError, match=r"^sampled check of 1000000 pairs costs "):
            verify_group_law_pointwise(rep, mode="sampled", count=10**6)
        for count in (None, 20, 100000):
            with pytest.raises(Drawn):
                verify_group_law_pointwise(rep, mode="sampled", count=count)
        # a larger support and d weigh more: 10,000 pairs here took about 21 s
        with pytest.raises(CostBoundError):
            verify_group_law_pointwise(heavy, mode="sampled", count=10**4)
        with pytest.raises(Drawn):
            verify_group_law_pointwise(heavy, mode="sampled", count=10**3)

    def test_char_zero_exhaustive_is_an_error(self):
        data = LieLayerData(3, 0, 3, [tautological_layer(3, 0)])
        rep = construct_from_layers(data)
        with pytest.raises(HypothesisError):
            verify_group_law_pointwise(rep, mode="exhaustive")



# --- the per-entry, dict-point pointwise check, kept as the oracle ------------

def reference_pointwise(rep, mode, count=None, seed=0):
    """Findings of the group-law check it replaces: points as dicts, every
    Phi entry evaluated term by term, gh as an n x n product, Phi cached at
    every point."""
    n, p, d = rep.n, rep.p, rep.d
    pairs = variable_pairs(n)
    report = Report()

    def mul(a, b, size):
        return [[sum(a[i][k] * b[k][j] for k in range(size)) % p for j in range(size)]
                for i in range(size)]

    def point_matrix(point):
        m = [[int(i == j) for j in range(n)] for i in range(n)]
        for (i, j), v in point.items():
            m[i - 1][j - 1] = v
        return m

    table = {}

    def phi(point):
        key = tuple(point[ij] for ij in pairs)
        if key not in table:
            table[key] = [[rep.poly_matrix.entries[a][b].evaluate_mod(point) for b in range(d)]
                          for a in range(d)]
        return table[key]

    identity = phi({ij: 0 for ij in pairs})
    if identity != [[int(a == b) for b in range(d)] for a in range(d)]:
        report.add("group-law", "Phi(1)", "identity", tuple(map(tuple, identity)))
    if mode == "exhaustive":
        points = [dict(zip(pairs, vals)) for vals in itertools.product(range(p), repeat=len(pairs))]
        draws = itertools.product(points, repeat=2)
    else:
        rng = random.Random(seed)
        draws = [({ij: rng.randrange(p) for ij in pairs}, {ij: rng.randrange(p) for ij in pairs})
                 for _ in range(100 if count is None else count)]
    for g, h in draws:
        gh = mul(point_matrix(g), point_matrix(h), n)
        if mul(phi(g), phi(h), d) != phi({(i, j): gh[i - 1][j - 1] for i, j in pairs}):
            report.add("group-law", f"g={g}, h={h}", "Phi(g)Phi(h) = Phi(gh)", "mismatch")
    return report.findings


def corrupted(rep, M, rows):
    """rep with chi(M) replaced by the scalar matrix of rows."""
    support = dict(rep.chi.support)
    support[M] = scalar_matrix(rows, rep.p)
    return Representation(ChiTable(rep.n, rep.p, rep.d, support))


def pointwise_cases():
    """(name, rep): valid and failing reps for n = 1..4, Phi(1) wrong too."""
    e = ExponentMatrix.epsilon
    valid5 = construct_from_layers(random_layer_data(3, 2, 5, 2, seed=3))
    valid7 = construct_from_layers(random_layer_data(3, 3, 7, 2, seed=3))
    missing_identity = Representation(ChiTable(3, 5, 2, {e(3, 1, 2, 2): scalar_matrix([[0, 1], [0, 0]], 5)}))
    return [
        ("n1", Representation(ChiTable(1, 3, 2, {ExponentMatrix.zero(1): scalar_matrix([[1, 2], [0, 1]], 3)}))),
        ("n2", construct_from_layers(random_layer_data(2, 2, 5, 2, seed=1))),
        ("n3-p3", construct_from_layers(random_layer_data(3, 2, 3, 1, seed=2))),
        ("n3-p5", valid5),
        ("n3-p7", valid7),
        ("non-representation", non_representation()),
        ("missing-identity", missing_identity),
        ("corrupted-p5", corrupted(valid5, e(3, 1, 2) + e(3, 2, 3), [[0, 1], [0, 0]])),
        ("corrupted-p7", corrupted(valid7, e(3, 1, 2) + e(3, 2, 3), [[0, 0, 1], [0, 0, 0], [0, 0, 0]])),
        ("n4-p5", construct_from_layers(random_layer_data(4, 2, 5, 1, seed=0))),
        # nilpotent 2 x 2 images commute, so a d = 2 rep never reads x_13; these do
        ("tautological-n3", construct_from_layers(LieLayerData(3, 5, 3, [tautological_layer(3, 5)]))),
        ("tautological-n4", construct_from_layers(LieLayerData(4, 5, 4, [tautological_layer(4, 5)]))),
    ]


class TestPointwiseOracle:
    """One flat pass over chi's support per point; the per-entry check it
    replaced stays the oracle, on whole findings lists."""

    @pytest.mark.parametrize("name,rep", pointwise_cases())
    def test_sampled_findings_match(self, name, rep):
        for count, seed in ((None, 0), (60, 4), (1, 9)):
            got = verify_group_law_pointwise(rep, mode="sampled", count=count, seed=seed).findings
            assert got == reference_pointwise(rep, "sampled", count, seed)

    @pytest.mark.parametrize("name,rep", [(name, rep) for name, rep in pointwise_cases()
                                          if rep.p ** len(variable_pairs(rep.n)) <= 125])
    def test_exhaustive_findings_match(self, name, rep):
        got = verify_group_law_pointwise(rep, mode="exhaustive").findings
        assert got == reference_pointwise(rep, "exhaustive")

    def test_both_modes_find_the_failures(self):
        rep = non_representation()
        assert len(verify_group_law_pointwise(rep, mode="exhaustive").findings) == 10000
        assert len(verify_group_law_pointwise(rep, mode="sampled", count=300, seed=4).findings) == 202

    def test_golden_findings(self):
        import json

        rep = non_representation()
        first = verify_group_law_pointwise(rep, mode="sampled", count=300, seed=4).findings[0]
        assert json.dumps(first, sort_keys=True) == (
            '{"actual": "mismatch", "check": "group-law", "expected": "Phi(g)Phi(h) = Phi(gh)", '
            '"location": "g={(1, 2): 1, (1, 3): 2, (2, 3): 0}, h={(1, 2): 3, (1, 3): 3, (2, 3): 1}"}')
        missing_identity = dict(pointwise_cases())["missing-identity"]
        first = verify_group_law_pointwise(missing_identity, mode="sampled", count=1).findings[0]
        assert first == {"check": "group-law", "location": "Phi(1)", "expected": "identity",
                         "actual": "((0, 0), (0, 0))"}

    def test_sampled_memory_does_not_grow_with_the_count(self):
        # U_4(F_11) has 11^12 pairs, so no Phi is kept per point
        rep = construct_from_layers(random_layer_data(4, 2, 11, 1, seed=1))

        def peak(count):
            tracemalloc.start()
            try:
                assert verify_group_law_pointwise(rep, mode="sampled", count=count, seed=3).ok
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(2000) - peak(200) < 200_000


# --- the comodule check on the polynomial matrix, kept as the oracle ----------

def reference_verify_comodule(rep, use_splitting=False):
    """Findings of the comodule check it replaces: Delta of each entry of the
    assembled polynomial matrix against the tensor side of the whole matrix,
    all d^2 entries of both sides held and compared as TensorElements."""
    report = Report()
    chi, pm = rep.chi, rep.poly_matrix
    n, p, d = chi.n, chi.p, chi.d
    if chi.get(ExponentMatrix.zero(n)) != chi.identity_matrix():
        report.add("chi-at-zero", "chi(0)", "identity matrix", chi.get(ExponentMatrix.zero(n)))
    rhs = matrix_product_tensor_side(pm)
    lhs = [[coproduct(pm.entries[a][b]) for b in range(d)] for a in range(d)]
    for a in range(d):
        for b in range(d):
            if lhs[a][b] != rhs[a][b]:
                report.add("coproduct", f"entry ({a + 1}, {b + 1})",
                           "Delta(a_ij) = sum_k a_ik (x) a_kj", "mismatch")
            delta = coerce_scalar(1 if a == b else 0, p)
            if pm.entries[a][b].constant_term() != delta:
                report.add("counit", f"entry ({a + 1}, {b + 1})", delta,
                           pm.entries[a][b].constant_term())
    if use_splitting:
        via_split = split_coproduct(chi)
        for a in range(d):
            for b in range(d):
                if via_split[a][b] != lhs[a][b]:
                    report.add("split-coproduct", f"entry ({a + 1}, {b + 1})",
                               "splitting formula agrees with direct coproduct", "mismatch")
    return report.findings


def comodule_cases():
    """(name, rep): valid reps for p = 5, 7, 11, 13 with 1-3 layers and p = 0,
    each with one entry changed, one key's matrix replaced and one key
    dropped; chi(0) missing or with a broken counit."""
    rng = random.Random(17)
    shapes = {1: (4, 3), 2: (3, 3), 3: (3, 2)}  # (n, d) by the layer count
    valid = [(f"p{p}-layers{layers}", construct_from_layers(random_layer_data(
                 *shapes[layers], p, layers, seed=k)))
             for k, (p, layers) in enumerate(itertools.product((5, 7, 11, 13), (1, 2, 3)))]
    valid += [(f"p0-n{n}-d{d}", construct_from_layers(random_layer_data(n, d, 0, 1, seed=n)))
              for n, d in ((3, 2), (4, 3))]
    cases = list(valid)
    for name, rep in valid:
        n, p, d = rep.n, rep.p, rep.d
        zero = ExponentMatrix.zero(n)
        keys = sorted(rep.chi.support, key=ExponentMatrix.sort_key)
        M = rng.choice(keys[1:])
        rows = [list(row) for row in rep.chi.support[M].entries]
        a, b = rng.randrange(d), rng.randrange(d)
        rows[a][b] = rows[a][b] + rng.randrange(1, p or 7)
        cases.append((f"{name}/entry", corrupted(rep, M, rows)))
        key = zero
        for i, j in variable_pairs(n):
            key = key + ExponentMatrix.epsilon(n, i, j, rng.randrange(3))
        cases.append((f"{name}/key", corrupted(rep, key, random_strict_upper(d, p, rng, True).entries)))
        dropped = {K: mat for K, mat in rep.chi.support.items() if K != rng.choice(keys[1:])}
        cases.append((f"{name}/dropped", Representation(ChiTable(n, p, d, dropped))))
        unit = [[int(a == b) for b in range(d)] for a in range(d)]
        unit[0][d - 1] = 3
        cases.append((f"{name}/counit", corrupted(rep, zero, unit)))
        missing = {K: mat for K, mat in rep.chi.support.items() if K != zero}
        cases.append((f"{name}/no-unit", Representation(ChiTable(n, p, d, missing))))
    return cases


class TestComoduleOracle:
    """verify_comodule reads the chi table; the check on the polynomial matrix
    that it replaced stays the oracle, on whole findings lists."""

    @pytest.mark.parametrize("name,rep", comodule_cases())
    def test_findings_match(self, name, rep):
        for use_splitting in (False, True):
            got = verify_comodule(rep, use_splitting).findings
            assert got == reference_verify_comodule(rep, use_splitting), (name, use_splitting)
        assert "/" in name or not got  # the uncorrupted reps pass

    def test_plain_int_entries(self):
        e12 = ExponentMatrix.epsilon(2, 1, 2)
        rep = Representation(ChiTable(2, 7, 2, {ExponentMatrix.zero(2): SquareMatrix([[1, 0], [0, 1]]),
                                                 e12: SquareMatrix([[0, 7], [0, 0]])}))
        expected = [{"check": "chi-at-zero", "location": "chi(0)",
                     "expected": "identity matrix", "actual": "[1, 0; 0, 1]"}]
        assert verify_comodule(rep).findings == reference_verify_comodule(rep) == expected

    def test_fraction_entry(self):
        half = SquareMatrix([[1, 0], [0, Fraction(1, 2)]])
        rep = Representation(ChiTable(2, 7, 2, {ExponentMatrix.zero(2): half}))
        findings = verify_comodule(rep).findings
        assert findings == reference_verify_comodule(rep)
        assert [(f["check"], f["location"], f["actual"]) for f in findings] == [
            ("chi-at-zero", "chi(0)", "[1, 0; 0, 1/2]"),
            ("coproduct", "entry (2, 2)", "mismatch"),
            ("counit", "entry (2, 2)", "4")]

    def test_entries_mod_another_prime_refused(self):
        rep = Representation(ChiTable(2, 7, 2, {
            ExponentMatrix.zero(2): scalar_matrix([[1, 0], [0, 1]], 7),
            ExponentMatrix.epsilon(2, 1, 2): scalar_matrix([[0, 1], [0, 0]], 11)}))
        for check in (verify_comodule, reference_verify_comodule):
            with pytest.raises(ModulusMismatchError):
                check(rep)

    def test_memory_holds_one_entry(self):
        rep = construct_from_layers(random_layer_data(40, 3, 41, 1, seed=0))
        rep.poly_matrix  # the replaced check found it assembled

        def peak(check):
            hopf._generator_power.cache_clear()
            tracemalloc.start()
            try:
                assert check(rep) == []
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(lambda rep: verify_comodule(rep).findings) <= peak(reference_verify_comodule) / 2


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



# --- the digit-scan layer extraction, kept as the oracle ----------------------

def reference_layers(rep):
    """Layers from a scan of every single-position exponent's p-ary digits,
    then one chi(p^l eps_ij) lookup per layer and pair."""
    chi = rep.chi
    n, p, d = chi.n, chi.p, chi.d
    count = 1
    for M in chi.support if p else ():
        pos = list(M.positions())
        if len(pos) == 1:
            count = max(count, len(p_ary_digits(pos[0][1], p).digits))
    layers = []
    for l in range(count):
        keys = {(i, j): ExponentMatrix.epsilon(n, i, j, p**l if p else 1) for i, j in variable_pairs(n)}
        layers.append({ij: chi.support[M] for ij, M in keys.items() if M in chi.support})
    return LieLayerData(n, p, d, layers).trimmed()


class TestDecomposeOracle:
    N2 = [[0, 1], [0, 0]]

    def cases(self):
        p = 5
        gap = LieLayerData(3, p, 2, [{(1, 2): scalar_matrix(self.N2, p)}, {},
                                     {(2, 3): scalar_matrix(self.N2, p)}])
        yield gap
        yield LieLayerData(3, p, 2, [{}, {(1, 2): scalar_matrix(self.N2, p)}])
        for seed in range(4):
            yield random_layer_data(3, 3, 0, 1, seed=seed).trimmed()
            yield random_layer_data(3, 2, 7, 3, seed=seed).trimmed()
            yield random_layer_data(4, 2, 11, 2, seed=seed).trimmed()

    def test_layers_match(self):
        for data in self.cases():
            rep = construct_from_layers(data)
            assert decompose_to_layers(rep) == reference_layers(rep) == data

    def test_empty_middle_layer_is_kept(self):
        data = next(self.cases())
        layers = decompose_to_layers(construct_from_layers(data)).layers
        assert len(layers) == 3 and layers[1] == {} and layers[0] and layers[2]

    def test_no_layers(self):
        for p in (0, 7):
            rep = Representation(ChiTable(3, p, 2, {ExponentMatrix.zero(3): scalar_matrix([[1, 0], [0, 1]], p)}))
            assert decompose_to_layers(rep).layers == reference_layers(rep).layers == ()


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

    def test_check_morphism_shape_errors(self):
        rep11, _ = shared_nilpotent_rep(3, 2, 11, (3, 4))
        rep13, _ = shared_nilpotent_rep(3, 2, 13, (3, 4))
        rep4, _ = shared_nilpotent_rep(4, 2, 11, (3, 4, 5))
        identity = SquareMatrix.identity(2, Residue(1, 11))
        for src, dst in ((rep11, rep13), (rep11, rep4)):
            with pytest.raises(ShapeError, match="^representations live over different groups or fields$"):
                check_morphism(identity, src, dst)
        short_row = [[1, 0], [0]]
        for t in ([[Residue(1, 11), Residue(0, 11)]], short_row, SquareMatrix.identity(3, Residue(1, 11))):
            with pytest.raises(ShapeError, match="^morphism candidate must be 2 x 2$"):
                check_morphism(t, rep11, rep11)

    def test_layer_criterion_refuses_out_of_regime(self):
        # p = 3 < max(n, 2d) = 4: the layers need not determine the representation
        trivial = Representation(ChiTable(3, 3, 2, {
            ExponentMatrix.zero(3): SquareMatrix.identity(2, Residue(1, 3)),
        }))
        message = r"^layer criterion needs p >= max\(n, 2d\) = 4, got p = 3$"
        with pytest.raises(HypothesisError, match=message):
            layer_morphism_equivalence(SquareMatrix.identity(2, Residue(1, 3)), trivial, trivial)
