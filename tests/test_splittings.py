"""Splitting combinatorics behind the closed-form coproduct."""

import itertools
import math
import random

import pytest

from unirep import splittings
from unirep.errors import CostBoundError, ShapeError
from unirep.hopf import ExponentMatrix, TensorElement, coproduct, variable_pairs
from unirep.linalg import scalar_matrix
from unirep.reps import ChiTable, Representation
from unirep.samples import random_chi_support
from unirep.splittings import (
    MAX_AUDIT_N,
    LinearExpr,
    Splitting,
    SplitVarId,
    all_split_vars,
    brute_solve_yz,
    enumerate_splittings,
    l_expression,
    occurrence_report,
    r_expression,
    shared_variable,
    solve_yz,
    split_coproduct,
)

from oracles import reference_solve_yz


def s(i, j, k):
    return SplitVarId(i, j, k)


class TestExpressions:
    def test_l12_for_n4(self):
        # L_12 = s_12^2 + s_13^2 + s_14^2
        assert l_expression(1, 2, 4).summands == (s(1, 2, 2), s(1, 3, 2), s(1, 4, 2))

    def test_r34_for_n4(self):
        # R_34 = s_14^3 + s_24^2 + s_34^1
        assert r_expression(3, 4, 4).summands == (s(1, 4, 3), s(2, 4, 2), s(3, 4, 1))

    def test_var_shape_validation(self):
        with pytest.raises(ShapeError):
            SplitVarId(1, 2, 3)  # k may be at most j - i + 1 = 2

    @pytest.mark.parametrize("args,message", [
        ((2, 2, 1), r"need 1 <= i < j, got \(2, 2\)"),
        ((0, 2, 1), r"need 1 <= i < j, got \(0, 2\)"),
        ((1, 2, 3), r"layer 3 out of range for position \(1, 2\)"),
        ((1, 3, 0), r"layer 0 out of range for position \(1, 3\)"),
    ])
    def test_var_constructor_errors(self, args, message):
        with pytest.raises(ShapeError, match=f"^{message}$"):
            SplitVarId(*args)

    def test_splitting_constructor_errors(self):
        with pytest.raises(ShapeError, match="^splitting entries must be non-negative$"):
            Splitting(3, {s(1, 2, 1): 1, s(2, 3, 2): -1})
        with pytest.raises(ShapeError, match=r"^variable s_13\^1 out of range for n = 2$"):
            Splitting(2, {s(1, 3, 1): 1})
        assert Splitting(3, {s(1, 2, 1): 0, s(2, 3, 2): 4}).assignment == {s(2, 3, 2): 4}

    def test_shared_variable(self):
        assert shared_variable((1, 2), (2, 4), 4) == s(1, 4, 2)
        assert shared_variable((1, 3), (2, 4), 4) is None

    def test_linear_expr_refuses_duplicates_and_evaluates(self):
        with pytest.raises(ShapeError, match="duplicate variable"):
            LinearExpr((s(1, 2, 1), s(1, 3, 2), s(1, 2, 1)))
        expr = l_expression(1, 2, 4)
        assert expr.evaluate({}) == 0
        assert expr.evaluate({s(1, 2, 2): 3, s(1, 4, 2): 4, s(1, 2, 1): 100}) == 7

    @pytest.mark.parametrize("n", range(1, 7))
    def test_all_split_vars(self, n):
        # s_ij^k for 1 <= k <= j - i + 1: n(n-1)(n+4)/6 variables, in (i, j, k) order
        variables = all_split_vars(n)
        assert len(variables) == n * (n - 1) * (n + 4) // 6
        assert variables == sorted(variables) and len(set(variables)) == len(variables)
        assert variables == [s(i, j, k) for i, j in variable_pairs(n) for k in range(1, j - i + 2)]


class TestOccurrenceReport:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_all_claims_hold(self, n):
        assert occurrence_report(n) == []

    def test_findings_are_four_strings(self, monkeypatch):
        # every L and every R is L_12, and the predicted shared variable is always s_12^1
        l12 = l_expression(1, 2, 4)
        monkeypatch.setattr(splittings, "l_expression", lambda i, j, n: l12)
        monkeypatch.setattr(splittings, "r_expression", lambda i, j, n: l12)
        monkeypatch.setattr(splittings, "shared_variable", lambda lp, rp, n: s(1, 2, 1))
        findings = occurrence_report(4)
        assert {f["check"] for f in findings} == {
            "L-occurrence", "R-occurrence", "L-absence", "R-absence", "shared-variable"}
        for f in findings:
            assert set(f) == {"check", "location", "expected", "actual"}
            assert all(type(v) is str for v in f.values()), f
        shared = [f for f in findings if f["check"] == "shared-variable"]
        assert len(shared) == 36 and shared[0] == {
            "check": "shared-variable", "location": "L(1, 2) vs R(1, 2)",
            "expected": "s_12^1", "actual": "s_12^2, s_13^2, s_14^2"}


class TestEnumeration:
    def test_count_single_entry(self):
        # m_13 = 2 splits into 3 slots: C(2+2, 2) = 6 splittings
        m = ExponentMatrix.epsilon(3, 1, 3, 2)
        assert len(enumerate_splittings(m)) == 6

    def test_sums_reconstruct(self):
        m = ExponentMatrix(3, ((0, 1, 2), (0, 0, 1), (0, 0, 0)))
        splittings = enumerate_splittings(m)
        assert all(sp.sum_matrix() == m for sp in splittings)
        assert len(set(sp.sort_key() for sp in splittings)) == len(splittings)

    def test_weights_total(self):
        # sum of multinomial weights over all splittings of m_ij = r into
        # j-i+1 slots is (j-i+1)^r per entry
        m = ExponentMatrix.epsilon(4, 1, 4, 2)
        assert sum(sp.weight() for sp in enumerate_splittings(m)) == 4**2


class TestSplitCoproduct:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_direct_coproduct(self, seed):
        n, d, p = 3, 2, 7
        chi = ChiTable(n, p, d, random_chi_support(n, d, p, 4, seed=seed, max_entry=2))
        rep = Representation(chi)
        grid = split_coproduct(chi)
        for a in range(d):
            for b in range(d):
                assert grid[a][b] == coproduct(rep.poly_matrix.entries[a][b])

    def test_rational_coefficients(self):
        n, d = 3, 2
        chi = ChiTable(n, 0, d, random_chi_support(n, d, 0, 3, seed=11, max_entry=2))
        rep = Representation(chi)
        grid = split_coproduct(chi)
        for a in range(d):
            for b in range(d):
                assert grid[a][b] == coproduct(rep.poly_matrix.entries[a][b])


def yz_matrices(n, y_entries, z_entries):
    y = [[0] * n for _ in range(n)]
    z = [[0] * n for _ in range(n)]
    pos_y = [(i, j) for i in range(2, n + 1) for j in range(i + 1, n + 1)]
    pos_z = [(1, j) for j in range(2, n + 1)]
    for (i, j), v in zip(pos_y, y_entries):
        y[i - 1][j - 1] = v
    for (i, j), v in zip(pos_z, z_entries):
        z[i - 1][j - 1] = v
    return ExponentMatrix(n, y), ExponentMatrix(n, z)


class TestYZSolving:
    def test_closed_form_example(self):
        y, z = yz_matrices(4, (1, 0, 2), (0, 3, 1))
        sol = solve_yz(y, z)
        assert sol.assignment == {
            s(2, 3, 2): 1, s(3, 4, 2): 2, s(1, 3, 1): 3, s(1, 4, 1): 1,
        }

    def test_closed_form_satisfies_equations(self):
        y, z = yz_matrices(4, (1, 1, 1), (1, 1, 1))
        sol = solve_yz(y, z)
        assert sol.left_matrix() == y
        assert sol.right_matrix() == z

    def test_brute_force_agrees(self):
        n = 3
        for y_vals in itertools.product(range(2), repeat=1):
            for z_vals in itertools.product(range(2), repeat=2):
                y, z = yz_matrices(n, y_vals, z_vals)
                sols = brute_solve_yz(y, z, bound=2)
                assert sols == [solve_yz(y, z)]
        # a bound far above the largest goal: every value past a goal is cut off
        for y_vals in ((2, 0, 1), (0, 3, 0)):
            y, z = yz_matrices(4, y_vals, (1, 0, 2))
            assert brute_solve_yz(y, z, bound=9) == [solve_yz(y, z)]

    @pytest.mark.parametrize("seed", range(3))
    def test_brute_search_matches_full_product(self, seed):
        # targets of a random splitting may have several solutions; the search
        # finds all of them, in the lexicographic order of the full product
        n, bound = 3, 2
        variables = all_split_vars(n)
        rng = random.Random(seed)
        hit = Splitting(n, {v: rng.randint(0, 1) for v in variables})
        y, z = hit.left_matrix(), hit.right_matrix()
        full = [sp for sp in (Splitting(n, dict(zip(variables, values)))
                              for values in itertools.product(range(bound + 1), repeat=len(variables)))
                if sp.left_matrix() == y and sp.right_matrix() == z]
        assert hit in full
        assert brute_solve_yz(y, z, bound=bound) == full

    def test_brute_search_size_bound(self):
        n = MAX_AUDIT_N + 1
        with pytest.raises(CostBoundError, match=f"n = {n} is over the bound of {MAX_AUDIT_N}"):
            brute_solve_yz(ExponentMatrix.zero(n), ExponentMatrix.zero(n))
        n = MAX_AUDIT_N
        assert brute_solve_yz(ExponentMatrix.zero(n), ExponentMatrix.zero(n)) == [
            solve_yz(ExponentMatrix.zero(n), ExponentMatrix.zero(n))]

    def test_shape_guards(self):
        bad_y = ExponentMatrix.epsilon(3, 1, 2)  # nonzero top row
        with pytest.raises(ShapeError):
            solve_yz(bad_y, ExponentMatrix.zero(3))
        bad_z = ExponentMatrix.epsilon(3, 2, 3)  # off the top row
        with pytest.raises(ShapeError):
            solve_yz(ExponentMatrix.zero(3), bad_z)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_entry_by_entry_reference(self, n):
        # every (Y, Z) of the shape with entries <= 2: the same splitting as the
        # entry-by-entry solve through the checked constructor
        top, rest = n - 1, (n - 1) * (n - 2) // 2
        for ys in itertools.product(range(3), repeat=rest):
            for zs in itertools.product(range(3), repeat=top):
                y, z = yz_matrices(n, ys, zs)
                sol = solve_yz(y, z)
                assert sol == reference_solve_yz(y, z)
                assert (sol.left_matrix(), sol.right_matrix()) == (y, z)

    def test_every_pair_raises_as_the_reference(self):
        # every (Y, Z) at n = 3 with entries <= 2, off the shape included: the
        # same error, checked in the same order, or the same splitting
        def outcome(solve, y, z):
            try:
                return solve(y, z)
            except ShapeError as exc:
                return str(exc)

        matrices = [ExponentMatrix(3, [[0, a, b], [0, 0, c], [0, 0, 0]])
                    for a, b, c in itertools.product(range(3), repeat=3)]
        for y, z in itertools.product(matrices, repeat=2):
            assert outcome(solve_yz, y, z) == outcome(reference_solve_yz, y, z)

    def test_shape_error_messages_in_order(self):
        bad_y, bad_z = ExponentMatrix.epsilon(3, 1, 2), ExponentMatrix.epsilon(3, 2, 3)
        with pytest.raises(ShapeError, match="^size mismatch$"):
            solve_yz(bad_y, ExponentMatrix.zero(4))
        with pytest.raises(ShapeError, match="^Y must have a zero top row$"):
            solve_yz(bad_y, bad_z)
        with pytest.raises(ShapeError, match="^Z must be zero outside the top row$"):
            solve_yz(ExponentMatrix.zero(3), bad_z)


# --- the variable-by-variable Y/Z search, kept as the oracle ----------------


def reference_brute_solve_yz(Y, Z, bound=None):
    """Every variable in lexicographic order, each value from 0 up to its
    first overshoot, a target checked at its last variable."""
    n = Y.n
    if bound is None:
        bound = (Y + Z).max_entry()
    targets = {}
    for i, j in variable_pairs(n):
        targets[("L", i, j)] = (l_expression(i, j, n), Y.entry(i, j))
        targets[("R", i, j)] = (r_expression(i, j, n), Z.entry(i, j))
    variables = all_split_vars(n)
    feeds = {v: [] for v in variables}
    last_var = {}
    for name, (expr, _) in targets.items():
        for v in expr.summands:
            feeds[v].append(name)
            last_var[name] = max(last_var.get(name, v), v)
    solutions = []
    running = {name: 0 for name in targets}
    assignment = {}

    def search(idx):
        if idx == len(variables):
            solutions.append(Splitting(n, dict(assignment)))
            return
        v = variables[idx]
        top = min([bound] + [targets[name][1] - running[name] for name in feeds[v]])
        for m in range(top + 1):
            if any(last_var[name] == v and running[name] + m != targets[name][1] for name in feeds[v]):
                continue
            for name in feeds[v]:
                running[name] += m
            if m:
                assignment[v] = m
            search(idx + 1)
            for name in feeds[v]:
                running[name] -= m
            assignment.pop(v, None)

    search(0)
    return solutions


class TestSearchOracle:
    """The propagating search against the variable-by-variable one: the same
    solutions in the same order."""

    @staticmethod
    def targets(n, rng, top):
        hit = Splitting(n, {v: rng.randint(0, top) for v in all_split_vars(n)})
        return hit.left_matrix(), hit.right_matrix()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("bound", [None, 1, 2, 4])
    def test_random_splitting_targets(self, n, bound):
        rng = random.Random(10 * n + (bound or 0))
        for _ in range(12):
            y, z = self.targets(n, rng, 1 if n == 4 else 2)
            expected = reference_brute_solve_yz(y, z, bound)
            assert brute_solve_yz(y, z, bound) == expected
            if bound is None or bound >= (y + z).max_entry():
                assert expected  # the splitting that gave the targets is found

    def test_seeded_sample_at_n_5(self):
        rng = random.Random(5)
        for _ in range(5):
            y, z = self.targets(5, rng, 1)
            for bound in (None, 1):
                assert brute_solve_yz(y, z, bound) == reference_brute_solve_yz(y, z, bound)

    def test_yz_shape_has_the_closed_form_only(self):
        for y_vals, z_vals in (((1, 0, 2), (0, 3, 1)), ((2, 2, 2), (1, 0, 0))):
            y, z = yz_matrices(4, y_vals, z_vals)
            assert brute_solve_yz(y, z, 4) == reference_brute_solve_yz(y, z, 4) == [solve_yz(y, z)]

    def test_goal_above_bound_refused(self):
        # L_12 = s_12^2 alone must reach 3 with entries <= 2
        y = ExponentMatrix.epsilon(2, 1, 2, 3)
        z = ExponentMatrix.zero(2)
        assert brute_solve_yz(y, z, bound=2) == reference_brute_solve_yz(y, z, bound=2) == []
        assert brute_solve_yz(y, z, bound=3) == [Splitting(2, {s(1, 2, 2): 3})]

    def test_two_targets_forcing_one_variable_refused(self):
        # R_23 = s_13^2 + s_23^1 = 0 forces s_13^2 to 0, while L_12 = s_12^2 +
        # s_13^2 = 2 with entries <= 1 needs s_13^2 = 1
        y = ExponentMatrix.epsilon(3, 1, 2, 2)
        z = ExponentMatrix.zero(3)
        assert brute_solve_yz(y, z, bound=1) == reference_brute_solve_yz(y, z, bound=1) == []
        assert brute_solve_yz(y, z, bound=2) == [Splitting(3, {s(1, 2, 2): 2})]

    def test_negative_bound_leaves_only_the_empty_size(self):
        assert brute_solve_yz(ExponentMatrix.zero(1), ExponentMatrix.zero(1), bound=-1) == [Splitting(1, {})]
        assert brute_solve_yz(ExponentMatrix.zero(3), ExponentMatrix.zero(3), bound=-1) == []


# --- the per-splitting split_coproduct, kept as the oracle -------------------


def reference_enumerate(M):
    """Every splitting of M, each variable built and checked anew."""
    n = M.n
    pairs = variable_pairs(n)
    per_entry = [
        [c for c in itertools.product(range(M.entry(i, j) + 1), repeat=j - i + 1)
         if sum(c) == M.entry(i, j)]
        for i, j in pairs
    ]
    out = []
    for combo in itertools.product(*per_entry):
        assignment = {}
        for (i, j), parts in zip(pairs, combo):
            for k, m in enumerate(parts, start=1):
                if m:
                    assignment[SplitVarId(i, j, k)] = m
        out.append(Splitting(n, assignment))
    return out


def reference_split_coproduct(chi):
    """Each splitting's key pair from left_matrix/right_matrix and its weight
    from weight(), added into the cells one splitting at a time; the pairs
    become flat tensor keys only at the end."""
    d = chi.d
    grid = [[{} for _ in range(d)] for _ in range(d)]
    for M, mat in chi.items():
        for s in reference_enumerate(M):
            key = (s.left_matrix(), s.right_matrix())
            w = s.weight()
            for a in range(d):
                for b in range(d):
                    c = mat.entries[a][b]
                    if c:
                        grid[a][b][key] = grid[a][b].get(key, 0) + c * w
    return [[TensorElement(chi.n, chi.p, {left.flat + right.flat: c for (left, right), c in cell.items()})
             for cell in row] for row in grid]


def splitting_count(support):
    """Entry m_ij of a key splits into j - i + 1 ordered parts."""
    return sum(math.prod(math.comb(m + j - i, j - i) for (i, j), m in M.positions())
               for M in support)


def small_chi(n, d, p, count, seed, cap=200):
    """A seeded chi table with at most ``cap`` splittings in all."""
    max_entry = {2: 6, 3: 2}.get(n, 1)
    while True:
        support = random_chi_support(n, d, p, count, seed=seed, max_entry=max_entry)
        if splitting_count(support) <= cap:
            return ChiTable(n, p, d, support)
        seed += 1000


def test_random_chi_support_refuses_more_keys_than_there_are():
    # n = 2 with entries <= 2 has the 3 keys 0, eps_12 and 2 eps_12
    support = random_chi_support(2, 2, 5, 3, seed=0, max_entry=2)
    assert sorted(M.flat for M in support) == [(0,), (1,), (2,)]
    with pytest.raises(ValueError, match="count 4 is over the 3 distinct keys"):
        random_chi_support(2, 2, 5, 4, seed=0, max_entry=2)
    with pytest.raises(ValueError, match="over the 8 distinct keys"):
        random_chi_support(3, 1, 7, 9, seed=0, max_entry=1)


class TestSplitCoproductOracle:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("p", [0, 5, 7, 11])
    def test_matches_per_splitting_reference(self, n, p):
        for count in range(1, 6):
            chi = small_chi(n, 2, p, count, seed=100 * n + 10 * p + count)
            fast = split_coproduct(chi)
            slow = reference_split_coproduct(chi)
            for a in range(2):
                for b in range(2):
                    assert fast[a][b] == slow[a][b]
                    assert fast[a][b].terms == slow[a][b].terms

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_enumeration_matches_reference(self, n):
        chi = small_chi(n, 1, 7, 3, seed=n)
        for M in chi.support:
            fast = enumerate_splittings(M)
            assert fast == reference_enumerate(M)
            assert all(isinstance(s, Splitting) for s in fast)
            for s in fast:
                assert all(v == SplitVarId(v.i, v.j, v.k) and m > 0 for v, m in s.assignment.items())
                assert s.sum_matrix() == M

    def test_one_dimensional_identity_table(self):
        # d = 1, only the zero key: Delta(1) = 1 (x) 1
        z = ExponentMatrix.zero(4)
        chi = ChiTable(4, 5, 1, {z: scalar_matrix([[1]], 5)})
        assert split_coproduct(chi)[0][0] == TensorElement.one(4, 5)

    def test_weight_sum_divisible_by_p_drops_the_term(self):
        # M = 5 eps_12 over F_5: the split keys (a eps_12, b eps_12) with
        # 0 < a < 5 have binomial weights divisible by 5 and vanish
        M = ExponentMatrix.epsilon(2, 1, 2, 5)
        chi = ChiTable(2, 5, 1, {M: scalar_matrix([[1]], 5)})
        grid = split_coproduct(chi)
        assert grid[0][0] == reference_split_coproduct(chi)[0][0]
        assert len(grid[0][0].terms) == 2
