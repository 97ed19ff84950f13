"""Splitting combinatorics for the closed-form coproduct.

A splitting of an exponent matrix M is a family of variable matrices
S_1 ... S_n (S_k being (k-1)-fold strictly upper triangular) with
S_1 + ... + S_n = M.  The linear expressions

    L_ij = sum_{k=j}^n s_ik^{j-i+1}      R_ij = sum_{k=1}^i s_kj^{i-k+1}

give the exponents of x_ij in the left and right tensor slots of the
closed-form coproduct.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, lru_cache, reduce
from operator import itemgetter, or_

from .arith import matrix_multinomial
from .errors import CostBoundError, ShapeError, finding
from .hopf import ExponentMatrix, TensorElement, _compositions, _int_scalars, variable_pairs

__all__ = [
    "SplitVarId",
    "LinearExpr",
    "Splitting",
    "l_expression",
    "r_expression",
    "shared_variable",
    "all_split_vars",
    "enumerate_splittings",
    "split_coproduct",
    "solve_yz",
    "brute_solve_yz",
    "occurrence_report",
]


class SplitVarId(tuple):
    """The variable s_ij^k, position (i, j) of the layer matrix S_k: the tuple (i, j, k)."""

    __slots__ = ()
    i, j, k = (property(itemgetter(x)) for x in range(3))

    def __new__(cls, i, j, k):
        if not type(i) is type(j) is type(k) is int:
            raise ShapeError(f"split variable indices must be ints, got ({i!r}, {j!r}, {k!r})")
        if not (1 <= i < j):
            raise ShapeError(f"need 1 <= i < j, got ({i}, {j})")
        if not (1 <= k <= j - i + 1):
            raise ShapeError(f"layer {k} out of range for position ({i}, {j})")
        return tuple.__new__(cls, (i, j, k))

    def __getnewargs__(self):  # copy and pickle call __new__ with these
        return tuple(self)

    def __repr__(self):
        return f"SplitVarId(i={self.i}, j={self.j}, k={self.k})"

    def __str__(self):
        return f"s_{self.i}{self.j}^{self.k}"


@dataclass(frozen=True)
class LinearExpr:
    """A duplicate-free sum of splitting variables."""

    summands: tuple

    def __post_init__(self):
        if len(set(self.summands)) != len(self.summands):
            raise ShapeError("duplicate variable in a linear expression")

    def evaluate(self, assignment) -> int:
        return sum(assignment.get(v, 0) for v in self.summands)


def _check_pair(i, j, n):
    if not (1 <= i < j <= n):
        raise ShapeError(f"need 1 <= i < j <= n, got ({i}, {j}) with n = {n}")


def l_expression(i, j, n) -> LinearExpr:
    """L_ij = sum_{k=j}^n s_ik^{j-i+1}, in increasing k."""
    _check_pair(i, j, n)
    return LinearExpr(tuple(SplitVarId(i, k, j - i + 1) for k in range(j, n + 1)))


def r_expression(i, j, n) -> LinearExpr:
    """R_ij = sum_{k=1}^i s_kj^{i-k+1}, in increasing k."""
    _check_pair(i, j, n)
    return LinearExpr(tuple(SplitVarId(k, j, i - k + 1) for k in range(1, i + 1)))


def shared_variable(l_pair, r_pair, n):
    """The unique variable common to L_ij and R_uv: s_iv^{j-i+1} when j = u."""
    (i, j), (u, v) = l_pair, r_pair
    _check_pair(i, j, n)
    _check_pair(u, v, n)
    if j != u:
        return None
    return SplitVarId(i, v, j - i + 1)


def all_split_vars(n):
    """Every s_ij^k for size n, lexicographic in (i, j, k)."""
    return [v for slots in _entry_vars(n) for v in slots]


class Splitting:
    """An assignment of non-negative integers to the splitting variables."""

    __slots__ = ("n", "assignment")

    def __init__(self, n, assignment):
        self.n = n
        clean = {}
        for v, m in assignment.items():
            if not isinstance(v, SplitVarId) or type(m) is not int:
                raise ShapeError(f"a splitting maps SplitVarIds to ints, got {v!r}: {m!r}")
            if m < 0:
                raise ShapeError("splitting entries must be non-negative")
            if v.j > n:
                raise ShapeError(f"variable {v} out of range for n = {n}")
            if m:
                clean[v] = m
        self.assignment = clean

    @classmethod
    def _trusted(cls, n, assignment):
        """Wrap {size-n variable: positive int} built in this module, unchecked."""
        s = cls.__new__(cls)
        s.n, s.assignment = n, assignment
        return s

    def layer_matrix(self, k) -> ExponentMatrix:
        """The matrix S_k."""
        rows = [[0] * self.n for _ in range(self.n)]
        for v, m in self.assignment.items():
            if v.k == k:
                rows[v.i - 1][v.j - 1] = m
        return ExponentMatrix(self.n, rows)

    def layer_matrices(self):
        return [self.layer_matrix(k) for k in range(1, self.n + 1)]

    def sum_matrix(self) -> ExponentMatrix:
        rows = [[0] * self.n for _ in range(self.n)]
        for v, m in self.assignment.items():
            rows[v.i - 1][v.j - 1] += m
        return ExponentMatrix(self.n, rows)

    def left_matrix(self) -> ExponentMatrix:
        """Exponent matrix with (i, j) entry L_ij evaluated at this splitting."""
        rows = [[0] * self.n for _ in range(self.n)]
        for i, j in variable_pairs(self.n):
            rows[i - 1][j - 1] = l_expression(i, j, self.n).evaluate(self.assignment)
        return ExponentMatrix(self.n, rows)

    def right_matrix(self) -> ExponentMatrix:
        rows = [[0] * self.n for _ in range(self.n)]
        for i, j in variable_pairs(self.n):
            rows[i - 1][j - 1] = r_expression(i, j, self.n).evaluate(self.assignment)
        return ExponentMatrix(self.n, rows)

    def weight(self) -> int:
        """The matrix multinomial (S_1 + ... + S_n choose S_1, ..., S_n)."""
        return matrix_multinomial(self.sum_matrix(), self.layer_matrices())

    def sort_key(self):
        return tuple(self.assignment.get(v, 0) for v in all_split_vars(self.n))

    def __eq__(self, other):
        return isinstance(other, Splitting) and (self.n, self.assignment) == (other.n, other.assignment)

    def __hash__(self):
        return hash((self.n, frozenset(self.assignment.items())))

    def __str__(self):
        return ", ".join(f"{v}={m}" for v, m in sorted(self.assignment.items())) or "0"

    __repr__ = __str__


@cache
def _entry_vars(n):
    """Per pair (i, j) of variable_pairs(n), the variables s_ij^1 ..
    s_ij^{j-i+1}, built once per n."""
    return tuple(tuple(SplitVarId(i, j, k) for k in range(1, j - i + 2)) for i, j in variable_pairs(n))


@lru_cache(maxsize=256)
def _entry_splits(n, ij, m):
    """Entry m of the ij-th pair of size n split into its slots, each as its (variable, part > 0) pairs."""
    slots = _entry_vars(n)[ij]
    return tuple(tuple((v, c) for v, c in zip(slots, parts) if c) for parts in _compositions(m, len(slots)))


def enumerate_splittings(M: ExponentMatrix):
    """Every decomposition S_1 + ... + S_n = M respecting the layer shapes.

    Each entry m_ij splits independently into its j-i+1 slots, so the result
    is the per-entry product; the order is lexicographic in (i, j, k).
    """
    n = M.n
    per_entry = [_entry_splits(n, ij, m) for ij, m in enumerate(M.flat) if m]
    return [
        Splitting._trusted(n, dict(itertools.chain.from_iterable(combo)))
        for combo in itertools.product(*per_entry)
    ]


@cache
def _feeds(n):
    """For each splitting variable of size n, the positions in a joined L/R
    key where it adds its value: L_ij at its index in variable_pairs(n), R_ij
    at N plus that index (N the number of pairs), and 2N for a missing side.
    By the occurrence claims each variable feeds at most one L and one R."""
    pairs = variable_pairs(n)
    N = len(pairs)
    feeds = {v: [2 * N, 2 * N] for slots in _entry_vars(n) for v in slots}
    for pos, (i, j) in enumerate(pairs):
        for v in l_expression(i, j, n).summands:
            feeds[v][0] = pos
        for v in r_expression(i, j, n).summands:
            feeds[v][1] = N + pos
    return {v: tuple(f) for v, f in feeds.items()}


def split_coproduct(chi):
    """The d x d grid of Delta(a_ij) computed by the closed formula.

    ``chi`` is a ChiTable, so its entries are already in the field.  For each
    supported M and each splitting, the term is weighted by the matrix
    multinomial and placed at the exponents given by the L/R evaluations.  The weights of one M are summed per L/R key before
    the d x d cells are touched, times each entry's int (over Q, its numerator
    over the table's common denominator).
    """
    n, p, d = chi.n, chi.p, chi.d
    feeds = _feeds(n)
    width = n * (n - 1)  # the L entries, then the R entries
    grid = [[{} for _ in range(d)] for _ in range(d)]
    support = [(M, [(grid[a][b], c) for a, row in enumerate(mat.entries)
                    for b, c in enumerate(row) if c]) for M, mat in chi.items()]
    values, den = _int_scalars([c for _, cells in support for _, c in cells], p)
    values = iter(values)
    for M, cells in support:
        # a splitting's weight, the matrix multinomial: prod m_ij! / prod (s_ij^k)!
        whole = math.prod(map(math.factorial, M.flat))
        weights = {}
        for s in enumerate_splittings(M):
            key = [0] * (width + 1)
            parts = 1
            for v, m in s.assignment.items():
                left, right = feeds[v]
                key[left] += m
                key[right] += m
                parts *= math.factorial(m)
            key = tuple(key[:width])
            weights[key] = weights.get(key, 0) + whole // parts
        for (cell, _), c in zip(cells, values):  # values, one iterator over all M
            for key, w in weights.items():
                cell[key] = cell.get(key, 0) + c * w
    return [[TensorElement._from_flat(n, p, cell, den) for cell in row] for row in grid]


def solve_yz(Y: ExponentMatrix, Z: ExponentMatrix) -> Splitting:
    """Closed-form unique solution of L = Y, R = Z for Y with zero top row and
    Z supported on the top row only: s_1j^1 = z_1j, s_ij^{j-i+1} = y_ij.  The
    top row's n - 1 pairs come first in the flat order."""
    n, top = Y.n, Y.n - 1
    if Z.n != n:
        raise ShapeError("size mismatch")
    if any(Y.flat[:top]):
        raise ShapeError("Y must have a zero top row")
    if any(Z.flat[top:]):
        raise ShapeError("Z must be zero outside the top row")
    slots = _entry_vars(n)
    assignment = {v[0]: z for v, z in zip(slots[:top], Z.flat) if z}
    assignment.update((v[-1], y) for v, y in zip(slots[top:], Y.flat[top:]) if y)
    return Splitting._trusted(n, assignment)


@cache
def _yz_plan(n):
    """The variables in lexicographic order, each target's variables as a bitmask
    (L_ij at the index of (i, j), R_ij N places further), each variable's targets."""
    variables = tuple(all_split_vars(n))
    feeds = tuple(tuple(t for t in _feeds(n)[v] if t < n * (n - 1)) for v in variables)
    masks = tuple(sum(1 << x for x, targets in enumerate(feeds) if t in targets) for t in range(n * (n - 1)))
    return variables, masks, feeds


def _propagate(masks, feeds, remaining, bound):
    """The values the targets force (0 while open) and the bitmask of the open
    variables, taking ``remaining`` down in place, or (None, 0) when a forced
    value, 0 included, is past ``bound``: one sweep zeroes the variables of the
    targets with goal 0, one pass sets each other target's last open variable,
    its private one (s_ij^{j-i+1} of L_ij, s_ij^1 of R_ij), to the goal."""
    zero = reduce(or_, (mask for mask, goal in zip(masks, remaining) if not goal), 0)
    if zero and bound < 0:
        return None, 0
    values, open_ = [0] * len(feeds), (1 << len(feeds)) - 1 & ~zero
    for t, goal in enumerate(remaining):
        rest = masks[t] & open_
        if goal and not rest & (rest - 1):
            if goal > bound:
                return None, 0
            values[rest.bit_length() - 1], open_, remaining[t] = goal, open_ ^ rest, 0
    return values, open_


# brute_solve_yz branches once per variable that propagation leaves open, at
# most n(n-1)(n+4)/6 of them: 800 at n = 16, 952 at n = 17 and 1122 at
# n = 18, past the default recursion limit of 1000 frames.
MAX_AUDIT_N = 16
# An audit checks (bound+1)^N (Y, Z) pairs, N = n(n-1)/2, each solved by
# propagation alone.  Fresh process, 2-vCPU Xeon: n = 2 --bound 4095, n = 4
# --bound 3 and n = 5 --bound 1 take 0.13-0.15 s each, 0.11 s of it start-up;
# n = 6 --bound 1 (2^15 pairs) would take 0.55 s, n = 5 --bound 2 (3^10) 0.7 s.
MAX_AUDIT_PAIRS = 4096


def brute_solve_yz(Y: ExponentMatrix, Z: ExponentMatrix, bound=None):
    """Exhaustive search for all splittings with entries <= bound satisfying
    L-evaluation = Y and R-evaluation = Z, in the lexicographic order of the
    naive full product.

    The default bound is the largest entry of Y + Z (every variable appears in
    some L or R with coefficient 1, so larger values cannot occur).  On int
    bitmasks of each target's open variables, one sweep zeroes those of every
    target with goal 0, then one pass sets each target left with one open
    variable, its private one, to its goal, which moves no other target.  What
    is left is walked in lexicographic order with partial-sum pruning.  Sizes
    above MAX_AUDIT_N raise CostBoundError.
    """
    n = Y.n
    if Z.n != n:
        raise ShapeError("size mismatch")
    if n > MAX_AUDIT_N:
        raise CostBoundError(f"splitting search at n = {n} is over the bound of {MAX_AUDIT_N}")
    if bound is None:
        bound = (Y + Z).max_entry()
    variables, masks, feeds = _yz_plan(n)
    remaining = list(Y.flat + Z.flat)
    values, open_ = _propagate(masks, feeds, remaining, bound)
    if values is None:
        return []
    if not open_:  # the one solution
        return [Splitting._trusted(n, {variables[x]: m for x, m in enumerate(values) if m})]
    free = [x for x in range(len(variables)) if open_ >> x & 1]
    closes = {}  # a target still open is closed by its last free variable
    for t, rest in enumerate(mask & open_ for mask in masks):
        if rest:
            closes.setdefault(rest.bit_length() - 1, []).append(t)
    solutions = []

    def search(at):
        if at == len(free):
            solutions.append(Splitting._trusted(n, {variables[x]: m for x, m in enumerate(values) if m}))
            return
        x = free[at]
        targets = feeds[x]
        choices = range(min([bound] + [remaining[t] for t in targets]) + 1)
        for t in closes.get(x, ()):  # the only value that meets t, if in range
            choices = range(max(choices.start, remaining[t]), min(choices.stop, remaining[t] + 1))
        for m in choices:
            values[x] = m
            for t in targets:
                remaining[t] -= m
            search(at + 1)
            for t in targets:
                remaining[t] += m

    search(0)
    return solutions


def occurrence_report(n: int):
    """Scan every L_ij and R_ij for size n against the occurrence claims.

    Checks: (a) no variable repeats within or across the L family; (b) the
    variables missing from all L's are exactly those of S_1; (c) the variables
    missing from all R's are exactly the superdiagonal-of-S_k ones
    (j - i = k - 1); (d) L_ij and R_uv share a variable iff j = u, and then
    exactly s_iv^{j-i+1}.  Returns a list of findings (empty = all claims hold).
    """
    findings = []
    pairs = variable_pairs(n)
    l_exprs = {(i, j): l_expression(i, j, n) for i, j in pairs}
    r_exprs = {(i, j): r_expression(i, j, n) for i, j in pairs}

    seen_l, seen_r = {}, {}
    for side, exprs, seen in (("L", l_exprs, seen_l), ("R", r_exprs, seen_r)):
        for pos, expr in exprs.items():
            for v in expr.summands:
                if v in seen:
                    findings.append(finding(f"{side}-occurrence", v, f"at most once among all {side}",
                                            f"in {side}{seen[v]} and {side}{pos}"))
                seen[v] = pos

    for v in all_split_vars(n):
        in_l, in_r = v in seen_l, v in seen_r
        if in_l == (v.k == 1):
            findings.append(finding("L-absence", v, "absent from all L iff k = 1",
                                    f"k={v.k}, in L: {in_l}"))
        if in_r == (v.j - v.i == v.k - 1):
            findings.append(finding("R-absence", v,
                                    "absent from all R iff on the superdiagonal of S_k",
                                    f"(i,j,k)=({v.i},{v.j},{v.k}), in R: {in_r}"))

    for lp, rp in itertools.product(pairs, pairs):
        common = set(l_exprs[lp].summands) & set(r_exprs[rp].summands)
        predicted = shared_variable(lp, rp, n)
        expected = {predicted} if predicted is not None else set()
        if common != expected:
            findings.append(finding("shared-variable", f"L{lp} vs R{rp}",
                                    ", ".join(sorted(map(str, expected))),
                                    ", ".join(sorted(map(str, common)))))
    return findings
