"""Coefficient tables, comodule verification, and the Frobenius-layer
correspondence for representations of U_n.

A representation is stored as its coefficient family chi: the polynomial
matrix is (a_ij) = sum_M chi(M) x^M.  Layer l of its decomposition is the
linear map sending the basis element eps_ij of the strictly upper-triangular
Lie algebra to chi(p^l eps_ij); conversely a family of commuting Lie algebra
maps with nilpotent images assembles into the representation

    Phi(g) = e^{phi_0(log g)} (e^{phi_1(log g)})^[p] ... (e^{phi_m(log g)})^[p^m]
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import coerce_scalar, gamma_factor, p_ary_digits, sum_carries
from .errors import CostBoundError, HypothesisError, NotNilpotentError, ShapeError, UnirepError
from .hopf import (
    ExponentMatrix,
    Polynomial,
    coproduct,
    frobenius_substitute,
    matrix_product_tensor_side,
    variable_pairs,
)
from .linalg import (
    SquareMatrix,
    _matmul,
    commutator,
    exp_nilpotent,
    log_unipotent,
    nilpotency_index,
)
from .splittings import split_coproduct

__all__ = [
    "Report",
    "ChiTable",
    "Representation",
    "LieLayerData",
    "extract_chi",
    "assemble",
    "generic_element",
    "tautological_layer",
    "verify_comodule",
    "verify_group_law_pointwise",
    "construct_single_layer",
    "construct_from_layers",
    "decompose_to_layers",
    "verify_chi_relations",
    "audit_structure_lemmas",
    "frobenius_twist_rep",
    "check_morphism",
    "layer_morphism_equivalence",
]


@dataclass
class Report:
    """A list of findings; empty means the checked property holds."""

    findings: list = field(default_factory=list)
    data: dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.findings

    def add(self, check, location, expected, actual):
        self.findings.append(
            {"check": check, "location": str(location),
             "expected": str(expected), "actual": str(actual)}
        )


def lie_bracket_pairs(rs, tu):
    """[eps_rs, eps_tu] as a list of ((i, j), sign); empty when the bracket
    vanishes."""
    (r, s), (t, u) = rs, tu
    if s == t and r != u:
        return [((r, u), 1)]
    if r == u and s != t:
        return [((t, s), -1)]
    return []


class ChiTable:
    """Finite map from exponent matrices to d x d coefficient matrices."""

    __slots__ = ("n", "p", "d", "support")

    def __init__(self, n, p, d, support):
        self.n = n
        self.p = p
        self.d = d
        clean = {}
        for M, mat in support.items():
            if M.n != n or mat.size != d:
                raise ShapeError("chi table entry has wrong dimensions")
            if not mat.is_zero():
                clean[M] = mat
        self.support = clean

    def zero_matrix(self):
        z = coerce_scalar(0, self.p)
        return SquareMatrix([[z] * self.d for _ in range(self.d)])

    def identity_matrix(self):
        one = coerce_scalar(1, self.p)
        return SquareMatrix.identity(self.d, one)

    def get(self, M) -> SquareMatrix:
        return self.support.get(M, self.zero_matrix())

    def items(self):
        return sorted(self.support.items(), key=lambda kv: kv[0].sort_key())

    def single_position_items(self):
        """The supported (r, (i, j), matrix) with M = r * eps_ij."""
        out = []
        for M, mat in self.items():
            pos = list(M.positions())
            if len(pos) == 1:
                (i, j), r = pos[0]
                out.append((r, (i, j), mat))
        return out

    def __eq__(self, other):
        return (
            isinstance(other, ChiTable)
            and (self.n, self.p, self.d) == (other.n, other.p, other.d)
            and self.support == other.support
        )


def assemble(chi: ChiTable) -> SquareMatrix:
    """The polynomial matrix sum_M chi(M) x^M."""
    entries = [
        [
            Polynomial(chi.n, chi.p, {M: mat.entries[a][b] for M, mat in chi.support.items()})
            for b in range(chi.d)
        ]
        for a in range(chi.d)
    ]
    return SquareMatrix(entries)


def extract_chi(pm: SquareMatrix, n=None, p=None) -> ChiTable:
    """Read the coefficient family off a polynomial matrix; assembly round-trips."""
    sample = pm.entries[0][0]
    n = sample.n if n is None else n
    p = sample.p if p is None else p
    d = pm.size
    zero = coerce_scalar(0, p)
    support = {}
    for a in range(d):
        for b in range(d):
            for M, c in pm.entries[a][b].terms.items():
                if M not in support:
                    support[M] = [[zero] * d for _ in range(d)]
                support[M][a][b] = c
    return ChiTable(n, p, d, {M: SquareMatrix(rows) for M, rows in support.items()})


class Representation:
    """A chi table together with its assembled polynomial matrix."""

    __slots__ = ("chi", "poly_matrix")

    def __init__(self, chi: ChiTable):
        self.chi = chi
        self.poly_matrix = assemble(chi)

    @classmethod
    def from_poly_matrix(cls, pm, n=None, p=None):
        return cls(extract_chi(pm, n, p))

    @property
    def n(self):
        return self.chi.n

    @property
    def p(self):
        return self.chi.p

    @property
    def d(self):
        return self.chi.d

    def __eq__(self, other):
        return isinstance(other, Representation) and self.chi == other.chi


class LieLayerData:
    """Ordered Frobenius layers: maps (i, j) -> d x d image of eps_ij.

    Zero images are normalized away inside each layer; a wholly absent pair
    means the zero matrix.
    """

    __slots__ = ("n", "p", "d", "layers")

    def __init__(self, n, p, d, layers):
        self.n = n
        self.p = p
        self.d = d
        norm = []
        for layer in layers:
            clean = {}
            for (i, j), mat in layer.items():
                if not (1 <= i < j <= n):
                    raise ShapeError(f"basis pair ({i}, {j}) out of range")
                if mat.size != d:
                    raise ShapeError("layer image has wrong dimension")
                if not mat.is_zero():
                    clean[(i, j)] = mat
            norm.append(clean)
        self.layers = tuple(norm)

    def image(self, l, i, j) -> SquareMatrix:
        zero = coerce_scalar(0, self.p)
        return self.layers[l].get((i, j), SquareMatrix([[zero] * self.d for _ in range(self.d)]))

    def trimmed(self):
        layers = list(self.layers)
        while layers and not layers[-1]:
            layers.pop()
        return LieLayerData(self.n, self.p, self.d, layers)

    def validate(self) -> Report:
        """Check the layer invariants: each layer a Lie algebra homomorphism on
        the basis, nilpotent basis images, and cross-layer commutation."""
        report = Report()
        pairs = variable_pairs(self.n)
        for l in range(len(self.layers)):
            for i, j in pairs:
                img = self.image(l, i, j)
                try:
                    nilpotency_index(img, self.d)
                except NotNilpotentError:
                    report.add("layer-nilpotency", f"layer {l}, eps_{i}{j}",
                               "nilpotent image", "not nilpotent")
            for rs, tu in itertools.combinations(pairs, 2):
                lhs = commutator(self.image(l, *rs), self.image(l, *tu))
                rhs = self.image(l, *rs).zero_like()
                for (i, j), sign in lie_bracket_pairs(rs, tu):
                    img = self.image(l, i, j)
                    rhs = rhs + (img if sign > 0 else -img)
                if lhs != rhs:
                    report.add("layer-homomorphism", f"layer {l}, [{rs}, {tu}]",
                               "bracket-compatible", "bracket mismatch")
        for la, lb in itertools.combinations(range(len(self.layers)), 2):
            for rs, tu in itertools.product(pairs, pairs):
                if not commutator(self.image(la, *rs), self.image(lb, *tu)).is_zero():
                    report.add("cross-layer-commutation",
                               f"layers {la}/{lb}, eps_{rs} vs eps_{tu}",
                               "commuting images", "nonzero commutator")
        return report

    def __eq__(self, other):
        return (
            isinstance(other, LieLayerData)
            and (self.n, self.p, self.d) == (other.n, other.p, other.d)
            and self.layers == other.layers
        )


def generic_element(n, p) -> SquareMatrix:
    """The generic group element: 1 on the diagonal, the variable x_ij above."""
    entries = [
        [
            Polynomial.one(n, p) if i == j
            else Polynomial.variable(n, p, i + 1, j + 1) if j > i
            else Polynomial.zero(n, p)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return SquareMatrix(entries)


def tautological_layer(n, p):
    """eps_ij -> eps_ij as n x n scalar matrices (requires d = n)."""
    zero = coerce_scalar(0, p)
    one = coerce_scalar(1, p)
    layer = {}
    for i, j in variable_pairs(n):
        rows = [[zero] * n for _ in range(n)]
        rows[i - 1][j - 1] = one
        layer[(i, j)] = SquareMatrix(rows)
    return layer


def verify_comodule(rep: Representation, use_splitting=False) -> Report:
    """Check chi(0) = Id, Delta(a_ij) = sum_k a_ik (x) a_kj, and
    eps(a_ij) = delta_ij, all as exact polynomial identities.

    With use_splitting the coproduct side is additionally recomputed through
    the closed splitting formula and the two computations must agree.
    """
    report = Report()
    chi, pm = rep.chi, rep.poly_matrix
    d = chi.d
    if chi.get(ExponentMatrix.zero(chi.n)) != chi.identity_matrix():
        report.add("chi-at-zero", "chi(0)", "identity matrix", chi.get(ExponentMatrix.zero(chi.n)))
    rhs = matrix_product_tensor_side(pm)
    lhs = [[coproduct(pm.entries[a][b]) for b in range(d)] for a in range(d)]
    for a in range(d):
        for b in range(d):
            if lhs[a][b] != rhs[a][b]:
                report.add("coproduct", f"entry ({a + 1}, {b + 1})",
                           "Delta(a_ij) = sum_k a_ik (x) a_kj", "mismatch")
            delta = coerce_scalar(1 if a == b else 0, chi.p)
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
    return report


def _point_matrix(n, p, point):
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for (i, j), v in point.items():
        rows[i - 1][j - 1] = v % p
    return rows


# U_3(F_5) has 125^2 = 15625 pairs and checks in 0.23-0.36 s at d = 3 on a
# 2.1 GHz Xeon, so the bound is some 20 s of work; U_4(F_5) has 5^12 pairs.
MAX_EXHAUSTIVE_PAIRS = 10**6


def verify_group_law_pointwise(rep: Representation, mode="exhaustive", count=None, seed=0) -> Report:
    """Check Phi(g) Phi(h) = Phi(gh) and Phi(1) = Id at group points of U_n(F_p).

    mode 'exhaustive' iterates every ordered pair of group elements, and
    refuses with CostBoundError before evaluating anything when there are more
    than MAX_EXHAUSTIVE_PAIRS; mode 'sampled' draws ``count`` seeded pairs,
    100 when count is None.
    """
    report = Report()
    chi = rep.chi
    n, p, d = chi.n, chi.p, chi.d
    if p == 0:
        raise HypothesisError("pointwise verification needs a positive characteristic")
    pairs = variable_pairs(n)
    if mode == "exhaustive" and p ** (2 * len(pairs)) > MAX_EXHAUSTIVE_PAIRS:
        raise CostBoundError(
            f"exhaustive check of U_{n}(F_{p}) needs {p}^{2 * len(pairs)} pairs, "
            f"over the bound of {MAX_EXHAUSTIVE_PAIRS}; use sampled:N"
        )

    def phi_at(point):
        return [
            [rep.poly_matrix.entries[a][b].evaluate_mod(point) for b in range(d)]
            for a in range(d)
        ]

    identity_point = {ij: 0 for ij in pairs}
    ident = [[1 if a == b else 0 for b in range(d)] for a in range(d)]
    if phi_at(identity_point) != ident:
        report.add("group-law", "Phi(1)", "identity", tuple(map(tuple, phi_at(identity_point))))

    if mode == "exhaustive":
        all_points = [dict(zip(pairs, vals)) for vals in itertools.product(range(p), repeat=len(pairs))]
        sampled_pairs = None
    elif mode == "sampled":
        rng = random.Random(seed)
        if count is None:
            count = 100
        elif count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        sampled_pairs = [
            (
                {ij: rng.randrange(p) for ij in pairs},
                {ij: rng.randrange(p) for ij in pairs},
            )
            for _ in range(count)
        ]
        all_points = None
    else:
        raise HypothesisError(f"unknown pointwise mode {mode!r}")

    table = {}

    def phi_cached(point):
        key = tuple(point[ij] for ij in pairs)
        if key not in table:
            table[key] = phi_at(point)
        return table[key]

    def check_pair(g_point, h_point):
        g = _point_matrix(n, p, g_point)
        h = _point_matrix(n, p, h_point)
        gh = _matmul(g, h, p)
        gh_point = {(i, j): gh[i - 1][j - 1] for i, j in pairs}
        lhs = _matmul(phi_cached(g_point), phi_cached(h_point), p)
        if lhs != phi_cached(gh_point):
            report.add("group-law", f"g={g_point}, h={h_point}",
                       "Phi(g)Phi(h) = Phi(gh)", "mismatch")

    if all_points is not None:
        for g_point in all_points:
            phi_cached(g_point)
        for g_point, h_point in itertools.product(all_points, repeat=2):
            check_pair(g_point, h_point)
    else:
        for g_point, h_point in sampled_pairs:
            check_pair(g_point, h_point)
    return report


def construct_single_layer(layer, n, p, d) -> SquareMatrix:
    """The polynomial matrix e^{phi(log g)} for one layer phi.

    Requires p >= max(n, d) in positive characteristic; the symbolic exponent
    phi(log g) must be nilpotent of index <= min(d, p) as a polynomial matrix,
    which is verified, not assumed.
    """
    if p and p < max(n, d):
        raise HypothesisError(f"construction needs p >= max(n, d) = {max(n, d)}, got p = {p}")
    g = generic_element(n, p)
    log_g = log_unipotent(g, p or None)
    zero_poly = Polynomial.zero(n, p)
    exponent_rows = [[zero_poly for _ in range(d)] for _ in range(d)]
    for (i, j), img in layer.items():
        f = log_g.entries[i - 1][j - 1]
        if not f:
            continue
        for a in range(d):
            for b in range(d):
                c = img.entries[a][b]
                if c:
                    exponent_rows[a][b] = exponent_rows[a][b] + f * c
    exponent = SquareMatrix(exponent_rows)
    return exp_nilpotent(exponent, p or None)


def construct_from_layers(data: LieLayerData, validate=True) -> Representation:
    """Commuting product of the per-layer constructions, layer l twisted by
    the variable-power substitution p^l."""
    n, p, d = data.n, data.p, data.d
    if p and p < max(n, d):
        raise HypothesisError(f"construction needs p >= max(n, d) = {max(n, d)}, got p = {p}")
    if p == 0 and len(data.layers) > 1:
        raise HypothesisError("characteristic zero admits a single layer only")
    if validate:
        report = data.validate()
        if not report.ok:
            raise HypothesisError(f"layer data invariants fail: {report.findings}")
    one = Polynomial.one(n, p)
    zero = Polynomial.zero(n, p)
    result = SquareMatrix([[one if a == b else zero for b in range(d)] for a in range(d)])
    for l, layer in enumerate(data.layers):
        factor = construct_single_layer(layer, n, p, d)
        if l > 0:
            factor = frobenius_substitute(factor, p**l)
        result = result @ factor
    return Representation.from_poly_matrix(result, n, p)


def decompose_to_layers(rep: Representation, check=True) -> LieLayerData:
    """Layer l maps (i, j) to chi(p^l eps_ij); trailing zero layers are trimmed.

    Requires p >= max(n, 2d) in positive characteristic (characteristic zero
    uses the single layer l = 0).  With ``check`` the comodule axioms and the
    extracted layer invariants are verified.
    """
    chi = rep.chi
    n, p, d = chi.n, chi.p, chi.d
    if p and p < max(n, 2 * d):
        raise HypothesisError(
            f"decomposition needs p >= max(n, 2d) = {max(n, 2 * d)}, got p = {p}"
        )
    if check:
        report = verify_comodule(rep)
        if not report.ok:
            raise UnirepError(f"input fails the comodule axioms: {report.findings}")
    if p == 0:
        max_power = 1
    else:
        max_power = 1
        for M in chi.support:
            pos = list(M.positions())
            if len(pos) == 1:
                _, r = pos[0]
                digits = p_ary_digits(r, p).digits
                max_power = max(max_power, len(digits))
    layers = []
    for l in range(max_power):
        scale = p**l if p else 1
        layer = {}
        for i, j in variable_pairs(n):
            mat = chi.get(ExponentMatrix.epsilon(n, i, j, scale))
            if not mat.is_zero():
                layer[(i, j)] = mat
        layers.append(layer)
    data = LieLayerData(n, p, d, layers).trimmed()
    if check:
        report = data.validate()
        if not report.ok:
            raise UnirepError(f"extracted layers violate the theorem: {report.findings}")
    return data


def _chi_power_items(chi: ChiTable):
    """Supported chi(p^l eps_ij), as (l, (i, j), matrix)."""
    out = []
    for r, (i, j), mat in chi.single_position_items():
        digits = p_ary_digits(r, chi.p).digits
        if sum(digits) == 1:
            out.append((digits.index(1), (i, j), mat))
    return out


def verify_chi_relations(rep: Representation) -> Report:
    """Nilpotency of every chi(p^l eps_rs) and the bracket table
    [chi(p^l eps_rs), chi(p^m eps_tu)]: zero for l != m or vanishing Lie
    bracket, chi(p^l [eps_rs, eps_tu]) otherwise."""
    chi = rep.chi
    if chi.p == 0:
        raise HypothesisError("chi relations are a positive-characteristic statement")
    report = Report()
    powers = _chi_power_items(chi)
    for l, (i, j), mat in powers:
        try:
            nilpotency_index(mat, chi.d)
        except NotNilpotentError:
            report.add("chi-nilpotency", f"chi(p^{l} eps_{i}{j})", "nilpotent", "not nilpotent")
    for (l, rs, a), (m, tu, b) in itertools.combinations(powers, 2):
        bracket = commutator(a, b)
        expected = chi.zero_matrix()
        if l == m:
            for (i, j), sign in lie_bracket_pairs(rs, tu):
                img = chi.get(ExponentMatrix.epsilon(chi.n, i, j, chi.p**l))
                expected = expected + (img if sign > 0 else -img)
        if bracket != expected:
            report.add("chi-bracket", f"[chi(p^{l} eps_{rs}), chi(p^{m} eps_{tu})]",
                       expected, bracket)
    return report


def audit_structure_lemmas(rep: Representation) -> Report:
    """Three audits over the support: the reversed-row factorization of
    chi(M), the Gamma(r) product formula for chi(r eps_ij), and the carrying
    obstruction."""
    chi = rep.chi
    n, p, d = chi.n, chi.p, chi.d
    if p == 0 or p < 2 * d:
        raise HypothesisError(f"structure audits need p >= 2d = {2 * d}, got p = {p}")
    report = Report()

    for M, mat in chi.items():
        prod = chi.identity_matrix()
        for i in range(n - 1, 0, -1):
            for j in range(i + 1, n + 1):
                prod = prod @ chi.get(ExponentMatrix.epsilon(n, i, j, M.entry(i, j)))
        if prod != mat:
            report.add("factorization", f"chi({M})",
                       "product of chi(m_ij eps_ij), rows reversed", "mismatch")

    for r, (i, j), mat in chi.single_position_items():
        digits = p_ary_digits(r, p).digits
        factors = [chi.get(ExponentMatrix.epsilon(n, i, j, p**t)) for t in range(len(digits))]
        for (ta, fa), (tb, fb) in itertools.combinations(enumerate(factors), 2):
            if not commutator(fa, fb).is_zero():
                report.add("gamma-formula", f"chi(p^{ta} eps_{i}{j}) vs chi(p^{tb} eps_{i}{j})",
                           "commuting factors", "nonzero commutator")
        for t, f in enumerate(factors):
            try:
                nilpotency_index(f, min(p, d))
            except NotNilpotentError:
                report.add("gamma-formula", f"chi(p^{t} eps_{i}{j})",
                           "nilpotent of order <= p", "not nilpotent")
        prod = chi.identity_matrix()
        for t, digit in enumerate(digits):
            for _ in range(digit):
                prod = prod @ factors[t]
        expected = prod.scale(coerce_scalar(Fraction(1, gamma_factor(r, p)), p))
        if expected != mat:
            report.add("gamma-formula", f"chi({r} eps_{i}{j})",
                       "Gamma(r)^-1 prod chi(p^t eps_ij)^{r_t}", "mismatch")

    singles = chi.single_position_items()
    for (r, ij, mat_r), (s, uv, mat_s) in itertools.product(singles, singles):
        if sum_carries(r, s, p) and not (mat_r.is_zero() or mat_s.is_zero()):
            report.add("carrying", f"chi({r} eps_{ij}) and chi({s} eps_{uv})",
                       "at least one zero when r + s carries mod p", "both nonzero")
    return report


def frobenius_twist_rep(rep: Representation) -> Representation:
    """Raise every variable to its p-th power; the result is again a
    representation whose layers are the input's shifted up by one."""
    if rep.p == 0:
        raise HypothesisError("the twist needs a positive characteristic")
    return Representation.from_poly_matrix(frobenius_substitute(rep.poly_matrix, rep.p))


def _as_rows(T):
    return T.entries if isinstance(T, SquareMatrix) else [list(r) for r in T]


def check_morphism(T, src: Representation, dst: Representation) -> bool:
    """True iff T chi_src(M) = chi_dst(M) T for every M (equivalently
    T (a_ij)_src = (a_ij)_dst T as polynomial matrices)."""
    if (src.n, src.p) != (dst.n, dst.p):
        raise ShapeError("representations live over different groups or fields")
    rows = _as_rows(T)
    if len(rows) != dst.d or any(len(r) != src.d for r in rows):
        raise ShapeError(f"morphism candidate must be {dst.d} x {src.d}")
    for M in sorted(set(src.chi.support) | set(dst.chi.support), key=ExponentMatrix.sort_key):
        lhs = _matmul(rows, src.chi.get(M).entries)
        rhs = _matmul(dst.chi.get(M).entries, rows)
        if lhs != rhs:
            return False
    return True


def layer_morphism_equivalence(T, src: Representation, dst: Representation) -> Report:
    """Compare the direct morphism check against the per-layer intertwining
    criterion; the two must agree."""
    for rep in (src, dst):
        if rep.p and rep.p < max(rep.n, 2 * rep.d):
            raise HypothesisError(
                f"layer criterion needs p >= max(n, 2d) = {max(rep.n, 2 * rep.d)}, got p = {rep.p}"
            )
    rows = _as_rows(T)
    full = check_morphism(T, src, dst)
    src_layers = decompose_to_layers(src)
    dst_layers = decompose_to_layers(dst)
    count = max(len(src_layers.layers), len(dst_layers.layers))
    per_layer = True
    for l in range(count):
        for i, j in variable_pairs(src.n):
            a = src_layers.image(l, i, j) if l < len(src_layers.layers) else src.chi.zero_matrix()
            b = dst_layers.image(l, i, j) if l < len(dst_layers.layers) else dst.chi.zero_matrix()
            if _matmul(rows, a.entries) != _matmul(b.entries, rows):
                per_layer = False
    report = Report(data={"full": full, "per_layer": per_layer, "agree": full == per_layer})
    if full != per_layer:
        report.add("layer-morphism", "full vs per-layer",
                   "the two criteria agree", f"full={full}, per_layer={per_layer}")
    return report
