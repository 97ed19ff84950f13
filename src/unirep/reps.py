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

import contextlib
import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .arith import Residue, coerce_scalar, gamma_factor, p_ary_digits, sum_carries
from .errors import CostBoundError, HypothesisError, ShapeError, UnirepError, finding
from .hopf import (
    ExponentMatrix,
    Polynomial,
    _expansion_size,
    _field_sums,
    _index,
    _key,
    _monomial_coproduct,
    frobenius_substitute,
    variable_pairs,
)
from .linalg import (
    SquareMatrix,
    _bracket,
    _divided,
    _field_rows,
    _is_nilpotent,
    _matmul,
    _series_walk,
    exp_nilpotent,
    log_unipotent,
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
        self.findings.append(finding(check, location, expected, actual))


def lie_bracket_pairs(rs, tu):
    """[eps_rs, eps_tu] as a list of ((i, j), sign); empty when the bracket
    vanishes."""
    (r, s), (t, u) = rs, tu
    if s == t and r != u:
        return [((r, u), 1)]
    if r == u and s != t:
        return [((t, s), -1)]
    return []


def _bracket_image(images, rs, tu, p):
    """Rows of the image of [eps_rs, eps_tu] under a map given by its nonzero
    images (rows by pair), or None when that image is zero."""
    for ij, sign in lie_bracket_pairs(rs, tu):
        img = images.get(ij)
        if img is not None:
            return img if sign > 0 else [[-x % p if p else -x for x in row] for row in img]
    return None


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
    """A chi table; its polynomial matrix is assembled when first read."""

    __slots__ = ("chi", "_poly_matrix")

    def __init__(self, chi: ChiTable):
        self.chi = chi

    @property
    def poly_matrix(self) -> SquareMatrix:
        if not hasattr(self, "_poly_matrix"):
            self._poly_matrix = assemble(self.chi)
        return self._poly_matrix

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
        p, d = self.p, self.d
        layers = [{ij: _field_rows(mat, p) for ij, mat in layer.items()} for layer in self.layers]
        present = [sorted(images) for images in layers]  # row-major, as variable_pairs
        zero = [[0] * d for _ in range(d)]
        for l, images in enumerate(layers):
            for i, j in present[l]:
                if not _is_nilpotent(images[i, j], d, p):
                    report.add("layer-nilpotency", f"layer {l}, eps_{i}{j}",
                               "nilpotent image", "not nilpotent")
            # a pair can fail only if both images, or its bracket's image, are present
            candidates = set(itertools.combinations(present[l], 2))
            candidates.update(((i, k), (k, j)) for i, j in images for k in range(i + 1, j))
            for rs, tu in sorted(candidates):
                a, b = images.get(rs), images.get(tu)
                lhs = zero if a is None or b is None else _bracket(a, b, p)
                rhs = _bracket_image(images, rs, tu, p) or zero
                if lhs != rhs:
                    report.add("layer-homomorphism", f"layer {l}, [{rs}, {tu}]",
                               "bracket-compatible", "bracket mismatch")
        for la, lb in itertools.combinations(range(len(layers)), 2):
            for rs, tu in itertools.product(present[la], present[lb]):
                a, b = layers[la][rs], layers[lb][tu]
                if _matmul(a, b, p) != _matmul(b, a, p):
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


def _regime(n, p, d):
    """'Q' at p = 0; 'layers' for p >= max(n, 2d), where the layers determine a
    representation; 'construct' for p >= max(n, d), where their exponentials end."""
    if p == 0:
        return "Q"
    return "layers" if p >= max(n, 2 * d) else "construct" if p >= max(n, d) else None


def _certificate(rep: Representation):
    """rep's layers if they validate and rebuild rep, else None.  For p >= max(n, 2d),
    or p = 0 with one layer, that is exactly when rep is a comodule: valid layers
    construct one, and by the paper's main theorem a comodule is the construction
    of its layers chi(p^l eps_ij).  Any refusal (a walk past its bound) is None."""
    with contextlib.suppress(UnirepError):
        data = decompose_to_layers(rep, check=False)
        if data.validate().ok and construct_from_layers(data, validate=False).chi == rep.chi:
            return data


def verify_comodule(rep: Representation, use_splitting=False) -> Report:
    """Check the comodule axioms: empty at once for a table that its own layers
    rebuild (_certificate), else, and with use_splitting, _comodule_findings."""
    if not use_splitting and _certificate(rep) is not None:
        return Report()
    return _comodule_findings(rep, use_splitting)


# A term counts as n(n-1) + 8 exponents, its key and its overhead; the check
# builds 1.3-3e7 a second (2.1 GHz Xeon), so the bound is 10-23 s of work; it
# holds one entry at a time, 4.5 bytes an exponent at n = 60 (1.4 GB).
MAX_COMODULE_EXPONENTS = 3 * 10**8


def _comodule_findings(rep: Representation, use_splitting=False) -> Report:
    """Check chi(0) = Id and, on the chi table read through coerce_scalar,
    Delta(a_ij) = sum_k a_ik (x) a_kj and eps(a_ij) = delta_ij: for each (a, b)

        sum_M chi(M)_ab Delta(x^M) = sum_k sum_{M1, M2} chi(M1)_ak chi(M2)_kb x^M1 (x) x^M2

    and chi(0)_ab = delta_ab, one entry at a time, each Delta(x^M) expanded once.

    With use_splitting the coproduct side is additionally recomputed through
    the closed splitting formula and the two computations must agree.  Past
    MAX_COMODULE_EXPONENTS, counted first, it raises CostBoundError.
    """
    report = Report()
    chi = rep.chi
    n, p, d = chi.n, chi.p, chi.d
    cells = [[[] for _ in range(d)] for _ in range(d)]  # (flat key, chi(M)_ab) where nonzero
    terms = 0
    for M, mat in chi.support.items():
        size = _expansion_size(n, p, M.flat)
        for a, row in enumerate(mat.entries):
            for b, c in enumerate(row):
                c = coerce_scalar(c, p)
                if c:
                    cells[a][b].append((M.flat, c.value if p else c))
                    terms += size
        terms += use_splitting and _expansion_size(n, 0, M.flat)  # split_coproduct: once per M
    terms += sum(sum(map(len, col)) * sum(map(len, row)) for col, row in zip(zip(*cells), cells))
    cost = terms * (n * (n - 1) + 8)
    if cost > MAX_COMODULE_EXPONENTS:
        raise CostBoundError(f"the comodule check costs {cost} exponents ({terms} terms), "
                             f"over the bound of {MAX_COMODULE_EXPONENTS}")
    unit = chi.get(ExponentMatrix.zero(n))
    if unit != chi.identity_matrix():
        report.add("chi-at-zero", "chi(0)", "identity matrix", unit)
    image = functools.cache(functools.partial(_monomial_coproduct, n, p))
    via_split = use_splitting and split_coproduct(chi)
    split = Report()  # reported after every entry's own findings
    for a in range(d):
        for b in range(d):
            sums = {}
            get = sums.get
            for flat, c in cells[a][b]:
                for key, w in image(flat):
                    sums[key] = get(key, 0) + w * c
            if via_split and via_split[a][b].terms != dict(_field_sums(sums, p)):
                split.add("split-coproduct", f"entry ({a + 1}, {b + 1})",
                          "splitting formula agrees with direct coproduct", "mismatch")
            for k in range(d):
                right = cells[k][b]
                for f, c in cells[a][k]:
                    for g, e in right:
                        key = f + g
                        sums[key] = get(key, 0) - c * e
            if _field_sums(sums, p):
                report.add("coproduct", f"entry ({a + 1}, {b + 1})",
                           "Delta(a_ij) = sum_k a_ik (x) a_kj", "mismatch")
            delta, counit = coerce_scalar(int(a == b), p), coerce_scalar(unit.entries[a][b], p)
            if counit != delta:
                report.add("counit", f"entry ({a + 1}, {b + 1})", delta, counit)
    report.findings += split.findings
    return report


# U_3(F_5) has 125^2 = 15625 pairs and checks in 0.23-0.36 s at d = 3 on a
# 2.1 GHz Xeon, so the bound is some 20 s of work; U_4(F_5) has 5^12 pairs.
# Phi is kept per point only when the group is small enough for this check.
MAX_EXHAUSTIVE_PAIRS = 10**6

# sampled:N times a pair's work (three Phi, Phi(g) Phi(h), gh, the draws): a
# unit took 0.08-0.23 us over ten shapes, so the bound is 6-19 s of work.
MAX_SAMPLED_WORK = 8 * 10**7


def verify_group_law_pointwise(rep: Representation, mode="exhaustive", count=None, seed=0) -> Report:
    """Check Phi(g) Phi(h) = Phi(gh) and Phi(1) = Id at group points of U_n(F_p).

    mode 'exhaustive' iterates every ordered pair of group elements; mode
    'sampled' draws ``count`` seeded pairs, 100 when count is None.  Either
    refuses with CostBoundError before evaluating anything past its bound,
    MAX_EXHAUSTIVE_PAIRS or MAX_SAMPLED_WORK.  A point is the flat tuple of
    its entries above the diagonal, and Phi(g) = sum_M g^M chi(M) mod p.
    """
    report = Report()
    chi = rep.chi
    n, p, d = chi.n, chi.p, chi.d
    stream = _pointwise_pairs(chi, mode, count, seed)
    pairs = variable_pairs(n)
    plan = ([], [], [])  # the constant keys, the one-variable keys, the rest
    for M, mat in chi.support.items():
        plan[min(len(M.flat) - M.flat.count(0), 2)].append((M.flat, _field_rows(mat, p)))
    cells = [[rows[a][b] for _, rows in itertools.chain(*plan)] for a in range(d) for b in range(d)]
    cells = [cell if any(cell) else None for cell in cells]  # None: zero in every chi(M)
    singles = [next((k, e) for k, e in enumerate(flat) if e) for flat, _ in plan[1]]
    index = {ij: k for k, ij in enumerate(pairs)}
    inner = [[(index[i, m], index[m, j]) for m in range(i + 1, j)] for i, j in pairs]

    def phi(point):
        values = [1] * len(plan[0]) + [pow(point[k], e, p) for k, e in singles]
        values += [math.prod(map(pow, point, M, itertools.repeat(p))) % p for M, _ in plan[2]]
        flat = [0 if cell is None else sum(map(mul, values, cell)) % p for cell in cells]
        return [flat[a * d:(a + 1) * d] for a in range(d)]

    if p ** (2 * len(pairs)) <= MAX_EXHAUSTIVE_PAIRS:
        phi = functools.cache(phi)

    def product(g, h):
        """(gh)_ij = g_ij + h_ij + sum_{i<m<j} g_im h_mj, mod p."""
        return tuple((g[k] + h[k] + sum(g[a] * h[b] for a, b in terms)) % p
                     for k, terms in enumerate(inner))

    identity = phi((0,) * len(pairs))
    if identity != [[int(a == b) for b in range(d)] for a in range(d)]:
        report.add("group-law", "Phi(1)", "identity", tuple(map(tuple, identity)))
    for g, h in stream:
        if _matmul(phi(g), phi(h), p) != phi(product(g, h)):
            report.add("group-law", f"g={dict(zip(pairs, g))}, h={dict(zip(pairs, h))}",
                       "Phi(g)Phi(h) = Phi(gh)", "mismatch")
    return report


def _pointwise_pairs(chi: ChiTable, mode, count=None, seed=0):
    """The pointwise check's pairs (g, h) of flat points, refused before any is made."""
    n, p, d = chi.n, chi.p, chi.d
    if p == 0:
        raise HypothesisError("pointwise verification needs a positive characteristic")
    pairs = variable_pairs(n)
    if mode == "exhaustive":
        if p ** (2 * len(pairs)) > MAX_EXHAUSTIVE_PAIRS:
            raise CostBoundError(f"exhaustive check of U_{n}(F_{p}) needs {p}^{2 * len(pairs)} "
                                 f"pairs, over the bound of {MAX_EXHAUSTIVE_PAIRS}; use sampled:N")
        return itertools.product(itertools.product(range(p), repeat=len(pairs)), repeat=2)
    if mode == "sampled":
        count = 100 if count is None else count
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        weight = len(chi.support) * (len(pairs) + d * d) + d**3 // 4 + n**3 // 6 + 100
        if count * weight > MAX_SAMPLED_WORK:
            raise CostBoundError(f"sampled check of {count} pairs costs {count * weight} "
                                 f"({weight} a pair), over the bound of {MAX_SAMPLED_WORK}")
        rng = random.Random(seed)
        return (  # drawn one pair at a time, as they are checked
            (tuple(rng.randrange(p) for _ in pairs), tuple(rng.randrange(p) for _ in pairs))
            for _ in range(count)
        )
    raise HypothesisError(f"unknown pointwise mode {mode!r}")


def construct_single_layer(layer, n, p, d) -> SquareMatrix:
    """The polynomial matrix e^{phi(log g)} for one layer phi.

    Requires p >= max(n, d) in positive characteristic; the symbolic exponent
    phi(log g) must be nilpotent of index <= min(d, p) as a polynomial matrix,
    which is verified, not assumed.
    """
    if _regime(n, p, d) is None:
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


# The construct walk counts a node for each partial product it visits and for
# each product it tries, and, before they are formed, one for each product of
# a pair's layers: at most one d x d product each.  Every supported M is
# a visited node, so the bound caps the support, and with it memory, as well.
# Random layers of roundtrip --n 40 --d 3 take about 28,000 nodes and 4 s in
# all, --d 4 about 414,000.  Past d = 3 a node weighs d^2 / 9, its product's cost.
MAX_CONSTRUCT_NODES = 2 * 10**5


def construct_from_layers(data: LieLayerData, validate=True) -> Representation:
    """The representation prod_l (e^{phi_l(log g)})^[p^l] of the layers,
    read off in closed form with no logarithm: with the pairs taken in the
    order i = n-1..1, then j = i+1..n,

        chi(M) = prod chi(m_ij eps_ij)   and   chi(r eps_ij) = prod_l X_l^{r_l} / r_l!,

    where X_l is the layer-l image of eps_ij and r_l are the p-ary digits of
    r (X_0^r / r! at p = 0).  The first is the factorization
    g = prod (1 + g_ij E_ij) of U_n, the second the exponential of the root
    subgroup 1 + t E_ij, on which log g = t E_ij.  chi is built by a
    depth-first walk over the pairs, pruned at the first zero partial
    product, and refused with CostBoundError past MAX_CONSTRUCT_NODES nodes.
    """
    n, p, d = data.n, data.p, data.d
    if _regime(n, p, d) is None:
        raise HypothesisError(f"construction needs p >= max(n, d) = {max(n, d)}, got p = {p}")
    if p == 0 and len(data.layers) > 1:
        raise HypothesisError("characteristic zero admits a single layer only")
    if validate:
        report = data.validate()
        if not report.ok:
            raise HypothesisError(f"layer data invariants fail: {report.findings}")
    nodes = 0  # in ninths of a d = 3 node

    def charge(count):
        nonlocal nodes
        nodes += count * max(d * d, 9)
        if nodes > 9 * MAX_CONSTRUCT_NODES:
            raise CostBoundError(f"constructing chi takes over {MAX_CONSTRUCT_NODES} nodes")

    one = [[int(a == b) for b in range(d)] for a in range(d)]
    branches = []  # (flat index of the pair, its nonzero (r, chi(r eps_ij)) with r >= 1)
    for i in range(n - 1, 0, -1):
        for j in range(i + 1, n + 1):
            options = _root_subgroup(data, i, j, one, charge)
            if options:
                branches.append((_index(n, i, j), options))
    size = n * (n - 1) // 2
    support = {}
    stack = [(0, one, None)]  # (depth, partial product, chosen as (index, r, rest))
    while stack:
        k, partial, chosen = stack.pop()
        if k == len(branches):
            flat = [0] * size
            while chosen:
                index, r, chosen = chosen
                flat[index] = r
            support[_key(n, tuple(flat))] = partial
            continue
        index, options = branches[k]
        charge(1 + len(options))
        stack.append((k + 1, partial, chosen))
        for r, rows in options:
            product = _matmul(partial, rows, p)
            if any(map(any, product)):
                stack.append((k + 1, product, (index, r, chosen)))
    scalar = functools.cache(functools.partial(Residue, p=p) if p else Fraction)  # immutable, so shared
    return Representation(ChiTable(n, p, d, {
        M: SquareMatrix([list(map(scalar, row)) for row in rows]) for M, rows in support.items()
    }))


def _root_subgroup(data: LieLayerData, i, j, one, charge):
    """The nonzero (r, rows of chi(r eps_ij)) for r >= 1: the products
    X_0^{r_0} / r_0! ... X_m^{r_m} / r_m!, left to right, over the digits r_l
    of r.  The powers come from exp_nilpotent's walk, so a nonzero power at
    the cap min(d, p) raises as it does there.  ``one`` is the rows of the
    identity; each layer's products are passed to ``charge`` before they are
    formed."""
    p = data.p
    out = [(0, one)]
    for l, layer in enumerate(data.layers):
        image = layer.get((i, j))
        if image is None:
            continue
        terms = [(0, one)]
        kfact = 1
        for k, power in enumerate(_series_walk(_field_rows(image, p), p or None, p), start=1):
            kfact *= k
            terms.append((k * p**l, _divided(power, kfact, p)))
        charge(len(out) * len(terms))
        out = [(r + s, _matmul(a, b, p)) for r, a in out for s, b in terms]
        out = [(r, a) for r, a in out if any(map(any, a))]
    return out[1:]


def decompose_to_layers(rep: Representation, check=True) -> LieLayerData:
    """Layer l maps (i, j) to chi(p^l eps_ij); trailing zero layers are trimmed.

    Requires p >= max(n, 2d) in positive characteristic (characteristic zero
    uses the single layer l = 0).  With ``check`` the comodule axioms and the
    extracted layer invariants are verified, by _certificate when it passes.
    """
    chi = rep.chi
    n, p, d = chi.n, chi.p, chi.d
    if _regime(n, p, d) not in ("Q", "layers"):
        raise HypothesisError(f"decomposition needs p >= max(n, 2d) = {max(n, 2 * d)}, got p = {p}")
    if check and (certified := _certificate(rep)) is not None:
        return certified
    report = _comodule_findings(rep) if check else Report()
    if not report.ok:
        raise UnirepError(f"input fails the comodule axioms: {report.findings}")
    layers = []
    for l, ij, mat in _chi_power_items(chi):
        layers.extend({} for _ in range(l + 1 - len(layers)))
        layers[l][ij] = mat
    data = LieLayerData(n, p, d, layers)
    if check:
        report = data.validate()
        if not report.ok:
            raise UnirepError(f"extracted layers violate the theorem: {report.findings}")
    return data


def _chi_power_items(chi: ChiTable):
    """Supported chi(p^l eps_ij), as (l, (i, j), matrix); at p = 0 the
    single layer is chi(eps_ij)."""
    out = []
    for r, (i, j), mat in chi.single_position_items():
        digits = p_ary_digits(r, chi.p).digits if chi.p else (r,)
        if sum(digits) == 1:
            out.append((digits.index(1), (i, j), mat))
    return out


def verify_chi_relations(rep: Representation) -> Report:
    """Nilpotency of every chi(p^l eps_rs) and the bracket table
    [chi(p^l eps_rs), chi(p^m eps_tu)]: zero for l != m or vanishing Lie
    bracket, chi(p^l [eps_rs, eps_tu]) otherwise, also when a side of
    [chi(p^l eps_ik), chi(p^l eps_kj)] is unsupported and chi(p^l eps_ij) is not."""
    chi = rep.chi
    p, d = chi.p, chi.d
    if p == 0:
        raise HypothesisError("chi relations are a positive-characteristic statement")
    report = Report()
    powers = [(l, ij, _field_rows(mat, p)) for l, ij, mat in _chi_power_items(chi)]
    for l, (i, j), a in powers:
        if not _is_nilpotent(a, d, p):
            report.add("chi-nilpotency", f"chi(p^{l} eps_{i}{j})", "nilpotent", "not nilpotent")
    layers = {}
    for l, ij, a in powers:
        layers.setdefault(l, {})[ij] = a
    zero = [[0] * d for _ in range(d)]
    for (l, rs, a), (m, tu, b) in itertools.combinations(powers, 2):
        bracket = _bracket(a, b, p)
        expected = (_bracket_image(layers[l], rs, tu, p) if l == m else None) or zero
        if bracket != expected:
            report.add("chi-bracket", f"[chi(p^{l} eps_{rs}), chi(p^{m} eps_{tu})]",
                       SquareMatrix(expected), SquareMatrix(bracket))
    for l, (i, j), a in powers:  # brackets with a zero side, which the pairs above miss
        for k in range(i + 1, j):
            if (i, k) not in layers[l] or (k, j) not in layers[l]:
                report.add("chi-bracket", f"[chi(p^{l} eps_{(i, k)}), chi(p^{l} eps_{(k, j)})]",
                           SquareMatrix(a), SquareMatrix(zero))
    return report


def audit_structure_lemmas(rep: Representation) -> Report:
    """Three audits over the support: the reversed-row factorization of
    chi(M), the Gamma(r) product formula for chi(r eps_ij), and the carrying
    obstruction."""
    chi = rep.chi
    n, p, d = chi.n, chi.p, chi.d
    if _regime(1, p, d) != "layers":  # p > 0 and p >= 2d; the audits do not involve n
        raise HypothesisError(f"structure audits need p >= 2d = {2 * d}, got p = {p}")
    report = Report()
    rows = {M: _field_rows(mat, p) for M, mat in chi.support.items()}
    zero = [[0] * d for _ in range(d)]
    one = [[int(a == b) for b in range(d)] for a in range(d)]
    if rows.get(ExponentMatrix.zero(n)) == one:
        rows[ExponentMatrix.zero(n)] = one  # so that products skip chi(0)

    def chi_at(i, j, r):
        return rows.get(ExponentMatrix.epsilon(n, i, j, r), zero)

    def product(factors):
        """Rows of the product of the factors, left to right.  Skipping the
        factors that are ``one`` is exact: every entry is already in [0, p)."""
        out = one
        for f in factors:
            if f is not one:
                out = f if out is one else _matmul(out, f, p)
        return out

    for M, _ in chi.items():
        factors = [chi_at(i, j, M.entry(i, j)) for i in range(n - 1, 0, -1)
                   for j in range(i + 1, n + 1)]
        if product(factors) != rows[M]:
            report.add("factorization", f"chi({M})",
                       "product of chi(m_ij eps_ij), rows reversed", "mismatch")

    for r, (i, j), _ in chi.single_position_items():
        digits = p_ary_digits(r, p).digits
        factors = [chi_at(i, j, p**t) for t in range(len(digits))]
        for (ta, fa), (tb, fb) in itertools.combinations(enumerate(factors), 2):
            if _matmul(fa, fb, p) != _matmul(fb, fa, p):
                report.add("gamma-formula", f"chi(p^{ta} eps_{i}{j}) vs chi(p^{tb} eps_{i}{j})",
                           "commuting factors", "nonzero commutator")
        for t, f in enumerate(factors):
            if not _is_nilpotent(f, min(p, d), p):
                report.add("gamma-formula", f"chi(p^{t} eps_{i}{j})",
                           "nilpotent of order <= p", "not nilpotent")
        inverse = pow(gamma_factor(r, p), -1, p)
        prod = product(f for f, digit in zip(factors, digits) for _ in range(digit))
        if [[x * inverse % p for x in row] for row in prod] != chi_at(i, j, r):
            report.add("gamma-formula", f"chi({r} eps_{i}{j})",
                       "Gamma(r)^-1 prod chi(p^t eps_ij)^{r_t}", "mismatch")

    singles = chi.single_position_items()
    carries = functools.cache(sum_carries)  # decided once per distinct (r, s)
    for (r, ij, _), (s, uv, _) in itertools.product(singles, singles):
        if carries(r, s, p):  # ChiTable keeps no zero matrix in its support
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
        if _regime(rep.n, rep.p, rep.d) not in ("Q", "layers"):
            raise HypothesisError(f"layer criterion needs p >= max(n, 2d) = "
                                  f"{max(rep.n, 2 * rep.d)}, got p = {rep.p}")
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
