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
from operator import add

from .arith import check_field, coerce_scalar, gamma_factor, p_ary_digits, sum_carries
from .errors import CostBoundError, HypothesisError, ShapeError, UnirepError, finding
from .hopf import (
    ExponentMatrix,
    Polynomial,
    _digits,
    _index,
    _key,
    variable_pairs,
)
from .linalg import (
    SquareMatrix,
    _bracket,
    _divided,
    _field_rows,
    _identity_rows,
    _is_nilpotent,
    _matmul,
    _packed,
    _series_walk,
    _wrap,
)

__all__ = [
    "Report",
    "ChiTable",
    "Representation",
    "LieLayerData",
    "extract_chi",
    "assemble",
    "tautological_layer",
    "verify_comodule",
    "verify_group_law_pointwise",
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


def _relation_failures(images, p, d):
    """The failed layer relations among images, a list of (l, (i, j), rows of
    the layer-l image of eps_ij), in its order: (l, ij) for each image not
    nilpotent; (l, rs, m, tu, expected, bracket) for each pair whose bracket is
    not zero (l != m) or the image of [eps_rs, eps_tu] (l == m); the same for
    each [eps_ik, eps_kj] with a side absent while eps_ij's image is present."""
    layers = {}
    for l, ij, a in images:
        layers.setdefault(l, {})[ij] = a
        if not _is_nilpotent(a, d, p):
            yield l, ij
    zero = [[0] * d for _ in range(d)]
    for (l, rs, a), (m, tu, b) in itertools.combinations(images, 2):
        expected = zero
        for ij, sign in lie_bracket_pairs(rs, tu) if l == m else ():
            img = layers[l].get(ij, zero)
            expected = img if sign > 0 else [[-x % p if p else -x for x in row] for row in img]
        if expected is zero and _matmul(a, b, p) == _matmul(b, a, p):
            continue  # [a, b] = 0 as expected, tested without forming it
        if (bracket := _bracket(a, b, p)) != expected:
            yield l, rs, m, tu, expected, bracket
    for l, (i, j), a in images:
        for k in range(i + 1, j):
            if (i, k) not in layers[l] or (k, j) not in layers[l]:
                yield l, (i, k), l, (k, j), a, zero


def _field_matrix(mat, p):
    """mat if it is over the field of characteristic p, the first entry
    outside it raising ModulusMismatchError (linalg._field_rows); at p = 0 the
    matrix of its Fractions.  None for the zero matrix."""
    rows = _field_rows(mat, p)
    if any(map(any, rows)):
        return mat if p else _wrap(rows, 0)


class ChiTable:
    """Finite map from exponent matrices to d x d coefficient matrices over
    F_p (Residues mod p) or Q (Fractions; plain ints are read as theirs).
    (n, p, d) must pass check_field.  The matrices are read in insertion
    order and zero ones are dropped."""

    __slots__ = ("n", "p", "d", "support")

    def __init__(self, n, p, d, support):
        check_field(n, p, d)
        self.n = n
        self.p = p
        self.d = d
        clean = {}
        for M, mat in support.items():
            if not (isinstance(M, ExponentMatrix) and isinstance(mat, SquareMatrix)):
                raise ShapeError(f"chi table entry {M!r} must map an ExponentMatrix to a SquareMatrix")
            if M.n != n or mat.size != d:
                raise ShapeError("chi table entry has wrong dimensions")
            if (mat := _field_matrix(mat, p)) is not None:
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
        """The supported (r, (i, j), matrix) with M = r * eps_ij, in key order."""
        singles = [M for M in self.support if len(M.flat) - M.flat.count(0) == 1]
        out = []
        for M in sorted(singles, key=ExponentMatrix.sort_key):
            ((i, j), r), = M.positions()
            out.append((r, (i, j), self.support[M]))
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
    support = {}  # flat key: (its ExponentMatrix, rows)
    for a in range(d):
        for b in range(d):
            f = pm.entries[a][b]
            for k, c in f.terms.items():
                if k not in support:
                    support[k] = _key(f.n, k), [[zero] * d for _ in range(d)]
                support[k][1][a][b] = c
    return ChiTable(n, p, d, {M: SquareMatrix(rows) for M, rows in support.values()})


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
    """Ordered Frobenius layers: maps (i, j) -> d x d image of eps_ij, each
    read into the field as ChiTable reads its matrices, after the same
    check_field.

    Zero images are normalized away inside each layer; a wholly absent pair
    means the zero matrix.
    """

    __slots__ = ("n", "p", "d", "layers")

    def __init__(self, n, p, d, layers):
        check_field(n, p, d)
        self.n = n
        self.p = p
        self.d = d
        norm = []
        for layer in layers:
            clean = {}
            for ij, mat in layer.items():
                if not (isinstance(ij, tuple) and len(ij) == 2 and all(isinstance(x, int) for x in ij)):
                    raise ShapeError(f"layer key {ij!r} is not an (i, j) pair of ints")
                i, j = ij
                if not (1 <= i < j <= n):
                    raise ShapeError(f"basis pair ({i}, {j}) out of range")
                if not isinstance(mat, SquareMatrix):
                    raise ShapeError(f"layer image of {ij} is not a SquareMatrix")
                if mat.size != d:
                    raise ShapeError("layer image has wrong dimension")
                if (mat := _field_matrix(mat, p)) is not None:
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
        """Check the layer invariants (_relation_failures): nilpotent basis
        images, each layer a Lie algebra homomorphism on the basis, and
        cross-layer commutation; layer by layer, then across layers."""
        images = [(l, ij, _field_rows(mat, self.p)) for l, layer in enumerate(self.layers)
                  for ij, mat in sorted(layer.items())]  # row-major, as variable_pairs
        found = []  # (sort key, check, location, expected, actual)
        for l, rs, *pair in _relation_failures(images, self.p, self.d):
            m, tu = pair[:2] or (l, None)
            if tu is None:
                found.append(((False, l, l, 0), "layer-nilpotency", f"layer {l}, eps_{rs[0]}{rs[1]}",
                              "nilpotent image", "not nilpotent"))
            elif l == m:
                found.append(((False, l, l, 1, rs, tu), "layer-homomorphism", f"layer {l}, [{rs}, {tu}]",
                              "bracket-compatible", "bracket mismatch"))
            else:
                found.append(((True, l, m), "cross-layer-commutation", f"layers {l}/{m}, eps_{rs} vs eps_{tu}",
                              "commuting images", "nonzero commutator"))
        report = Report()
        for _, *args in sorted(found, key=lambda f: f[0]):
            report.add(*args)
        return report

    def __eq__(self, other):
        return (
            isinstance(other, LieLayerData)
            and (self.n, self.p, self.d) == (other.n, other.p, other.d)
            and self.layers == other.layers
        )


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
        if data.validate().ok:
            table = {M.flat: _field_rows(m, rep.p) for M, m in rep.chi.support.items()}
            if _walk(data, table)[0] == table:
                return data


def verify_comodule(rep: Representation) -> Report:
    """Check the comodule axioms: empty at once for a table that its own layers
    rebuild (_certificate), else _comodule_findings, at any p."""
    if _certificate(rep) is not None:
        return Report()
    return _comodule_findings(rep)


def _comodule_findings(rep: Representation) -> Report:
    """Check the comodule axioms at any p.  U_n(R) is presented, for every
    commutative ring R, by its root subgroups x_ij(t) = 1 + t E_ij, additivity
    and the Steinberg relations (Steinberg, Lectures on Chevalley Groups, 1967,
    section 6), and a comodule of the additive group is a family of commuting
    X_l with X_l^p = 0 (Jantzen, Representations of Algebraic Groups, I.2 and
    I.7).  So the table is a comodule exactly when (a) chi(0) = Id and the table
    is the walk of its layers X_l = chi(p^l eps_ij), each X_l^p = 0 (nilpotent
    at p = 0); (b) the layers of each root commute; (c) on the root tables, as
    identities in s and t, x_ij(s) x_jl(t) = x_jl(t) x_il(st) x_ij(s) for
    i < j < l and x_ij(s) x_kl(t) = x_kl(t) x_ij(s) for j != k, i != l.  A
    relation is checked where x_il, or x_ij and x_jl (x_kl), are not trivial,
    and every product is charged to the walk's bound (CostBoundError)."""
    report = Report()
    chi = rep.chi
    n, p, d = chi.n, chi.p, chi.d
    unit, one = chi.get(ExponentMatrix.zero(n)), chi.identity_matrix()
    if unit != one:
        report.add("chi-at-zero", "chi(0)", "identity matrix", unit)
        for a, b in itertools.product(range(d), repeat=2):
            if unit.entries[a][b] != one.entries[a][b]:
                report.add("counit", f"entry ({a + 1}, {b + 1})", one.entries[a][b], unit.entries[a][b])
    data = _chi_layers(chi)
    images = sorted((ij, l, _field_rows(x, p)) for l, layer in enumerate(data.layers) for ij, x in layer.items())
    failing = [(l, ij) for ij, l, x in images if not _is_nilpotent(x, p or d, p)]
    for l, (i, j) in failing:
        report.add("root-nilpotency", f"chi(p^{l} eps_{i}{j})", "nilpotent of order <= p" if p else "nilpotent",
                   "not nilpotent")
    if failing:
        return report  # the root tables are not defined
    table = {M.flat: _field_rows(m, p) for M, m in chi.support.items()}
    walked, charge = _walk(data, table)
    for flat in sorted((table.keys() | walked.keys()) - {ExponentMatrix.zero(n).flat}):
        if (rows := table.get(flat)) != walked.get(flat):
            report.add("product", f"chi({_key(n, flat)})", "the product of its root tables",
                       "missing" if rows is None else "mismatch" if flat in walked else "not in the product")
    for ij, group in itertools.groupby(images, key=lambda image: image[0]):
        for (_, l, x), (_, m, y) in itertools.combinations(group, 2):
            charge(2)
            if _matmul(x, y, p) != _matmul(y, x, p):
                report.add("root-commutation", f"chi(p^{l} eps_{ij}) vs chi(p^{m} eps_{ij})",
                           "commuting layers", "nonzero commutator")
    pairs, roots = variable_pairs(n), {}  # (i, j): nonzero (r, chi(r eps_ij)), the walk's keys with one entry
    for flat, rows in walked.items():
        if len(flat) - flat.count(0) == 1:
            at = next(itertools.compress(itertools.count(), flat))
            roots.setdefault(pairs[at], []).append((flat[at], rows))
    relations = {(ij, kl) if ij[1] == kl[0] else tuple(sorted([ij, kl]))  # (first, second): x_first(s) x_second(t)
                 for ij, kl in itertools.permutations(roots, 2) if ij[0] != kl[1]}
    relations.update(((i, k), (k, j)) for i, j in roots for k in range(i + 1, j))
    for first, second in sorted(relations):
        s, t = (roots.get(first, ()), (1, 0)), (roots.get(second, ()), (0, 1))
        triple = first[1] == second[0]  # x_il(st) is the third root
        right = [t, (roots.get((first[0], second[1]), ()), (1, 1)), s] if triple else [t, s]
        if ab := _first_difference([s, t], right, _identity_rows(d, 1), p, charge):
            report.add("steinberg", f"x{first}(s) x{second}(t), coefficient of s^{ab[0]} t^{ab[1]}",
                       "x_ij(s) x_jl(t) = x_jl(t) x_il(st) x_ij(s)" if triple else "x_ij(s) x_kl(t) = x_kl(t) x_ij(s)",
                       "mismatch")
    return report


def _first_difference(left, right, one, p, charge):
    """The first (a, b) at which the coefficients of s^a t^b of two products
    of root tables differ, else None; a factor (options, (u, v)) is a root's
    table at s^u t^v, its options (r, rows) the nonzero ones, r >= 1."""
    sums, zero = {}, [[0] * len(one)] * len(one)  # (a, b): left's rows minus right's
    for factors, sign in ((left, 1), (right, -1)):
        partials = [((0, 0), one)]
        for options, (u, v) in factors:
            partials = _products(partials, options, lambda key, r, u=u, v=v: (key[0] + u * r, key[1] + v * r),
                                 one, p, charge)
        for key, rows in partials:
            sums[key] = [[x + sign * y for x, y in zip(a, b)] for a, b in zip(sums.get(key, zero), rows)]
    return next((key for key in sorted(sums) if any(x % p if p else x for row in sums[key] for x in row)), None)


# U_3(F_5) has 125^2 = 15625 pairs and checks in 0.10 s at d = 3 on a
# 2.1 GHz Xeon, so the bound is some 6 s of work; U_4(F_5) has 5^12 pairs.
# Phi is kept per point only when the group is small enough for this check.
MAX_EXHAUSTIVE_PAIRS = 10**6

# sampled:N times a pair's work (three Phi, Phi(g) Phi(h), gh, the draws): a
# unit took 0.004-0.28 us over ten shapes, so the bound is 0.3-22 s of work.
MAX_SAMPLED_WORK = 8 * 10**7


def verify_group_law_pointwise(rep: Representation, mode="exhaustive", count=None, seed=0) -> Report:
    """Check Phi(g) Phi(h) = Phi(gh) and Phi(1) = Id at group points of U_n(F_p).

    mode 'exhaustive' iterates every ordered pair of group elements; mode
    'sampled' draws ``count`` seeded pairs, 100 when count is None.  Either
    refuses with CostBoundError before evaluating anything past its bound,
    MAX_EXHAUSTIVE_PAIRS or MAX_SAMPLED_WORK.  A point is the flat tuple of
    its entries above the diagonal, and Phi(g) = sum_M g^M chi(M) mod p is one
    product of the monomials' values with the table's rows, packed (linalg._packed).
    """
    report = Report()
    chi = rep.chi
    n, p, d = chi.n, chi.p, chi.d
    stream = _pointwise_pairs(chi, mode, count, seed)
    pairs = variable_pairs(n)
    monomials = [[(k, e) for k, e in enumerate(M.flat) if e] for M in chi.support]
    table = [[x for row in _field_rows(mat, p) for x in row] for mat in chi.support.values()]
    table = table and _packed(table, p)
    index = {ij: k for k, ij in enumerate(pairs)}
    inner = [[(index[i, m], index[m, j]) for m in range(i + 1, j)] for i, j in pairs]

    def phi(point):
        values = [math.prod([pow(point[k], e, p) for k, e in monomial]) % p for monomial in monomials]
        flat = _matmul([values], table, p)[0] if table else [0] * (d * d)
        return [flat[a * d:(a + 1) * d] for a in range(d)]

    if p ** (2 * len(pairs)) <= MAX_EXHAUSTIVE_PAIRS:
        phi = functools.cache(phi)

    def product(g, h):
        """(gh)_ij = g_ij + h_ij + sum_{i<m<j} g_im h_mj, mod p."""
        return tuple((g[k] + h[k] + sum(g[a] * h[b] for a, b in terms)) % p
                     for k, terms in enumerate(inner))

    identity = phi((0,) * len(pairs))
    if identity != _identity_rows(d, 1):
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


# The construct walk counts a node for each partial product it visits and for
# each product it tries, and, before they are formed, one for each product of
# a pair's layers: at most one d x d product each, and one it skips (by the
# identity, or zero by its factors' supports) still counts.  Every supported M
# is a visited node, so the bound caps the support, and with it memory, as well.
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
    subgroup 1 + t E_ij, on which log g = t E_ij.  One step, _products, forms
    both: it extends chi by a pair as it extends chi(r eps_ij) by a layer.  It
    counts its products before it forms them, past MAX_CONSTRUCT_NODES nodes
    refusing with CostBoundError, and forms no product by the identity and
    none whose factors' supports make it zero, but counts each as tried.
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
    support = {_key(n, flat): _wrap(rows, p) for flat, rows in _walk(data)[0].items()}
    return Representation(ChiTable(n, p, d, support))


def _walk(data: LieLayerData, table=()):
    """({flat key: rows of chi(M)} over construct_from_layers' support, the rows
    shared with the walk's operands; the walk's charge, for a caller to charge
    more products to the same bound).  Given the flat keys of a table to
    rebuild, it raises CostBoundError before walking if their nodes pass the bound."""
    n, p, d = data.n, data.p, data.d
    nodes = 0  # in ninths of a d = 3 node

    def charge(count):
        nonlocal nodes
        nodes += count * max(d * d, 9)
        if nodes > 9 * MAX_CONSTRUCT_NODES:
            raise CostBoundError(f"constructing chi takes over {MAX_CONSTRUCT_NODES} nodes")

    one = _identity_rows(d, 1)
    size, pairs = n * (n - 1) // 2, variable_pairs(n)
    steps, depth = [], [-1] * size  # (flat index, nonzero (r, chi(r eps_ij)), r >= 1); each index's step
    for index in _factor_order(n):
        if options := _root_subgroup(data, *pairs[index], one, charge):
            depth[index] = len(steps)
            steps.append((index, options))
    weights = [1 + len(options) for _, options in steps]
    if len(table) * sum(weights) * max(d * d, 9) > 9 * MAX_CONSTRUCT_NODES - nodes:
        # a table the walk rebuilds is its support, and each key is a node at every step after its last pair
        past = list(itertools.accumulate(reversed(weights), initial=0))[::-1]  # past[k]: the weights of steps k on
        saved = nodes
        charge(sum(past[1 + max(itertools.compress(depth, flat), default=-1)] for flat in table))
        nodes = saved
    support = [((0,) * size, one)]
    for index, options in steps:
        def join(key, r, index=index):  # in a list: 27% faster than slicing and joining at n = 60
            key = list(key)
            key[index] = r
            return tuple(key)
        support = _products(support, options, join, one, p, charge)
    return dict(support), charge


@functools.cache
def _factor_order(n):
    """The flat indices of the pairs in g = prod (1 + g_ij E_ij): i = n-1..1, then j = i+1..n."""
    return tuple(_index(n, i, j) for i in range(n - 1, 0, -1) for j in range(i + 1, n + 1))


# d from which the walk packs its options: packed, (3, 16, 37, 2) walks 4x faster and
# (60, 3, 61, 1) 1.4x slower; d = 4..7 gain in process but are not yet measured end to end
_PACKED_FROM = 8


def _products(partials, options, join, one, p, charge):
    """Each partial (key, rows) followed by its nonzero products with the
    options (r, rows), r >= 1, keyed join(key, r).  All len(partials) *
    (1 + len(options)) products are charged first, a partial counting as its
    product by the identity ``one``; none is formed with ``one``, and none
    whose factors' nonzero columns and rows miss each other.  From d =
    _PACKED_FROM on the options are packed (linalg._packed)."""
    charge(len(partials) * (1 + len(options)))
    out, masked = [], None
    for item in partials:
        out.append(item)
        key, partial = item
        if partial is one:
            out.extend((join(key, r), rows) for r, rows in options)
            continue
        masked = masked or [(r, _packed(rows, p) if len(one) >= _PACKED_FROM else rows, _mask(rows))
                            for r, rows in options]
        columns = _mask(zip(*partial))
        for r, rows, mask in masked:
            if columns & mask:
                product = _matmul(partial, rows, p)
                if any(map(any, product)):
                    out.append((join(key, r), product))
    return out


def _mask(rows):
    """The bitmask of the nonzero rows."""
    return sum(1 << k for k, row in enumerate(rows) if any(row))


def _root_subgroup(data: LieLayerData, i, j, one, charge):
    """The nonzero (r, rows of chi(r eps_ij)) for r >= 1: the products
    X_0^{r_0} / r_0! ... X_m^{r_m} / r_m!, left to right, over the digits r_l
    of r.  The powers come from exp_nilpotent's walk, so a nonzero power at
    the cap min(d, p) raises as it does there.  ``one`` and ``charge`` are
    _products'."""
    p = data.p
    out = [(0, one)]
    for l, layer in enumerate(data.layers):
        image = layer.get((i, j))
        if image is None:
            continue
        powers = enumerate(_series_walk(_field_rows(image, p), p or None, p), start=1)
        terms = [(k * p**l, _divided(power, math.factorial(k), p)) for k, power in powers]
        out = _products(out, terms, add, one, p, charge)
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
    if not check:
        return _chi_layers(chi)
    if (certified := _certificate(rep)) is not None:
        return certified
    if not (report := _comodule_findings(rep)).ok:
        raise UnirepError(f"input fails the comodule axioms: {report.findings}")
    if not (report := (data := _chi_layers(chi)).validate()).ok:
        raise UnirepError(f"extracted layers violate the theorem: {report.findings}")
    return data


def _chi_layers(chi: ChiTable) -> LieLayerData:
    """The layers chi(p^l eps_ij) read off the table, with no regime test."""
    layers = []
    for l, ij, mat in _chi_power_items(chi):
        layers.extend({} for _ in range(l + 1 - len(layers)))
        layers[l][ij] = mat
    return LieLayerData(chi.n, chi.p, chi.d, layers)


def _chi_power_items(chi: ChiTable):
    """Supported chi(p^l eps_ij), as (l, (i, j), matrix); at p = 0 the
    single layer is chi(eps_ij)."""
    out = []
    for r, (i, j), mat in chi.single_position_items():
        digits = _digits(r, chi.p)
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
    for l, rs, *pair in _relation_failures(powers, p, d):
        if not pair:
            report.add("chi-nilpotency", f"chi(p^{l} eps_{rs[0]}{rs[1]})", "nilpotent", "not nilpotent")
        else:
            m, tu, expected, bracket = pair
            report.add("chi-bracket", f"[chi(p^{l} eps_{rs}), chi(p^{m} eps_{tu})]",
                       SquareMatrix(expected), SquareMatrix(bracket))
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
    zero = [[0] * d for _ in range(d)]
    one = _identity_rows(d, 1)
    singles = chi.single_position_items()
    chi_at = {(_index(n, i, j), r): _field_rows(mat, p) for r, (i, j), mat in singles}  # chi(r eps_ij)

    def product(factors):
        """Rows of the product of the factors, left to right (``one`` for none).
        The first factor is kept as it is, which is exact: its entries are in [0, p)."""
        out = one
        for f in factors:
            out = f if out is one else _matmul(out, f, p)
        return out

    # at a zero m_ij the factor is chi(0), which is left out only when it is the identity
    walk = _factor_order(n)
    rank = {k: at for at, k in enumerate(walk)}
    unit = _field_rows(chi.get(ExponentMatrix.zero(n)), p)
    skip = unit == one
    for M, mat in chi.items():
        flat = M.flat
        at = sorted(itertools.compress(range(len(flat)), flat), key=rank.__getitem__) if skip else walk
        factors = [chi_at.get((k, flat[k]), zero) if flat[k] else unit for k in at]
        if product(factors) != _field_rows(mat, p):
            report.add("factorization", f"chi({M})",
                       "product of chi(m_ij eps_ij), rows reversed", "mismatch")

    for r, (i, j), _ in singles:
        digits = p_ary_digits(r, p).digits
        index = _index(n, i, j)
        powers = [chi_at.get((index, p**t), zero) for t in range(len(digits))]
        for (ta, fa), (tb, fb) in itertools.combinations(enumerate(powers), 2):
            if _matmul(fa, fb, p) != _matmul(fb, fa, p):
                report.add("gamma-formula", f"chi(p^{ta} eps_{i}{j}) vs chi(p^{tb} eps_{i}{j})",
                           "commuting factors", "nonzero commutator")
        for t, f in enumerate(powers):
            if not _is_nilpotent(f, min(p, d), p):
                report.add("gamma-formula", f"chi(p^{t} eps_{i}{j})",
                           "nilpotent of order <= p", "not nilpotent")
        prod = product(f for f, digit in zip(powers, digits) for _ in range(digit))
        if _divided(prod, gamma_factor(r, p), p) != chi_at[index, r]:
            report.add("gamma-formula", f"chi({r} eps_{i}{j})",
                       "Gamma(r)^-1 prod chi(p^t eps_ij)^{r_t}", "mismatch")

    carries = functools.cache(sum_carries)  # decided once per distinct (r, s)
    for (r, ij, _), (s, uv, _) in itertools.product(singles, singles):
        if carries(r, s, p):  # ChiTable keeps no zero matrix in its support
            report.add("carrying", f"chi({r} eps_{ij}) and chi({s} eps_{uv})",
                       "at least one zero when r + s carries mod p", "both nonzero")
    return report


def frobenius_twist_rep(rep: Representation) -> Representation:
    """Raise every variable to its p-th power, chi'(p M) = chi(M); the result
    is again a representation whose layers are the input's shifted up by one."""
    if rep.p == 0:
        raise HypothesisError("the twist needs a positive characteristic")
    chi = rep.chi
    return Representation(ChiTable(chi.n, chi.p, chi.d,
                                   {M.scale(chi.p): mat for M, mat in chi.support.items()}))


def _morphism_rows(T, src: Representation, dst: Representation):
    """T, a SquareMatrix or dst.d rows of src.d entries, read into field rows
    through coerce_scalar: ints mod p, or Fractions at p = 0."""
    if (src.n, src.p) != (dst.n, dst.p):
        raise ShapeError("representations live over different groups or fields")
    rows = T.entries if isinstance(T, SquareMatrix) else [list(r) for r in T]
    if len(rows) != dst.d or any(len(r) != src.d for r in rows):
        raise ShapeError(f"morphism candidate must be {dst.d} x {src.d}")
    return [[coerce_scalar(x, src.p).value if src.p else coerce_scalar(x, 0) for x in r] for r in rows]


def _intertwines(t, src, dst, p):
    """Whether t A = B t for the field rows A, B of src[k], dst[k] (zero rows
    at a missing key) at every key k of the two maps of matrices."""
    zero_src, zero_dst = [[0] * len(t[0])] * len(t[0]), [[0] * len(t)] * len(t)
    for k in src.keys() | dst.keys():
        a = _field_rows(src[k], p) if k in src else zero_src
        b = _field_rows(dst[k], p) if k in dst else zero_dst
        if _matmul(t, a, p) != _matmul(b, t, p):
            return False
    return True


def check_morphism(T, src: Representation, dst: Representation) -> bool:
    """True iff T chi_src(M) = chi_dst(M) T for every M (equivalently
    T (a_ij)_src = (a_ij)_dst T as polynomial matrices)."""
    return _intertwines(_morphism_rows(T, src, dst), src.chi.support, dst.chi.support, src.p)


def layer_morphism_equivalence(T, src: Representation, dst: Representation) -> Report:
    """Compare the direct morphism check against the per-layer intertwining
    criterion; the two must agree.  An endomorphism's src is decomposed once."""
    for rep in (src, dst):
        if _regime(rep.n, rep.p, rep.d) not in ("Q", "layers"):
            raise HypothesisError(f"layer criterion needs p >= max(n, 2d) = "
                                  f"{max(rep.n, 2 * rep.d)}, got p = {rep.p}")
    t = _morphism_rows(T, src, dst)
    full = _intertwines(t, src.chi.support, dst.chi.support, src.p)
    layers = decompose_to_layers(src).layers
    others = layers if dst is src else decompose_to_layers(dst).layers
    per_layer = all(_intertwines(t, a, b, src.p) for a, b in itertools.zip_longest(layers, others, fillvalue={}))
    report = Report(data={"full": full, "per_layer": per_layer, "agree": full == per_layer})
    if full != per_layer:
        report.add("layer-morphism", "full vs per-layer",
                   "the two criteria agree", f"full={full}, per_layer={per_layer}")
    return report
