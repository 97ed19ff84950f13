"""The construct walk against the walk it replaced (tests/oracles.py), which
formed every product: by the identity, and zero by its factors' supports.

The rewritten files must be byte-identical, the node bound must refuse the
same layers at the same MAX_CONSTRUCT_NODES, and the returned matrices must
own their rows although the walk shares rows between keys.
"""

import itertools
import random
from fractions import Fraction

import pytest

from unirep import reps
from unirep.arith import coerce_scalar
from unirep.errors import CostBoundError
from unirep.hopf import variable_pairs
from unirep.io import write_rep_file
from unirep.linalg import SquareMatrix
from unirep.reps import LieLayerData, construct_from_layers
from unirep.samples import random_layer_data

from oracles import reference_construct_from_layers

PRIMES = (0, 11, 13, 37)


def mode(layers, seed):
    """The family random_layer_data draws first from its seed: 'blocks' or 'shared'."""
    return random.Random(seed).choice(("blocks", "shared")) if layers > 1 else "blocks"


def dense_cases(p):
    """Seeded random layers over n 2..5 and d 2..6 inside the regime, the
    seeds picked so that every shape with more than one layer is drawn in
    both families."""
    cases = []
    for n, d, layers in itertools.product((2, 3, 4, 5), (2, 3, 4, 5, 6), (1, 2, 3)):
        if (p == 0 and layers > 1) or (p and p < max(n, d)) or n * d > 20:
            continue
        families = ("blocks", "shared") if layers > 1 else ("blocks",)
        seeds = [next(s for s in itertools.count() if mode(layers, s) == m) for m in families]
        cases += [random_layer_data(n, d, p, layers, seed) for seed in seeds]
    return cases


def torus_layers(n, count, p, seed):
    """Layer l sends eps_ij to (t_i / t_j) E_ij in the l-th diagonal n x n
    block: a torus conjugate of the tautological action, one entry an image."""
    rng = random.Random(seed)
    d = n * count
    layers = []
    for l in range(count):
        t = [Fraction(rng.randrange(1, 7)) if p == 0 else rng.randrange(1, p) for _ in range(n)]
        layer = {}
        for i, j in variable_pairs(n):
            rows = [[coerce_scalar(0, p)] * d for _ in range(d)]
            ratio = t[i - 1] / t[j - 1] if p == 0 else t[i - 1] * pow(t[j - 1], -1, p)
            rows[l * n + i - 1][l * n + j - 1] = coerce_scalar(ratio, p)
            layer[(i, j)] = SquareMatrix(rows)
        layers.append(layer)
    return LieLayerData(n, p, d, layers)


WIDE = [(3, 1, 0), (4, 1, 0), (3, 2, 11), (3, 2, 13), (2, 3, 13), (3, 3, 19), (3, 2, 37), (4, 2, 37)]


def outcome(data):
    try:
        return write_rep_file(construct_from_layers(data))
    except CostBoundError as exc:
        return f"CostBoundError: {exc}"


def reference_outcome(data):
    try:
        return write_rep_file(reference_construct_from_layers(data))
    except CostBoundError as exc:
        return f"CostBoundError: {exc}"


@pytest.mark.parametrize("p", PRIMES)
def test_dense_layers_write_the_same_bytes(p):
    for data in dense_cases(p):
        assert outcome(data) == reference_outcome(data), (data.n, data.d, len(data.layers))


@pytest.mark.parametrize("n, count, p", WIDE)
def test_torus_layers_write_the_same_bytes(n, count, p):
    for seed in range(2):
        data = torus_layers(n, count, p, seed)
        assert data.validate().ok
        for body in ("chi", "poly"):
            assert (write_rep_file(construct_from_layers(data), body)
                    == write_rep_file(reference_construct_from_layers(data), body))


def threshold(data, monkeypatch):
    """The least MAX_CONSTRUCT_NODES under which the oracle builds data."""
    lo, hi = 0, 1
    while True:
        monkeypatch.setattr(reps, "MAX_CONSTRUCT_NODES", hi)
        if not reference_outcome(data).startswith("CostBoundError"):
            break
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        monkeypatch.setattr(reps, "MAX_CONSTRUCT_NODES", mid)
        lo, hi = (mid, hi) if reference_outcome(data).startswith("CostBoundError") else (lo, mid)
    return hi


BOUNDED = [random_layer_data(4, 2, 7, 2, seed=1), random_layer_data(3, 3, 11, 3, seed=2),
           random_layer_data(2, 8, 17, 4, seed=0), random_layer_data(4, 3, 0, 1, seed=0),
           torus_layers(3, 2, 13, 0)]


@pytest.mark.parametrize("data", BOUNDED, ids=lambda data: f"{data.n}-{data.d}-{data.p}-{len(data.layers)}")
def test_node_bound_refuses_where_the_oracle_does(data, monkeypatch):
    least = threshold(data, monkeypatch)
    sweep = sorted({1, 2, 3, least // 3, least // 2, least - 2, least - 1, least, least + 1, 2 * least} - {0})
    for bound in sweep:
        monkeypatch.setattr(reps, "MAX_CONSTRUCT_NODES", bound)
        got = outcome(data)
        assert got == reference_outcome(data), bound
        assert got.startswith("CostBoundError") == (bound < least)


@pytest.mark.parametrize("data", [random_layer_data(3, 3, 11, 2, seed=0), random_layer_data(4, 2, 0, 1, seed=1),
                                  torus_layers(3, 2, 13, 0), random_layer_data(1, 2, 5, 1, seed=0)])
def test_matrices_own_their_rows(data):
    rep = construct_from_layers(data)
    rows = [row for mat in rep.chi.support.values() for row in mat.entries]
    assert len({id(row) for row in rows}) == len(rows)
    before = write_rep_file(rep)
    for row in rows:
        row[0] = row[0] + 1
    assert write_rep_file(construct_from_layers(data)) == before
