"""The construct walk against the walk it replaced (tests/oracles.py), which
formed every product: by the identity, and zero by its factors' supports.

The rewritten files must be byte-identical, the node bound must refuse the
same layers at the same MAX_CONSTRUCT_NODES, and the returned matrices must
own their rows although the walk shares rows between keys.  The products of
chi(r eps_ij) are formed by the walk's own step, so they are compared with
the oracle's, and what they charge, on their own as well.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unirep import reps
from unirep.arith import coerce_scalar
from unirep.errors import CostBoundError, UnirepError
from unirep.hopf import variable_pairs
from unirep.io import write_rep_file
from unirep.linalg import SquareMatrix
from unirep.reps import LieLayerData, construct_from_layers
from unirep.samples import random_layer_data

from oracles import reference_construct_from_layers, reference_root_subgroup

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


def least_bound(data, monkeypatch):
    """The least MAX_CONSTRUCT_NODES under which construct_from_layers builds
    data, read off the products its steps charge with the bound lifted."""
    charged = []
    products = reps._products

    def spy(partials, options, *args):
        charged.append(len(partials) * (1 + len(options)))
        return products(partials, options, *args)

    with monkeypatch.context() as m:
        m.setattr(reps, "_products", spy)
        m.setattr(reps, "MAX_CONSTRUCT_NODES", 10**6)  # some 40 times the largest case
        construct_from_layers(data)
    return -(-sum(charged) * max(data.d**2, 9) // 9)


WALKED = [pytest.param(data, id=f"{data.n}-{data.d}-{p}-{len(data.layers)}-{k}")
          for p in PRIMES for k, data in enumerate(dense_cases(p))]
WALKED += [pytest.param(torus_layers(n, count, p, seed), id=f"torus-{n}-{count}-{p}-{seed}")
           for n, count, p in WIDE for seed in range(2)]
WALKED += [pytest.param(data, id=f"bounded-{k}") for k, data in enumerate(BOUNDED)]


@pytest.mark.parametrize("data", WALKED)
def test_least_node_bound_is_the_oracles(data, monkeypatch):
    # refusal is monotone in the bound, so one bound that passes and the one
    # below it, refused, pin the least bound of each
    least = least_bound(data, monkeypatch)
    for bound in (least - 1, least):
        monkeypatch.setattr(reps, "MAX_CONSTRUCT_NODES", bound)
        assert outcome(data).startswith("CostBoundError") == (bound < least), bound
        assert reference_outcome(data).startswith("CostBoundError") == (bound < least), bound


def root_subgroup_outcome(root_subgroup, data, i, j):
    """The options of one pair, or the type and text of what the series
    raises, with every count passed to charge."""
    one = [[int(a == b) for b in range(data.d)] for a in range(data.d)]
    charged = []
    try:
        return root_subgroup(data, i, j, one, charged.append), charged
    except UnirepError as exc:
        return (type(exc).__name__, str(exc)), charged


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_root_subgroup_matches_the_oracle(draw):
    n, d = draw.draw(st.integers(2, 4)), draw.draw(st.integers(1, 6))
    p, layers = draw.draw(st.sampled_from((0, 5, 11, 13, 37))), draw.draw(st.integers(1, 4))
    family = draw.draw(st.sampled_from(("blocks", "shared") if layers > 1 else ("blocks",)))
    seed = next(s for s in itertools.count(draw.draw(st.integers(0, 10**6))) if mode(layers, s) == family)
    data = random_layer_data(n, d, p, layers, seed)
    i, j = draw.draw(st.sampled_from(variable_pairs(n)))
    assert (root_subgroup_outcome(reps._root_subgroup, data, i, j)
            == root_subgroup_outcome(reference_root_subgroup, data, i, j))
