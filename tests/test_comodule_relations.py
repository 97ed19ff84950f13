"""The relation check (reps._comodule_findings) against the symbolic check it
replaced (tests/oracles.py), at every p.

The corpus holds the walk's tables of random layers in the paper's regime
p >= max(n, 2d), in the construct band max(n, d) <= p < 2d and below
max(n, d), where the walk's table need not be a comodule; each is taken as it
is and with one entry changed, one key deleted and one key added.  Random
tables from random_chi_support, with chi(0) = Id and without, join them.  On
each the relation check gives the oracle's verdict and its chi-at-zero and
counit findings.
"""

import itertools
import random

import pytest

from unirep import reps
from unirep.hopf import ExponentMatrix, _key
from unirep.linalg import _wrap
from unirep.reps import ChiTable, Representation, verify_comodule
from unirep.samples import random_chi_support, random_layer_data

from oracles import comodule_verdict, reference_comodule_findings
from test_certificate import entry_changed, key_added, key_deleted

# (n, d, p, layers) by where p falls
REGIME = [(3, 2, 5, 2), (3, 3, 7, 2), (4, 3, 11, 2), (3, 3, 13, 3), (2, 2, 5, 3)]
BAND = [(2, 2, 2, 2), (3, 3, 3, 2), (3, 2, 3, 1), (4, 4, 5, 2), (4, 4, 7, 2), (3, 6, 11, 2), (3, 4, 7, 2)]
BELOW = [(3, 2, 2, 2), (2, 3, 2, 2), (2, 4, 3, 2), (3, 4, 3, 1), (3, 6, 5, 1), (4, 2, 3, 2)]
OVER_Q = [(3, 2, 0, 1), (4, 3, 0, 1), (2, 3, 0, 1)]
SEEDS = range(3)


def walked(data):
    """The walk's table of the layers, whatever the regime."""
    n, p, d = data.n, data.p, data.d
    return Representation(ChiTable(n, p, d, {_key(n, flat): _wrap(rows, p)
                                             for flat, rows in reps._walk(data)[0].items()}))


def corpus():
    out = []
    for kind, shapes in [("regime", REGIME), ("band", BAND), ("below", BELOW), ("over-q", OVER_Q)]:
        for (n, d, p, layers), seed in itertools.product(shapes, SEEDS):
            rep = walked(random_layer_data(n, d, p, layers, seed).trimmed())
            rng = random.Random(seed)
            name = f"{kind} {n}-{d}-{p}-{layers}-{seed}"
            out.append((f"{name} walked", rep))
            for corrupt in (entry_changed, key_deleted, key_added):
                out.append((f"{name} {corrupt.__name__}", corrupt(rep, rng)))
    for (n, d, p), seed in itertools.product([(3, 2, 2), (3, 2, 7), (4, 2, 5), (3, 3, 0)], range(4)):
        support = random_chi_support(n, d, p, 4, seed, max_entry=2)
        if seed % 2:
            support[ExponentMatrix.zero(n)] = ChiTable(n, p, d, {}).identity_matrix()
        out.append((f"random {n}-{d}-{p}-{seed}", Representation(ChiTable(n, p, d, support))))
    return out


CORPUS = corpus()


def test_corpus_covers_each_kind_and_prime():
    names = [name for name, _ in CORPUS]
    for kind in ("regime", "band", "below", "over-q"):
        assert sum(name.startswith(kind) and name.endswith("walked") for name in names) >= 6, kind
    assert {rep.p for _, rep in CORPUS} == {0, 2, 3, 5, 7, 11, 13}
    # no theorem makes a walked table below max(n, d) a comodule, but each one
    # drawn here is, so its corruptions test the check there as well
    assert all(reference_comodule_findings(rep).ok for name, rep in CORPUS
               if name.startswith("below") and name.endswith("walked"))


@pytest.mark.parametrize("name, rep", CORPUS, ids=[name for name, _ in CORPUS])
def test_verdict_matches_the_symbolic_oracle(name, rep):
    got = verify_comodule(rep).findings
    assert comodule_verdict(got) == comodule_verdict(reference_comodule_findings(rep).findings)
    if name.startswith(("regime", "band", "over-q")) and name.endswith("walked"):
        assert got == []  # a construction in p >= max(n, d), or over Q, is a comodule


def test_empty_table():
    # no keys: chi(0) is zero and each diagonal counit fails; nothing else is read
    for p in (0, 7):
        rep = Representation(ChiTable(3, p, 3, {}))
        findings = reps._comodule_findings(rep).findings
        assert findings == reference_comodule_findings(rep).findings
        assert [f["check"] for f in findings] == ["chi-at-zero", "counit", "counit", "counit"]


def test_the_largest_field():
    p = 2**31 - 1
    rep = walked(random_layer_data(4, 3, p, 2, seed=0).trimmed())
    assert len(rep.chi.support) > 1
    assert verify_comodule(rep).ok and reps._comodule_findings(rep).ok
    bad = entry_changed(rep, random.Random(0))
    assert not reps._comodule_findings(bad).ok and not reference_comodule_findings(bad).ok
