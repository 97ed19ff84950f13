"""The comodule certificate (a table rebuilt from its own layers) against the
symbolic check it shortcuts.

The corpus holds seeded valid tables, tables with one entry changed, one key
deleted or one key added, tables whose chi(p eps_ij) no longer commutes with
layer 0, Fraction tables at p = 0, and a valid table whose rebuild the walk
bound refuses.  On each, verify_comodule and decompose_to_layers must give
what the symbolic path gives, and the command line must print the same
bytes and exit with the same code with the certificate and without it.  The
certificate compares the walk's rows with the table's; the one it replaced,
which compared a rebuilt Representation (tests/oracles.py), must give the
same verdict on the corpus, on plain-int tables at p = 0 and wherever the
walk bound refuses.  Tables with entries outside the field are refused when
they are built.
"""

import contextlib
import io
import itertools
import random
import sys

import pytest

from unirep import cli, reps
from unirep.arith import Residue
from unirep.errors import ModulusMismatchError, UnirepError
from unirep.hopf import ExponentMatrix, variable_pairs
from unirep.io import write_rep_file
from unirep.linalg import SquareMatrix, scalar_matrix
from unirep.reps import ChiTable, Representation, construct_from_layers, decompose_to_layers, verify_comodule
from unirep.samples import random_layer_data

from oracles import reference_certificate

# (n, d, p, layers), each drawn with every seed; each valid table seeds the corrupted ones
SHAPES = [(3, 2, 7, 2), (3, 3, 11, 1), (4, 2, 11, 2), (4, 3, 13, 1), (3, 2, 13, 3),
          (2, 3, 7, 2), (3, 3, 11, 2), (3, 3, 0, 1), (4, 2, 0, 1)]
SEEDS = (0, 1, 2)


def table(rep, support):
    return Representation(ChiTable(rep.n, rep.p, rep.d, support))


def is_layer_key(M, p):
    """M = p^l eps_ij (eps_ij at p = 0): a change there may give another valid
    table, so the corruptions below leave these keys alone."""
    entries = [e for e in M.flat if e]
    return len(entries) == 1 and entries[0] in ({1} if p == 0 else {p**l for l in range(8)})


def entry_changed(rep, rng):
    M = rng.choice([M for M in sorted(rep.chi.support, key=ExponentMatrix.sort_key)
                    if not is_layer_key(M, rep.p)])
    rows = [list(row) for row in rep.chi.support[M].entries]
    a, b = rng.randrange(rep.d), rng.randrange(rep.d)
    rows[a][b] += 1
    return table(rep, {**rep.chi.support, M: SquareMatrix(rows)})


def key_deleted(rep, rng):
    keys = [M for M in sorted(rep.chi.support, key=ExponentMatrix.sort_key) if not is_layer_key(M, rep.p)]
    M = rng.choice(keys[1:] or keys)
    return table(rep, {K: v for K, v in rep.chi.support.items() if K != M})


def key_added(rep, rng):
    n, d = rep.n, rep.d
    while True:
        M = ExponentMatrix(n, [[rng.randrange(3 if n > 2 else 6) if j > i else 0 for j in range(n)] for i in range(n)])
        if M not in rep.chi.support and any(M.flat) and not is_layer_key(M, rep.p):
            rows = [[0] * d for _ in range(d)]
            rows[rng.randrange(d)][rng.randrange(d)] = 1
            return table(rep, {**rep.chi.support, M: scalar_matrix(rows, rep.p)})


def cross_layer_changed(rep, rng):
    """One chi(p^l eps_ij) moved by, or replaced with, one elementary matrix so
    that it stays nilpotent but no longer commutes with an image of another
    layer, the layer above the top one included."""
    n, p, d = rep.n, rep.p, rep.d
    layers = decompose_to_layers(rep, check=False).layers
    spots = [(a, b) for a in range(d) for b in range(d) if a != b]
    images = [(l, ij) for l in range(len(layers) + 1) for ij in variable_pairs(n)]
    for l, ij in rng.sample(images, len(images)):
        others = [Y for m, layer in enumerate(layers) if m != l for Y in layer.values()]
        M = ExponentMatrix.epsilon(n, *ij, p**l)
        for (a, b), keep in itertools.product(rng.sample(spots, len(spots)), (1, 0)):
            rows = [[x * keep for x in row] for row in rep.chi.get(M).entries]
            rows[a][b] += 1
            X = power = SquareMatrix(rows)
            for _ in range(d - 1):
                power = power @ X
            if power.is_zero() and any(X @ Y != Y @ X for Y in others):
                return table(rep, {**rep.chi.support, M: X})
    raise AssertionError(f"no change breaks the commutation of {rep.chi}")


def corpus():
    out = []
    for (n, d, p, layers), seed in itertools.product(SHAPES, SEEDS):
        rep = construct_from_layers(random_layer_data(n, d, p, layers, seed))
        rng = random.Random(seed)
        name = f"{n}-{d}-{p}-{layers}-{seed}"
        out.append((f"{name} valid", rep))
        out.append((f"{name} entry", entry_changed(rep, rng)))
        out.append((f"{name} deleted", key_deleted(rep, rng)))
        out.append((f"{name} added", key_added(rep, rng)))
        if p:
            out.append((f"{name} cross-layer", cross_layer_changed(rep, rng)))
    return out


CORPUS = corpus()


def outcome(call, *args):
    """What a call returns, or the type and text of what it raises."""
    try:
        return "returns", call(*args)
    except UnirepError as exc:
        return type(exc).__name__, str(exc)


def symbolic_decompose(rep):
    """decompose_to_layers(check=True) before the certificate."""
    report = reps._comodule_findings(rep)
    if not report.ok:
        raise UnirepError(f"input fails the comodule axioms: {report.findings}")
    data = decompose_to_layers(rep, check=False)
    report = data.validate()
    if not report.ok:
        raise UnirepError(f"extracted layers violate the theorem: {report.findings}")
    return data


def test_corpus_covers_each_kind():
    kinds = [name.split()[-1] for name, _ in CORPUS]
    tables = len(SHAPES) * len(SEEDS)
    assert {k: kinds.count(k) for k in set(kinds)} == {
        "valid": tables, "entry": tables, "deleted": tables, "added": tables, "cross-layer": 7 * len(SEEDS)}
    certified = [name for name, rep in CORPUS if reps._certificate(rep) is not None]
    assert certified == [name for name, _ in CORPUS if name.endswith("valid")]


@pytest.mark.parametrize("name, rep", CORPUS, ids=[name for name, _ in CORPUS])
def test_library_matches_the_symbolic_path(name, rep):
    got = outcome(lambda r: verify_comodule(r).findings, rep)
    assert got == outcome(lambda r: reps._comodule_findings(r).findings, rep)
    assert (got == ("returns", [])) == name.endswith("valid")
    assert outcome(decompose_to_layers, rep) == outcome(symbolic_decompose, rep)


def test_refused_walk_is_not_a_certificate(monkeypatch):
    rep = construct_from_layers(random_layer_data(3, 2, 7, 2, seed=0))
    assert reps._certificate(rep) is not None
    monkeypatch.setattr(reps, "MAX_CONSTRUCT_NODES", 3)
    assert reps._certificate(rep) is None
    assert verify_comodule(rep).findings == []
    assert decompose_to_layers(rep) == symbolic_decompose(rep)


def test_valid_tables_take_no_other_check(tmp_path, monkeypatch):
    def unused(*args, **kwargs):
        raise AssertionError("a check ran on a certified table")

    rep = construct_from_layers(random_layer_data(4, 3, 13, 1, seed=3))
    path = tmp_path / "rep.txt"
    path.write_text(write_rep_file(rep))
    for module, name in [(reps, "_comodule_findings"), (cli, "_comodule_findings"),
                         (cli, "verify_group_law_pointwise"), (cli, "verify_chi_relations"),
                         (cli, "audit_structure_lemmas")]:
        monkeypatch.setattr(module, name, unused)
    assert verify_comodule(rep).ok
    for argv in FLAG_SETS:
        out, err, code = run_cli([argv[0], str(path), *argv[1:]])
        assert code == 0 and (out == "" or argv == ["decompose"]), argv


def test_entries_outside_the_field_are_not_certified():
    # plain ints are refused at p = 7, where the symbolic check once read them
    # mod 7 and the certificate did not; at p = 0 they are read as their
    # Fractions, and that table is certified as its residues mod 7 are
    rows = {ExponentMatrix.zero(2): [[1, 0], [0, 1]], ExponentMatrix.epsilon(2, 1, 2): [[0, 1], [0, 0]]}
    with pytest.raises(ModulusMismatchError, match=r"^entry 1 is not in the field of characteristic 7$"):
        ChiTable(2, 7, 2, {M: SquareMatrix(r) for M, r in rows.items()})
    for p, read in [(7, lambda r: scalar_matrix(r, 7)), (0, SquareMatrix)]:
        rep = Representation(ChiTable(2, p, 2, {M: read(r) for M, r in rows.items()}))
        assert reps._certificate(rep) is not None
        assert verify_comodule(rep).findings == reps._comodule_findings(rep).findings == []


def entries_replaced(rep, keys, read):
    """rep with every entry of the given keys passed through ``read``; where
    the constructor refuses that, its message and the message that names the
    first entry read, the top left one of the first such key."""
    support = {M: SquareMatrix([[read(a) for a in row] for row in m.entries]) if M in keys else m
               for M, m in rep.chi.support.items()}
    try:
        return table(rep, support)
    except ModulusMismatchError as exc:
        first = read(next(m for M, m in rep.chi.support.items() if M in keys).entries[0][0])
        return str(exc), f"entry {first!r} is not in the field of characteristic {rep.p}"


def outside_the_field():
    """Tables with entries that the field reader does not take as they are: a
    Residue mod another prime and plain ints at p > 0, which the constructor
    refuses, and plain ints at p = 0, which it reads as their Fractions; on
    chi(0), on a layer key or everywhere."""
    out = []
    for n, d, p, layers, seed in [(3, 3, 11, 2, 0), (4, 3, 13, 1, 1), (4, 3, 0, 1, 0), (5, 3, 0, 1, 2)]:
        rep = construct_from_layers(random_layer_data(n, d, p, layers, seed))
        zero = ExponentMatrix.zero(n)
        layer_key = next(M for M in sorted(rep.chi.support, key=ExponentMatrix.sort_key) if is_layer_key(M, p))
        other = next(M for M in sorted(rep.chi.support, key=ExponentMatrix.sort_key)
                     if M != zero and not is_layer_key(M, p))
        name = f"{n}-{d}-{p}-{layers}"
        if p:
            for key_name, key in [("chi(0)", zero), ("layer", layer_key), ("other", other)]:
                out.append((f"{name} mod 101 on {key_name}", entries_replaced(rep, {key}, lambda a: Residue(a.value, 101))))
                out.append((f"{name} ints on {key_name}", entries_replaced(rep, {key}, lambda a: a.value)))
        else:
            for key_name, keys in [("chi(0)", {zero}), ("other", {other}), ("layer", {layer_key}),
                                   ("every key", set(rep.chi.support))]:
                out.append((f"{name} ints on {key_name}", entries_replaced(rep, keys, int)))
    return out


OUTSIDE = outside_the_field()


@pytest.mark.parametrize("name, rep", CORPUS + OUTSIDE, ids=[name for name, _ in CORPUS + OUTSIDE])
def test_certificate_matches_the_rebuilt_representation(name, rep):
    if isinstance(rep, tuple):  # refused when built, naming the first entry outside the field
        got, want = rep
        assert got == want
    else:
        assert reps._certificate(rep) == reference_certificate(rep)


def test_entries_outside_the_field_have_both_verdicts():
    # refused at p > 0; at p = 0 the ints equal their Fractions, so each table
    # is the valid one it was made from, and certified
    over_q = {"4-3-0-1": (4, 3, 0, 1, 0), "5-3-0-1": (5, 3, 0, 1, 2)}
    for name, rep in OUTSIDE:
        shape = over_q.get(name.split()[0])
        if shape is None:
            assert isinstance(rep, tuple)
        else:
            assert rep == construct_from_layers(random_layer_data(*shape))
            assert reps._certificate(rep) is not None


def least_bound(rep, monkeypatch):
    """The least MAX_CONSTRUCT_NODES under which the replaced certificate passes."""
    lo, hi = 0, reps.MAX_CONSTRUCT_NODES
    while hi - lo > 1:
        mid = (lo + hi) // 2
        monkeypatch.setattr(reps, "MAX_CONSTRUCT_NODES", mid)
        lo, hi = (lo, mid) if reference_certificate(rep) is not None else (mid, hi)
    return hi


@pytest.mark.parametrize("shape", [(3, 2, 7, 2, 0), (4, 3, 13, 1, 3), (3, 3, 11, 2, 1), (4, 2, 0, 1, 2)])
def test_walk_bound_refuses_where_it_did(shape, monkeypatch):
    n, d, p, layers, seed = shape
    rep = construct_from_layers(random_layer_data(n, d, p, layers, seed))
    least = least_bound(rep, monkeypatch)
    for bound in sorted({1, least // 2, least - 2, least - 1, least, least + 1} - {0}):
        monkeypatch.setattr(reps, "MAX_CONSTRUCT_NODES", bound)
        assert reps._certificate(rep) == reference_certificate(rep), bound
        assert (reps._certificate(rep) is None) == (bound < least)


def test_refused_certificate_forms_no_walk_product(monkeypatch):
    # the nodes the keys count are the walk's own, so just under its bound the
    # walk is refused before it forms a product; a product is formed by the
    # shared step, _products, and it is the walk's when _walk called that step
    rep = construct_from_layers(random_layer_data(4, 3, 13, 1, seed=3))
    walked = []

    def spy(a, b, p=None):
        walked.append(sys._getframe(2).f_code.co_name == "_walk")
        return matmul(a, b, p)

    matmul = reps._matmul
    monkeypatch.setattr(reps, "_matmul", spy)
    least = least_bound(rep, monkeypatch)
    monkeypatch.setattr(reps, "MAX_CONSTRUCT_NODES", least)
    walked.clear()
    assert reps._certificate(rep) is not None and any(walked)
    monkeypatch.setattr(reps, "MAX_CONSTRUCT_NODES", least - 1)
    walked.clear()
    assert reps._certificate(rep) is None and not any(walked)


FLAG_SETS = [
    ["verify"],
    ["verify", "--comodule"],
    ["verify", "--pointwise", "sampled:20"],
    ["verify", "--chi-relations"],
    ["verify", "--lemmas"],
    ["verify", "--comodule", "--pointwise", "sampled:20", "--chi-relations", "--lemmas"],
    ["decompose"],
]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return out.getvalue(), err.getvalue(), code


def no_certificate(rep):
    return None


def cli_outputs(argvs, monkeypatch, certificate=reps._certificate):
    """stdout, stderr and exit code of each request, with ``certificate`` in
    place of every caller's certificate."""
    with monkeypatch.context() as m:
        m.setattr(reps, "_certificate", certificate)
        m.setattr(cli, "_certificate", certificate)
        return [run_cli(argv) for argv in argvs]


def requests(path):
    return [[argv[0], str(path), *argv[1:]] for argv in FLAG_SETS]


@pytest.mark.parametrize("name, rep", CORPUS, ids=[name for name, _ in CORPUS])
def test_command_line_bytes_with_and_without_the_shortcut(name, rep, tmp_path, monkeypatch):
    path = tmp_path / "rep.txt"
    path.write_text(write_rep_file(rep))
    outputs = cli_outputs(requests(path), monkeypatch)
    assert outputs == cli_outputs(requests(path), monkeypatch, no_certificate)
    if not name.endswith("valid"):
        assert outputs == cli_outputs(requests(path), monkeypatch, reference_certificate)


def test_command_line_bytes_when_the_walk_is_refused(tmp_path, monkeypatch):
    path = tmp_path / "rep.txt"
    path.write_text(write_rep_file(construct_from_layers(random_layer_data(4, 2, 11, 2, seed=3))))
    monkeypatch.setattr(reps, "MAX_CONSTRUCT_NODES", 3)
    assert cli_outputs(requests(path), monkeypatch) == cli_outputs(requests(path), monkeypatch, no_certificate)


@pytest.mark.parametrize("flags", [["--pointwise", "sampled:x"], ["--pointwise", "sampled:0"],
                                   ["--pointwise", "exhaustive"], ["--pointwise", "sampled:10000000"]])
def test_refused_requests_are_not_answered(flags, tmp_path, monkeypatch):
    path = tmp_path / "rep.txt"
    path.write_text(write_rep_file(construct_from_layers(random_layer_data(4, 2, 11, 1, seed=1))))
    argvs = [["verify", str(path), *flags, *extra] for extra in ([], ["--comodule"], ["--chi-relations", "--lemmas"])]
    outputs = cli_outputs(argvs, monkeypatch)
    assert all(out == "" and err.startswith("error: ") and code == 2 for out, err, code in outputs)
    assert outputs == cli_outputs(argvs, monkeypatch, no_certificate)
