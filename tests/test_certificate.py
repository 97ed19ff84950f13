"""The comodule certificate (a table rebuilt from its own layers) against the
symbolic check it shortcuts.

The corpus holds seeded valid tables, tables with one entry changed, one key
deleted or one key added, tables whose chi(p eps_ij) no longer commutes with
layer 0, Fraction tables at p = 0, and a valid table whose rebuild the walk
bound refuses.  On each, verify_comodule and decompose_to_layers must give
what the symbolic path gives, and the command line must print the same
bytes and exit with the same code with the certificate and without it.
"""

import contextlib
import io
import itertools
import random

import pytest

from unirep import cli, reps
from unirep.errors import UnirepError
from unirep.hopf import ExponentMatrix, variable_pairs
from unirep.io import write_rep_file
from unirep.linalg import SquareMatrix, scalar_matrix
from unirep.reps import ChiTable, Representation, construct_from_layers, decompose_to_layers, verify_comodule
from unirep.samples import random_layer_data

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
    plain = Representation(ChiTable(2, 7, 2, {  # plain ints, which the symbolic check reads mod 7
        ExponentMatrix.zero(2): SquareMatrix([[1, 0], [0, 1]]),
        ExponentMatrix.epsilon(2, 1, 2): SquareMatrix([[0, 1], [0, 0]])}))
    assert reps._certificate(plain) is None
    assert verify_comodule(plain).findings == reps._comodule_findings(plain).findings != []


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


def cli_outputs(argvs, monkeypatch, shortcut):
    """stdout, stderr and exit code of each request, with the certificate or
    with every caller's certificate failing."""
    with monkeypatch.context() as m:
        if not shortcut:
            m.setattr(reps, "_certificate", lambda rep: None)
            m.setattr(cli, "_certificate", lambda rep: None)
        return [run_cli(argv) for argv in argvs]


def requests(path):
    return [[argv[0], str(path), *argv[1:]] for argv in FLAG_SETS]


@pytest.mark.parametrize("name, rep", CORPUS, ids=[name for name, _ in CORPUS])
def test_command_line_bytes_with_and_without_the_shortcut(name, rep, tmp_path, monkeypatch):
    path = tmp_path / "rep.txt"
    path.write_text(write_rep_file(rep))
    assert cli_outputs(requests(path), monkeypatch, True) == cli_outputs(requests(path), monkeypatch, False)


def test_command_line_bytes_when_the_walk_is_refused(tmp_path, monkeypatch):
    path = tmp_path / "rep.txt"
    path.write_text(write_rep_file(construct_from_layers(random_layer_data(4, 2, 11, 2, seed=3))))
    monkeypatch.setattr(reps, "MAX_CONSTRUCT_NODES", 3)
    assert cli_outputs(requests(path), monkeypatch, True) == cli_outputs(requests(path), monkeypatch, False)


@pytest.mark.parametrize("flags", [["--pointwise", "sampled:x"], ["--pointwise", "sampled:0"],
                                   ["--pointwise", "exhaustive"], ["--pointwise", "sampled:10000000"]])
def test_refused_requests_are_not_answered(flags, tmp_path, monkeypatch):
    path = tmp_path / "rep.txt"
    path.write_text(write_rep_file(construct_from_layers(random_layer_data(4, 2, 11, 1, seed=1))))
    argvs = [["verify", str(path), *flags, *extra] for extra in ([], ["--comodule"], ["--chi-relations", "--lemmas"])]
    outputs = cli_outputs(argvs, monkeypatch, True)
    assert all(out == "" and err.startswith("error: ") and code == 2 for out, err, code in outputs)
    assert outputs == cli_outputs(argvs, monkeypatch, False)
