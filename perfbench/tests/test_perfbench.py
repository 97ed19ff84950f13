"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracing import Tracer

BENCH = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def u():
    return workloads.Unirep()


def tiny_items(u, workload):
    rng = random.Random(7)
    if workload == "roundtrip":
        return [workloads.dense_item(u, 3, 2, 2, 11, 5), workloads.dense_item(u, 4, 2, 1, 13, 6),
                workloads.wide_item(u, 3, 2, 13, rng)]
    if workload == "bch":
        return ([("series", (m,), m) for m in range(1, 5)]
                + [workloads.bch_pair(u, 4, 5, rng), workloads.bch_pair(u, 5, 7, rng)])
    return [("audit", (4, 1), (4, 1)),
            workloads.chi_table(u, 3, 2, 0, 2, 2, 11), workloads.chi_table(u, 4, 1, 5, 3, 1, 12),
            workloads.chi_table(u, 3, 3, 7, 1, 3, 13)]


def run_tiny(u, items, tmp_path, runner=None):
    runner = runner or workloads.Runner(u, str(tmp_path))
    return runner, workloads.run_items(runner, items, keep_output=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_passes(u, workload, tmp_path):
    runner, results = run_tiny(u, tiny_items(u, workload), tmp_path)
    assert [ok for _, ok, _ in results] == [True] * len(results), runner.failures


def test_generated_pass_passes(u, tmp_path):
    items = workloads.make_pass(u, "coproduct", 3)
    runner, results = run_tiny(u, [item for item in items if item[0] == "chi"][:15], tmp_path)
    assert all(ok for _, ok, _ in results), runner.failures


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pass_has_enough_items_for_p90(u, workload):
    assert len(workloads.make_pass(u, workload, 1)) >= 100


def test_pass_layout(u):
    kinds = [kind for kind, _, _ in workloads.make_pass(u, "bch", 1)]
    assert kinds[:workloads.BCH_MAX_DEGREE] == ["series"] * workloads.BCH_MAX_DEGREE
    kinds = [kind for kind, _, _ in workloads.make_pass(u, "coproduct", 1)]
    assert kinds == ["audit"] * len(workloads.AUDIT_REQUESTS) + ["chi"] * workloads.COPRODUCT_ITEMS
    kinds = [kind for kind, _, _ in workloads.make_pass(u, "roundtrip", 1)]
    assert kinds.count("wide") == workloads.WIDE_ITEMS
    assert kinds.count("dense") == workloads.WIDE_ITEMS * workloads.DENSE_PER_WIDE


def test_sessions_do_not_disturb_each_other(u, tmp_path):
    loaded = sys.modules["unirep.bch"]
    runner = workloads.Runner(u, str(tmp_path))
    runner.new_session()
    assert sys.modules["unirep.bch"] is loaded
    assert runner.series_session.bch is not u.bch
    assert runner.series_session.bch._component_cache == {}
    _, results = run_tiny(u, [("series", (3,), 3)], tmp_path, runner)
    assert results[0][1] and runner.series_session.bch._component_cache


def test_pass_is_a_function_of_the_seed(u):
    text = lambda seed: [item[2] for item in workloads.make_pass(u, "roundtrip", seed)]
    assert text(4) == text(4)
    assert text(4) != text(5)


def test_splitting_count_matches_the_enumeration(u):
    _, _, chi = workloads.chi_table(u, 4, 2, 7, 5, 2, 21)
    enumerated = sum(len(u.splittings.enumerate_splittings(M)) for M in chi.support)
    assert workloads.splitting_count(chi.support) == enumerated > 0
    items = workloads.make_pass(u, "coproduct", 1)
    assert all(workloads.splitting_count(chi.support) <= workloads.COPRODUCT_MAX_SPLITTINGS
               for kind, _, chi in items if kind == "chi")


def _flip_scalar(text, p):
    lines = text.splitlines(keepends=True)
    for k, line in enumerate(lines[1:], start=1):
        obj = json.loads(line)
        for row in obj["matrix"]:
            for c, value in enumerate(row):
                if value != "0":
                    row[c] = str((int(value) + 1) % p)
                    lines[k] = json.dumps(obj, sort_keys=True) + "\n"
                    return "".join(lines)
    raise AssertionError("no nonzero scalar to flip")


def test_corrupted_inputs_fail_without_ending_the_run(u, tmp_path):
    kind, shape, text = workloads.dense_item(u, 3, 2, 2, 11, 5)
    flipped = (kind, shape, _flip_scalar(text, 11))

    kind, shape, (x, y) = workloads.bch_pair(u, 4, 5, random.Random(1))
    x.entries[0][0] = u.arith.Residue(1, 5)
    bad_pair = (kind, shape, (x, y))

    kind, shape, chi = workloads.chi_table(u, 3, 2, 7, 2, 2, 3)
    matrix = next(iter(chi.support.values()))
    matrix.entries[0][0] = u.arith.Residue(1, 5)
    bad_chi = (kind, shape, chi)

    good = workloads.dense_item(u, 3, 2, 1, 13, 8)
    runner, results = run_tiny(u, [flipped, bad_pair, bad_chi, good], tmp_path)
    assert [ok for _, ok, _ in results] == [False, False, False, True]
    assert [f[0] for f in runner.failures] == ["dense", "pair", "chi"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_matches_untraced(u, workload, tmp_path):
    items = tiny_items(u, workload)
    _, plain = run_tiny(u, items, tmp_path)
    main = u.cli.main
    runner = workloads.Runner(u, str(tmp_path))
    with Tracer(u) as tracer:
        assert u.cli.main is not main
        _, traced = run_tiny(u, items, tmp_path, runner)
    assert u.cli.main is main
    assert [(ok, str(out)) for _, ok, out in traced] == [(ok, str(out)) for _, ok, out in plain]
    assert len(tracer.span_start) > 0


def _trace_metrics(u, workload, tmp_path):
    items, runner = tiny_items(u, workload), workloads.Runner(u, str(tmp_path))
    with Tracer(u) as tracer:
        _, results = run_tiny(u, items, tmp_path, runner)
    assert all(ok for _, ok, _ in results)
    return {name: value for name, (value, _) in tracer.metrics().items()}


def test_bypass_predictions(u, tmp_path):
    per_layer = {m["name"] for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]}
    computed_outside = {"arith.residue_mul_ns", "arith.computed_s", "trace.overhead_ratio"}

    roundtrip = _trace_metrics(u, "roundtrip", tmp_path)
    assert set(roundtrip) == per_layer - computed_outside
    assert roundtrip["reps.validate_calls"] > 0 and roundtrip["io.bytes"] > 0
    assert all(v == 0 for k, v in roundtrip.items() if k.startswith(("splittings.", "bch.")))

    bch = _trace_metrics(u, "bch", tmp_path)
    assert bch["bch.series_s"] > 0 and bch["linalg.matmul_calls"] > 0
    assert bch["hopf.coproduct_s"] == 0
    assert all(v == 0 for k, v in bch.items() if k.startswith(("reps.", "io.")))

    coproduct = _trace_metrics(u, "coproduct", tmp_path)
    assert coproduct["splittings.enumerated"] > 0 and 0 < coproduct["splittings.key_yield"] <= 1
    assert coproduct["reps.validate_calls"] == 0 and coproduct["linalg.exp_log_s"] == 0


@pytest.mark.parametrize("make", [
    lambda u: workloads.dense_item(u, 4, 5, 2, 11, 0),
    lambda u: workloads.dense_item(u, 3, 2, 1, 7, 0),
    lambda u: workloads.wide_item(u, 3, 2, 7, random.Random(0)),
    lambda u: workloads.wide_item(u, 5, 2, 23, random.Random(0)),
    lambda u: workloads.bch_pair(u, 8, 7, random.Random(0)),
    lambda u: workloads.chi_table(u, 5, 1, 5, 1, 1, 0),
    lambda u: workloads.chi_table(u, 4, 1, 5, 1, 3, 0),
])
def test_generators_refuse_shapes_outside_the_tables(u, make):
    with pytest.raises(ValueError):
        make(u)


def test_roundtrip_prime_guard():
    with pytest.raises(ValueError):
        workloads._check_roundtrip_prime(3, 6, 7)
    with pytest.raises(ValueError):
        workloads._check_roundtrip_prime(3, 2, 9)
    workloads._check_roundtrip_prime(3, 6, 13)


def test_run_prints_the_result_line(capsys):
    assert run.main(["--workload", "coproduct", "--seed", "2", "--seconds", "0", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 100
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bch", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
