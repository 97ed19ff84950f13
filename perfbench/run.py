"""unirep benchmark: one run of one workload.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; unirep is imported from its ``src``.  The
run builds one pass of items from the seed and runs it
``--seconds / PASS_SECONDS`` times (at least once), each item in a closed
loop with one client, and checks every output exactly.  It times the setup
SETUP_REPEATS times, the first before the passes and the others spread
between them; ``setup_s`` is the median.  Its last line is one JSON object
with the keys correct, attempted, failed and metrics.

An item's time is the fastest of its passes.  The machine this was tuned on
is shared: a fixed pure-Python loop ran 1.2-1.9 times slower than its best
from one two-second window to the next, so the fastest of several passes
some seconds apart strips the slow spells; a spell as long as the run stays
in the figures.  The bch series requests run in a freshly imported session
in every pass, so each of their times is a cold-cache time.

With ``--trace 1`` the run makes one pass with the tracer installed, reports
the per-layer metrics, writes its spans to ``.perfbench_traces/<workload>.jsonl.gz`` and runs
the same pass untraced in a fresh process for ``trace.overhead_ratio``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One pass of each workload takes about this long on an idle 2-vCPU 2.1 GHz Xeon.
PASS_SECONDS = {"roundtrip": 4.0, "bch": 7.0, "coproduct": 4.3}
SETUP_REPEATS = 5
CALIBRATION_LOOP = 3_000_000
PROBE_BATCH = 1000
PROBE_ROUNDS = 200


def calibrate():
    """Wall and CPU seconds of a fixed pure-Python loop.  Recorded only so a
    reader can tell a slow machine from a slow change; no metric is
    normalised by it."""
    wall, cpu = time.perf_counter(), time.process_time()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc += i & 7
    return {"wall_s": round(time.perf_counter() - wall, 4), "cpu_s": round(time.process_time() - cpu, 4)}


def git_sha():
    """The checkout's commit, read from .git without running git; 'unknown'
    outside a git repository."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup(workload, seed):
    """Import unirep and build the pass from the seed.  Returns the modules,
    the items and the seconds it took."""
    t0 = time.perf_counter()
    u = workloads.Unirep()
    items = workloads.make_pass(u, workload, seed)
    return u, items, time.perf_counter() - t0


def residue_mul_ns(u):
    """Median ns per Residue multiply over a fixed batch, measured untraced."""
    rng = random.Random(0)
    residue = u.arith.Residue
    pairs = [(residue(rng.randrange(13), 13), residue(rng.randrange(13), 13)) for _ in range(PROBE_BATCH)]
    times = []
    for _ in range(PROBE_ROUNDS):
        t0 = time.perf_counter()
        for a, b in pairs:
            a * b
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / PROBE_BATCH * 1e9


def measure(runner, items, passes, setup_again):
    """``passes`` passes, with SETUP_REPEATS - 1 more timed setups spread
    between them.  Returns per-item (fastest time, passed every time), the
    number of executions and failures, and the setup times."""
    per_item, executions, failed, setup_times = None, 0, 0, []
    setup_slots = [j * passes // (SETUP_REPEATS - 1) for j in range(SETUP_REPEATS - 1)]
    for k in range(passes):
        if k:
            runner.new_session()
        for _ in range(setup_slots.count(k)):
            setup_times.append(setup_again())
        gc.collect()
        results = workloads.run_items(runner, items)
        executions += len(results)
        failed += sum(1 for _, ok, _ in results if not ok)
        pairs = [(t, ok) for t, ok, _ in results]
        per_item = pairs if per_item is None else [
            (min(t0, t1), ok0 and ok1) for (t0, ok0), (t1, ok1) in zip(per_item, pairs)]
    return per_item, executions, failed, setup_times


def end_to_end(per_item, setup_s):
    times = [t for t, _ in per_item]
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (len(times) / sum(times), "1/s"),
        "item_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "item_ms_p90": (statistics.quantiles(times, n=10, method="inclusive")[8] * 1e3, "ms"),
        "pass_frac": (sum(1 for _, ok in per_item if ok) / len(per_item), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def untraced_reference(args):
    """Item seconds of one untraced pass, in a fresh
    process, with its attempted and failed counts."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"untraced reference run failed: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    stamp = json.loads(proc.stdout.splitlines()[0].removeprefix("stamp "))
    return stamp["item_seconds"], result["attempted"], result["failed"]


def traced(u, runner, items, args):
    mul_ns = residue_mul_ns(u)
    with Tracer(u) as tracer:
        results = workloads.run_items(runner, items)
    item_seconds = sum(t for t, _, _ in results)
    ref_seconds, ref_attempted, ref_failed = untraced_reference(args)
    metrics = tracer.metrics()
    metrics["arith.residue_mul_ns"] = (mul_ns, "ns")
    metrics["arith.computed_s"] = (tracer.counts["arith.residue_ops"] * mul_ns * 1e-9, "s")
    metrics["trace.overhead_ratio"] = (item_seconds / ref_seconds, "ratio")
    trace_dir = ROOT / ".perfbench_traces"
    trace_dir.mkdir(exist_ok=True)
    family = {}
    for (kind, _, _), (t, _, _) in zip(items, results):
        family[kind] = family.get(kind, 0.0) + t
    stamp = {"spans": tracer.write_spans(trace_dir / f"{args.workload}.jsonl.gz"),
             "traced_item_seconds": round(item_seconds, 3), "untraced_item_seconds": round(ref_seconds, 3),
             "family_share": {k: round(v / item_seconds, 3) for k, v in family.items()}}
    failed = sum(1 for _, ok, _ in results if not ok) + ref_failed
    return metrics, len(results) + ref_attempted, failed, stamp


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("roundtrip", "bch", "coproduct"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "unirep" / "__init__.py").is_file():
        sys.stderr.write(f"error: no unirep sources under {SRC}; run from the root of a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    stamp = {"python": platform.python_version(), "nproc": os.cpu_count(),
             "affinity": len(os.sched_getaffinity(0)), "git_sha": git_sha(),
             "calibration_start": calibrate()}
    u, items, setup_s = setup(args.workload, args.seed)
    workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    try:
        runner = workloads.Runner(u, workdir)
        if args.trace:
            metrics, attempted, failed, extra = traced(u, runner, items, args)
        else:
            passes = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
            t0 = time.perf_counter()
            per_item, attempted, failed, setup_times = measure(
                runner, items, passes, lambda: setup(args.workload, args.seed)[2])
            setup_times.append(setup_s)
            metrics = end_to_end(per_item, statistics.median(setup_times))
            extra = {"passes": passes, "item_samples": len(per_item), "wall_s": round(time.perf_counter() - t0, 3),
                     "item_seconds": sum(t for t, _ in per_item),
                     "setup_seconds": [round(t, 4) for t in setup_times]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stamp.update(extra, calibration_end=calibrate())
    for kind, shape, detail in runner.failures[:10]:
        sys.stderr.write(f"failed {kind} {shape}: {detail}\n")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} = {value:.6g} {unit}")
    if not args.trace:
        print(f"item_samples = {extra['item_samples']} count (the sample count of item_ms_p50 and item_ms_p90)")
        print(f"failed_frac = {failed / attempted:.6g} ratio (failed executions / attempted executions)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
