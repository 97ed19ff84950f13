"""Steadiness report: run one workload k times, each with another seed, and
print the median and quartiles of every end-to-end metric.

    python3 perfbench/steady.py --workload roundtrip --runs 10 --first-seed 1

The spread is (q3 - q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``; a metric is flagged when its spread
is not below a third of its bound in BENCHMARK.json.  Runs are sequential,
one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.splitlines()
    stamp = json.loads(lines[0].removeprefix("stamp "))
    return json.loads(lines[-1]), stamp["calibration_start"]["wall_s"], stamp["calibration_end"]["wall_s"]


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    failed = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result, calibration_start, calibration_end = run_once(args.workload, seed, args.seconds)
        failed += result["failed"]
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{n}={v[-1]:.4g}" for n, v in values.items())
              + f", calibration {calibration_start:.3f}/{calibration_end:.3f} s", flush=True)

    print(f"{args.workload}: {args.runs} runs, {failed} failed items")
    steady = True
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        flag = "" if spread < bounds[name] / 3 else "  <-- not below a third of the bound"
        steady = steady and (not flag or name == "setup_s")
        unit = next(m["unit"] for m in spec["end_to_end"] if m["name"] == name)
        print(f"  {name:12s} median {median:10.4g} {unit:5s} q1 {q1:10.4g} q3 {q3:10.4g} "
              f"spread {spread:.4f} bound {bounds[name]}{flag}")
    return 0 if steady and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
