#!/usr/bin/env python3
"""Steadiness check: runs one workload N times and reports the spread.

    python3 perfbench/steady.py --workload clean-shard --runs 10
    python3 perfbench/steady.py --workload clean-shard --runs 10 --distinct-seeds

Every run measures for BENCHMARK.json's run_seconds.  By default all runs
use the default seed, so they repeat one input and its pinned-digest
checks; with --distinct-seeds run i uses seed i (1, 2, ...), the way a
regression gate compares run sets.  For every end-to-end metric it prints
the median, the quartiles (Python's statistics.quantiles(values, n=4)) and
the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json.  A spread above the bound means a regression gate on that
metric would fire on noise alone; the benchmark aims to keep every spread
but setup_s's below a third of its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 20040315


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--distinct-seeds", action="store_true",
                        help="run i uses seed i instead of the default seed")
    args = parser.parse_args()

    values = {m["name"]: [] for m in spec["end_to_end"]}
    failed_runs = 0
    for i in range(args.runs):
        seed = i + 1 if args.distinct_seeds else DEFAULT_SEED
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"run {i + 1}, seed {seed}: run failed (exit {proc.returncode})")
            failed_runs += 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            failed_runs += 1
        row = []
        for name in values:
            v = result["metrics"][name]["value"]
            values[name].append(v)
            row.append(f"{name}={v:.6g}")
        print(f"run {i + 1}, seed {seed}: correct={result['correct']} " + " ".join(row),
              flush=True)

    print(f"\n{args.workload}: {args.runs} runs, {failed_runs} failed")
    print(f"{'metric':<24}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}"
          f"{'bound':>8}")
    for m in spec["end_to_end"]:
        vs = values[m["name"]]
        if len(vs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        print(f"{m['name']:<24}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
              f"{spread:>9.3f}{m['bound']:>8}")
    return 1 if failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
