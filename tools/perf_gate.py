#!/usr/bin/env python3
"""Performance gate: this checkout against a base commit, on perfbench.

    python3 tools/perf_gate.py --base origin/main --pairs 3 --seconds 5

Checks the base commit out in a temporary `git worktree`, then runs
each side's own benchmark command (`command` of its BENCHMARK.json) on
the base and on this checkout in alternation, --pairs times per workload
(the first run of each pair alternates too, so neither side always runs
on a warm machine).  Each checkout builds its own perfbench into its own
.bench_build/.

The bounds are the base's: the `end_to_end` metrics, their `better`
directions and their `bound`s come from the base commit's BENCHMARK.json,
so a change cannot loosen the gate that judges it.  Only workloads and
`end_to_end` metrics that both BENCHMARK.json files define are gated;
the others are listed as skipped.

The gate fails (exit 1) when, on any gated workload, this checkout's
median of a gated metric is worse than the base's median by more than
the metric's relative `bound`, in its `better` direction; or when any
run, on either side, reports `"correct": false`, `failed > 0`, no result
at all, or no value for a gated metric.  Exit 0 means every gated
workload passed; exit 2 means the gate itself could not run (bad ref, a
missing or unreadable BENCHMARK.json, no workload in common).

The base is read from the repository this script lives in, so run it
from a full clone (CI checks out with fetch-depth: 0).  It writes
nothing under perfbench/ and removes its worktree on exit.
"""
import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def run_once(checkout, command, workload, seconds):
    """One benchmark run; returns its JSON result, or None on failure
    (after echoing the tail of the run's standard error)."""
    cmd = [*command, "--workload", workload, "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except json.JSONDecodeError:
        pass
    sys.stderr.write(proc.stderr[-4000:])
    return None


def common_names(specs, key):
    """The base's entries under `key` whose name the change also defines,
    in the base's order (so the base's bounds apply), and the sorted names
    only one side defines."""
    base = specs["base"][key]
    change = {entry["name"] for entry in specs["change"][key]}
    common = [entry for entry in base if entry["name"] in change]
    kept = {entry["name"] for entry in common}
    one_side = sorted(({e["name"] for e in base} | change) - kept)
    return common, one_side


def run_ok(result):
    return (result is not None and result.get("correct") is True
            and result.get("failed", 1) == 0)


def verdict(metric, base, change):
    """Relative change (positive = better) and whether it breaks the bound."""
    delta = (change - base) / base if base else 0.0
    if metric["better"] == "lower":
        delta = -delta
    return delta, delta < -metric["bound"]


def metric_value(result, name):
    return ((result or {}).get("metrics", {}).get(name) or {}).get("value")


def gate_workload(workload, metrics, sides, args):
    """Runs the pairs for one workload; returns a list of failure strings.
    `sides` maps "base"/"change" to (checkout, command)."""
    results = {"base": [], "change": []}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            checkout, command = sides[side]
            result = run_once(checkout, command, workload, args.seconds)
            results[side].append(result)
            value = metric_value(result, "events_per_s_per_shard")
            print(f"  pair {i + 1} {side:6}: "
                  f"{'ok' if run_ok(result) else 'FAILED'}"
                  + (f", {value:,.0f} events/s/shard" if value else ""),
                  flush=True)

    failures = []
    for side, runs in results.items():
        bad = sum(1 for r in runs if not run_ok(r))
        if bad:
            failures.append(f"{workload}: {bad} {side} run(s) failed or "
                            "reported incorrect output")
    if failures:
        return failures

    for metric in metrics:
        name = metric["name"]
        values = {side: [metric_value(r, name) for r in runs]
                  for side, runs in results.items()}
        missing = [side for side, vs in values.items() if None in vs]
        if missing:
            failures.append(f"{workload}: {name} missing from "
                            f"{' and '.join(missing)} result(s)")
            continue
        medians = {side: statistics.median(vs) for side, vs in values.items()}
        delta, worse = verdict(metric, medians["base"], medians["change"])
        print(f"  {name:24} base {medians['base']:>14.6g}  "
              f"change {medians['change']:>14.6g}  {delta:+7.1%} "
              f"(bound {metric['bound']:.0%}, {metric['better']} is better)"
              + ("  WORSE" if worse else ""))
        if worse:
            failures.append(f"{workload}: {name} {delta:+.1%} is past the "
                            f"{metric['bound']:.0%} bound")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="git ref to compare against (e.g. the merge-base)")
    parser.add_argument("--pairs", type=int, default=3,
                        help="base/change run pairs per workload")
    parser.add_argument("--seconds", type=float, default=5,
                        help="timed seconds per run")
    parser.add_argument("--workload", action="append",
                        help="limit to this workload (repeatable)")
    args = parser.parse_args()

    try:
        base_sha = git("rev-parse", "--verify", args.base + "^{commit}")
        specs = {"base": json.loads(git("show", f"{base_sha}:BENCHMARK.json")),
                 "change": json.loads((ROOT / "BENCHMARK.json").read_text())}
        commands = {side: list(spec["command"]) for side, spec in specs.items()}
        workloads, skipped = common_names(specs, "workloads")
        metrics, skipped_metrics = common_names(specs, "end_to_end")
    except (OSError, ValueError, KeyError, TypeError,
            subprocess.CalledProcessError) as e:
        sys.stderr.write(f"perf_gate: {e!r}\n")
        return 2
    for w in args.workload or []:
        if w not in {entry["name"] for entry in workloads}:
            sys.stderr.write(f"perf_gate: workload {w} is not defined by "
                             "both sides\n")
            return 2
    workloads = [w for w in workloads
                 if not args.workload or w["name"] in args.workload]
    if not workloads:
        sys.stderr.write("perf_gate: no workload in common\n")
        return 2
    for what, names in (("workload", skipped), ("metric", skipped_metrics)):
        for name in names:
            print(f"perf_gate: skipping {what} {name} (defined by one side "
                  "only)")

    with tempfile.TemporaryDirectory(prefix="perf-gate-") as tmp:
        base_dir = Path(tmp) / "base"
        git("worktree", "add", "--detach", str(base_dir), base_sha)
        try:
            sides = {"base": (base_dir, commands["base"]),
                     "change": (ROOT, commands["change"])}
            print(f"perf_gate: base {base_sha[:12]} vs {ROOT}, "
                  f"{args.pairs} pair(s) x {args.seconds:g} s per workload",
                  flush=True)
            failures = []
            for workload in workloads:
                print(f"{workload['name']}:", flush=True)
                failures += gate_workload(workload["name"], metrics, sides,
                                          args)
        finally:
            git("worktree", "remove", "--force", str(base_dir))

    if failures:
        print("perf_gate: FAIL")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("perf_gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
