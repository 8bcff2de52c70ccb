#!/usr/bin/env python3
"""Equivalence diff of two measurement_pipeline PipelineReport JSONs.

The streaming-equivalence CI job runs the pipeline once in memory (the
materialized analysis), once with --checkpoint-dir (the streaming
analysis of the spools) and once as a plain --resume of that finished
checkpoint, on the same arguments, and feeds --metrics files here: the
checkpointed run's and the resume's are each compared with the in-memory
run's.  The comparison surface is everything the simulation counted and
the analysis derived from the trace:

  * the robustness section (end-reason rows included),
  * the Table-2 filter section,
  * every metrics counter EXCEPT pass-shape namespaces that legitimately
    differ between the executions: recovery.* (only the checkpointed run
    recovers), streaming.* (describes the streaming pass itself) and
    process.* (RSS — differing is the point),
  * every metrics histogram (same exclusions): bounds, per-bucket
    counts, total count and sum must all match — the qtrace hop-count /
    fan-out / drop-reason / hit-latency distributions live here.

Gauges are excluded wholesale: they hold queue depths and peak RSS,
which measure the machine, not the trace.

The "timeline" block (tick_seconds, series names, and every
[time, shard, v0..vN] point) is part of the default comparison surface:
timelines are deterministic, so the two reports must agree bit for bit.

The "gaps" block (salvage loss accounting: censored session/query
counts, frames lost, bytes quarantined and every damaged range) is
compared the same way — salvage reads are deterministic, so a strict
run and a --salvage run over a CLEAN checkpoint must both report the
all-zero block, and two salvage runs over the same damage must agree on
every range.  Reports from before the block have nothing to compare.

--require=<prefix> (repeatable) asserts that at least one counter or
histogram under that namespace exists in BOTH reports.  Without it, a
subsystem that silently stopped publishing (on both paths at once)
would still compare "equivalent"; CI passes --require=qtrace so the
qtrace surface can never vanish unnoticed.  Exit 0 iff equivalent;
prints each divergence otherwise.

--timeline switches to timeline-comparison mode: the two inputs are
timeline dumps (measurement_pipeline --timeline=<dir>'s timeline.json)
or PipelineReports (their "timeline" block is used), compared point by
point.  Shape mismatches — tick width, series set, point count, any
point's (time, shard) — always fail; values compare under a per-series
tolerance: --abs-tol=<x> / --rel-tol=<x> set global defaults (0 = exact)
and --tol=<series>:<abs>:<rel> (repeatable) overrides one series, which
is how a cross-seed diurnal comparison tolerates sampling noise while
still pinning the shape of the day.
"""

import json
import sys

EXCLUDED_PREFIXES = ("recovery.", "streaming.", "process.")
MAX_POINT_PROBLEMS = 20


def comparable(section):
    return {
        key: value
        for key, value in section.items()
        if not key.startswith(EXCLUDED_PREFIXES)
    }


def comparable_counters(report):
    return comparable(report.get("metrics", {}).get("counters", {}))


def comparable_histograms(report):
    return comparable(report.get("metrics", {}).get("histograms", {}))


def diff_section(name, a, b, problems):
    for key in sorted(set(a) | set(b)):
        left, right = a.get(key), b.get(key)
        if left != right:
            problems.append(f"{name}.{key}: {left!r} != {right!r}")


def diff_histograms(a, b, problems):
    for key in sorted(set(a) | set(b)):
        left, right = a.get(key), b.get(key)
        if left is None or right is None:
            present = "first" if right is None else "second"
            problems.append(
                f"histograms.{key}: only present in {present} report")
            continue
        for field in ("bounds", "buckets", "count", "sum"):
            if left.get(field) != right.get(field):
                problems.append(f"histograms.{key}.{field}: "
                                f"{left.get(field)!r} != {right.get(field)!r}")


def diff_gaps(a, b, problems):
    """Exact diff of the salvage "gaps" blocks (scalar rows + ranges)."""
    for key in sorted((set(a) | set(b)) - {"ranges"}):
        left, right = a.get(key), b.get(key)
        if left != right:
            problems.append(f"gaps.{key}: {left!r} != {right!r}")
    ranges_a, ranges_b = a.get("ranges", []), b.get("ranges", [])
    if len(ranges_a) != len(ranges_b):
        problems.append(f"gaps.ranges: {len(ranges_a)} range(s) != "
                        f"{len(ranges_b)} range(s)")
        return
    for i, (ra, rb) in enumerate(zip(ranges_a, ranges_b)):
        if ra != rb:
            problems.append(f"gaps.ranges[{i}]: {ra!r} != {rb!r}")


def timeline_block(report):
    """The timeline dict of a report or standalone dump, else None."""
    block = report.get("timeline")
    if isinstance(block, dict):
        return block
    if {"tick_seconds", "series", "points"} <= set(report):
        return report
    return None


def diff_timeline(a, b, problems, abs_tol=0.0, rel_tol=0.0, per_series=None):
    """Point-by-point timeline diff; shape mismatches are always fatal."""
    per_series = per_series or {}
    if a.get("tick_seconds") != b.get("tick_seconds"):
        problems.append(f"timeline.tick_seconds: {a.get('tick_seconds')!r} "
                        f"!= {b.get('tick_seconds')!r}")
    series_a, series_b = a.get("series", []), b.get("series", [])
    if series_a != series_b:
        problems.append(f"timeline.series: {series_a!r} != {series_b!r}")
        return
    points_a, points_b = a.get("points", []), b.get("points", [])
    if len(points_a) != len(points_b):
        problems.append(f"timeline.points: {len(points_a)} point(s) != "
                        f"{len(points_b)} point(s)")
        return
    reported = 0
    suppressed = 0
    for i, (pa, pb) in enumerate(zip(points_a, points_b)):
        if pa[0] != pb[0] or pa[1] != pb[1]:
            problems.append(f"timeline.points[{i}]: tick (time={pa[0]}, "
                            f"shard={pa[1]}) != (time={pb[0]}, shard={pb[1]})")
            return  # the grids diverged; value diffs below are meaningless
        for s, name in enumerate(series_a):
            va, vb = pa[2 + s], pb[2 + s]
            s_abs, s_rel = per_series.get(name, (abs_tol, rel_tol))
            limit = max(s_abs, s_rel * max(abs(va), abs(vb)))
            if abs(va - vb) > limit:
                if reported < MAX_POINT_PROBLEMS:
                    problems.append(
                        f"timeline.points[{i}].{name} (t={pa[0]}, "
                        f"shard={pa[1]}): {va!r} != {vb!r} "
                        f"(tolerance {limit:g})")
                    reported += 1
                else:
                    suppressed += 1
    if suppressed:
        problems.append(
            f"timeline: ... and {suppressed} more point divergence(s)")


def check_required(prefix, names, label, problems):
    if not any(key.startswith(prefix) for key in names):
        problems.append(
            f"required namespace {prefix!r} entirely missing from {label}")


def main(argv):
    required = []
    paths = []
    timeline_mode = False
    abs_tol = 0.0
    rel_tol = 0.0
    per_series = {}
    for arg in argv[1:]:
        if arg.startswith("--require="):
            required.append(arg[len("--require="):])
        elif arg == "--timeline":
            timeline_mode = True
        elif arg.startswith("--abs-tol="):
            abs_tol = float(arg[len("--abs-tol="):])
        elif arg.startswith("--rel-tol="):
            rel_tol = float(arg[len("--rel-tol="):])
        elif arg.startswith("--tol="):
            name, s_abs, s_rel = arg[len("--tol="):].rsplit(":", 2)
            per_series[name] = (float(s_abs), float(s_rel))
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(f"usage: {argv[0]} [--require=<prefix>]... [--timeline "
              f"[--abs-tol=<x>] [--rel-tol=<x>] [--tol=<series>:<abs>:<rel>]"
              f"...] <first.json> <second.json>", file=sys.stderr)
        return 2
    with open(paths[0]) as fh:
        materialized = json.load(fh)
    with open(paths[1]) as fh:
        streaming = json.load(fh)

    if timeline_mode:
        problems = []
        first = timeline_block(materialized)
        second = timeline_block(streaming)
        for block, path in ((first, paths[0]), (second, paths[1])):
            if block is None:
                problems.append(f"{path}: no timeline block found")
        if not problems:
            diff_timeline(first, second, problems, abs_tol, rel_tol,
                          per_series)
        if problems:
            print(f"{len(problems)} timeline divergence(s) between "
                  f"{paths[0]} and {paths[1]}:")
            for problem in problems:
                print(f"  {problem}")
            return 1
        print(f"timelines equivalent: {len(first.get('points', []))} "
              f"point(s) x {len(first.get('series', []))} series within "
              f"tolerance")
        return 0

    problems = []
    diff_section("robustness", materialized.get("robustness", {}),
                 streaming.get("robustness", {}), problems)
    diff_section("filters", materialized.get("filters", {}),
                 streaming.get("filters", {}), problems)
    mat_counters = comparable_counters(materialized)
    str_counters = comparable_counters(streaming)
    diff_section("counters", mat_counters, str_counters, problems)
    mat_histograms = comparable_histograms(materialized)
    str_histograms = comparable_histograms(streaming)
    diff_histograms(mat_histograms, str_histograms, problems)
    # Timelines are deterministic, so the default surface compares them
    # exactly (zero tolerance).  Reports from before the timeline block
    # simply have nothing to compare.
    mat_timeline = timeline_block(materialized)
    str_timeline = timeline_block(streaming)
    if mat_timeline is not None or str_timeline is not None:
        if mat_timeline is None or str_timeline is None:
            missing = paths[0] if mat_timeline is None else paths[1]
            problems.append(f"timeline block missing from {missing}")
        else:
            diff_timeline(mat_timeline, str_timeline, problems)
    # Salvage gaps are deterministic too: exact comparison, same
    # before-the-block presence handling as the timeline.
    mat_gaps = materialized.get("gaps")
    str_gaps = streaming.get("gaps")
    if mat_gaps is not None or str_gaps is not None:
        if mat_gaps is None or str_gaps is None:
            missing = paths[0] if mat_gaps is None else paths[1]
            problems.append(f"gaps block missing from {missing}")
        else:
            diff_gaps(mat_gaps, str_gaps, problems)

    for prefix in required:
        check_required(prefix, set(mat_counters) | set(mat_histograms),
                       paths[0], problems)
        check_required(prefix, set(str_counters) | set(str_histograms),
                       paths[1], problems)

    if problems:
        print(f"{len(problems)} divergence(s) between {paths[0]} and "
              f"{paths[1]}:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    timeline_note = (
        f" and {len(mat_timeline.get('points', []))} timeline point(s)"
        if mat_timeline is not None else "")
    print(f"reports equivalent: robustness, filters, "
          f"{len(mat_counters)} counters, {len(mat_histograms)} "
          f"histograms{timeline_note} identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
