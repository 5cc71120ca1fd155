#!/usr/bin/env python3
"""Soft wall-clock regression gate for the bench trend files.

Compares a freshly produced JSONL bench file (the same format
exp::TrialRunner emits, one row per sweep cell) against a committed
baseline file, matching rows by (bench, params) and comparing the mean of
the wall-clock metrics (ns_per_item / ns_per_packet). The verdict is per
bench: the geometric mean of a bench's cell ratios (fresh/baseline) above
--threshold fails the check. Individual cells — whose sub-millisecond
walls swing far more than 25% with scheduler noise, in both directions —
are printed as context but not gated; a real regression moves a whole
bench's cells together.

The check is soft by design: wall-clock numbers move with the machine, so
the threshold defaults to a generous 25% and only the named nanosecond
metrics are compared — counts, violation totals and derived rates are
trend data, not gates.

A fresh file with no rows fails: the bench that should have written it
wrote nothing, and an empty comparison would otherwise read as a pass.

Fresh cells with no baseline row fail soft-but-loud: each is printed as a
WARN line and the check exits nonzero so CI surfaces them, without
claiming a perf regression. Pass --allow-new when the new cells are
intentional (they become baselines once the trend file is refreshed).

Metrics whose BASELINE stddev/mean exceeds --noise-threshold (default
0.35) are not gated at all: such a baseline cannot distinguish a real
regression from its own scatter. Each skip is printed as a WARN line
(but does not fail the check) — the fix is more trials in the bench and
a refreshed baseline, not a bigger threshold.

Rows swept over a `jobs` param additionally get a derived
`speedup_vs_seq` report: each jobs != 1 cell's wall-clock mean compared
against the jobs = 1 cell sharing the bench and every other param —
the sequential-reference speedup of the sharded kernel. Any derived
speedup below 1.0 means adding workers made the simulation SLOWER than
the inline jobs = 1 reference; such rows are flagged as WARN lines and
the check exits nonzero. Pass --allow-slowdown when that is expected
(e.g. a single-hardware-thread machine, where every jobs > 1 run only
adds synchronization cost).

Usage:
    tools/check_bench_regression.py --baseline BENCH_simcore.json \
        --fresh fresh.jsonl [--threshold 1.25] [--allow-new] \
        [--allow-slowdown]
"""

import argparse
import json
import math
import sys

WALL_CLOCK_METRICS = ("ns_per_item", "ns_per_packet")


def load_rows(path):
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as err:
                raise SystemExit(
                    f"{path}:{line_number}: not JSON lines: {err}"
                )
    return rows


def cell_key(row):
    params = row.get("params", {})
    return (
        row.get("bench", "?"),
        tuple(sorted((str(k), str(v)) for k, v in params.items())),
    )


def wall_clock_means(row):
    """The comparable {metric: mean} subset of one row."""
    out = {}
    for name, stats in row.get("metrics", {}).items():
        if name in WALL_CLOCK_METRICS and "mean" in stats:
            out[name] = float(stats["mean"])
    return out


def noise_ratio(row, metric):
    """Baseline stddev/mean for one metric (0.0 when unavailable)."""
    stats = row.get("metrics", {}).get(metric, {})
    mean = float(stats.get("mean", 0) or 0)
    stddev = float(stats.get("stddev", 0) or 0)
    return stddev / mean if mean > 0 else 0.0


def latest_by_key(rows):
    """Most recent row per cell (trend files append, so last line wins)."""
    latest = {}
    for row in rows:
        latest[cell_key(row)] = row
    return latest


def format_key(key):
    bench, params = key
    rendered = " ".join(f"{k}={v}" for k, v in params)
    return f"{bench}[{rendered}]" if rendered else bench


def is_sequential(value):
    """True when a `jobs` param value names the jobs=1 reference cell."""
    try:
        return float(value) == 1.0
    except (TypeError, ValueError):
        return False


def speedup_rows(fresh):
    """Derive speedup_vs_seq: each jobs != 1 cell against the jobs = 1
    cell sharing the bench and every other param. Returns
    (cell name, metric, jobs, speedup) tuples."""
    by_rest = {}  # (bench, params sans jobs) -> {jobs value: row}
    for key, row in fresh.items():
        bench, params = key
        jobs = dict(params).get("jobs")
        if jobs is None:
            continue
        rest = tuple(kv for kv in params if kv[0] != "jobs")
        by_rest.setdefault((bench, rest), {})[jobs] = row
    out = []
    for (bench, rest), cells in sorted(by_rest.items()):
        seq = next((row for jobs, row in cells.items()
                    if is_sequential(jobs)), None)
        if seq is None:
            continue
        seq_means = wall_clock_means(seq)
        for jobs, row in sorted(cells.items(), key=lambda kv: kv[0]):
            if is_sequential(jobs):
                continue
            for metric, mean in wall_clock_means(row).items():
                if mean > 0 and seq_means.get(metric, 0) > 0:
                    out.append((format_key((bench, rest)), metric, jobs,
                                seq_means[metric] / mean))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="committed trend file (JSON lines)")
    parser.add_argument("--fresh", required=True,
                        help="freshly produced bench output (JSON lines)")
    parser.add_argument("--threshold", type=float, default=1.25,
                        help="fail ratio: fresh/baseline mean above this "
                             "is a regression (default 1.25 = +25%%)")
    parser.add_argument("--allow-new", action="store_true",
                        help="fresh cells missing from the baseline are "
                             "expected; list them but do not fail")
    parser.add_argument("--allow-slowdown", action="store_true",
                        help="derived speedup_vs_seq below 1.0 is "
                             "expected (e.g. single-core machines); "
                             "list such rows but do not fail")
    parser.add_argument("--noise-threshold", type=float, default=0.35,
                        help="skip gating a metric whose BASELINE "
                             "stddev/mean exceeds this (default 0.35): "
                             "a baseline that noisy cannot distinguish "
                             "a regression from a reroll. Skipped "
                             "metrics are listed as WARN lines — fix "
                             "the bench (more trials) rather than "
                             "raising this")
    args = parser.parse_args()

    baseline = latest_by_key(load_rows(args.baseline))
    fresh = latest_by_key(load_rows(args.fresh))
    if not fresh:
        print(f"FAIL: {args.fresh} has no rows: nothing to check")
        return 1

    compared = 0
    unmatched = []  # fresh cells with no baseline row
    noisy = []  # (cell name, metric, stddev/mean) skipped as ungateable
    per_cell = []  # (bench, cell name, metric, base, fresh, ratio)
    for key, fresh_row in sorted(fresh.items()):
        base_row = baseline.get(key)
        if base_row is None:
            # New cell: nothing to gate, but stay loud — a silently
            # skipped cell reads as "checked and fine" when it wasn't.
            unmatched.append(key)
            continue
        base_means = wall_clock_means(base_row)
        for metric, fresh_mean in wall_clock_means(fresh_row).items():
            base_mean = base_means.get(metric)
            if base_mean is None or base_mean <= 0:
                continue
            noise = noise_ratio(base_row, metric)
            if noise > args.noise_threshold:
                # A baseline this noisy gates nothing: any fresh draw
                # within its own scatter would trip (or mask) the
                # threshold. Skip it, loudly — silence would read as
                # "checked and fine".
                noisy.append((format_key(key), metric, noise))
                continue
            compared += 1
            per_cell.append((key[0], format_key(key), metric, base_mean,
                             fresh_mean, fresh_mean / base_mean))

    # Single sub-millisecond cells swing far more than 25% with machine
    # noise, and noise flips cells both ways while a real slowdown moves
    # a whole bench together — so the verdict is per-bench: the
    # geometric mean of the cell ratios must stay under the threshold.
    # Individual outlier cells are listed as context, not failures.
    by_bench = {}
    for bench, _, _, _, _, ratio in per_cell:
        by_bench.setdefault(bench, []).append(ratio)
    bench_ratio = {
        bench: math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        for bench, ratios in by_bench.items()
    }
    regressions = [(bench, ratio, len(by_bench[bench]))
                   for bench, ratio in sorted(bench_ratio.items())
                   if ratio > args.threshold]

    print(f"bench regression check: {compared} wall-clock metric(s) "
          f"across {len(by_bench)} bench(es), threshold "
          f"x{args.threshold:.2f} on the per-bench geometric mean")
    for bench, ratio in sorted(bench_ratio.items()):
        print(f"  {bench:<24} x{ratio:.2f} over {len(by_bench[bench])} "
              f"cell(s)")
    outliers = [c for c in per_cell if c[5] > args.threshold]
    if outliers:
        print()
        print("outlier cells (context, not gated individually):")
        for _, name, metric, base_mean, fresh_mean, ratio in outliers:
            print(f"  {name:<52} {metric:<14} {base_mean:>10.1f} -> "
                  f"{fresh_mean:>10.1f} {ratio:>6.2f}x")

    speedups = speedup_rows(fresh)
    slowdowns = []
    if speedups:
        print()
        print("speedup_vs_seq (derived from jobs=1 reference cells; "
              "rows below 1.0 fail\nunless --allow-slowdown):")
        for name, metric, jobs, speedup in speedups:
            print(f"  {name:<52} {metric:<14} jobs={jobs:<4} "
                  f"{speedup:>6.2f}x")
            if speedup < 1.0:
                slowdowns.append((name, metric, jobs, speedup))

    if slowdowns:
        print()
        for name, metric, jobs, speedup in slowdowns:
            print(f"WARN: {name} jobs={jobs} is SLOWER than the jobs=1 "
                  f"reference ({metric} speedup {speedup:.2f}x)")

    if noisy:
        print()
        for name, metric, noise in noisy:
            print(f"WARN: baseline for {name} {metric} is too noisy to "
                  f"gate (stddev/mean {noise:.2f} > "
                  f"{args.noise_threshold:.2f}); raise the bench's "
                  f"trial count and refresh the baseline")

    if unmatched:
        print()
        for key in unmatched:
            print(f"WARN: no baseline row for {format_key(key)}")
    print()

    status = 0
    if unmatched and not args.allow_new:
        print(f"FAIL: {len(unmatched)} fresh cell(s) have no baseline "
              f"row; append baselines to the committed file or pass "
              f"--allow-new if intentional")
        status = 1
    if slowdowns and not args.allow_slowdown:
        print(f"FAIL: {len(slowdowns)} jobs>1 cell(s) run slower than "
              f"their jobs=1 reference; the parallel kernel must not "
              f"lose to its own sequential mode — pass --allow-slowdown "
              f"if this machine cannot show a speedup (e.g. one core)")
        status = 1
    if not regressions:
        print("OK: no bench regressed beyond the threshold")
        return status

    for bench, ratio, cells in regressions:
        print(f"FAIL: {bench} regressed x{ratio:.2f} (geometric mean "
              f"over {cells} cell(s), threshold x{args.threshold:.2f})")
    print("if this slowdown is expected, refresh the baseline rows in "
          "the committed file")
    return 1


if __name__ == "__main__":
    sys.exit(main())
