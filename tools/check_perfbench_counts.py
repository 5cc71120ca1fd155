#!/usr/bin/env python3
"""Gate perfbench's machine-independent work counts exactly.

Usage (from the repository root):

    python3 tools/check_perfbench_counts.py            # compare
    python3 tools/check_perfbench_counts.py --update   # re-pin

Builds the perfbench driver the way perfbench/run.py does (incrementally,
so after `perfbench/selftest.py` it is already built), runs every workload
below with `--seed 1 --reps 3 --trace 1`, and compares each gated metric
and the seed-1 fingerprint with the values pinned in
tools/perfbench_counts.json. Every count-unit metric is gated, and so is
every ratio metric except the wall-derived ones named in EXCLUDED: these
are pure functions of the seed, so any difference is a change in the
work the simulator does. A mismatch names the workload and the metric.

A change that moves a count on purpose re-pins with --update once and
gives the old and new values, with the reason, in CHANGES.md.

Exit status: 0 when every value matches, 1 on a mismatch, 2 when the
driver cannot be built or run.
"""

import argparse
import json
import pathlib
import subprocess
import sys

sys.dont_write_bytecode = True
ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import run  # noqa: E402

PINNED = ROOT / "tools" / "perfbench_counts.json"
WORKLOADS = ["flood_wide", "island_mesh", "damming_sweep", "paper_flood"]
DRIVER_ARGS = ["--seed", "1", "--reps", "3", "--trace", "1"]

# Ratio metrics that divide by wall time; they differ run to run.
EXCLUDED = {
    "simcore.busy_mean": "worker busy time over round wall time",
    "trace.wall_ratio": "traced over untraced wall time",
}


def gated(name, unit):
    return unit == "count" or (unit == "ratio" and name not in EXCLUDED)


def measure(driver, workload):
    """Gated metrics and fingerprint of one workload, or None."""
    p = subprocess.run([str(driver), "--workload", workload, *DRIVER_ARGS],
                       cwd=ROOT, capture_output=True, text=True,
                       timeout=run.DRIVER_TIMEOUT_S)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        print(f"{workload}: driver exited {p.returncode}\n{p.stderr}")
        return None
    result = json.loads(lines[-1])
    prints = [l.split(" rep=0 ", 1)[1] for l in lines
              if l.startswith("fingerprint:")]
    counts = {name: m["value"] for name, m in result["metrics"].items()
              if gated(name, m["unit"])}
    return {"fingerprint": prints[0] if prints else None,
            "failed": result["failed"], "metrics": counts}


def compare(workload, want, got):
    """Mismatch messages for one workload."""
    bad = []
    for key in ("fingerprint", "failed"):
        if got[key] != want[key]:
            bad.append(f"{workload} {key}: pinned {want[key]}, "
                       f"got {got[key]}")
    for name in sorted(set(want["metrics"]) | set(got["metrics"])):
        old = want["metrics"].get(name)
        new = got["metrics"].get(name)
        if old != new:
            bad.append(f"{workload} {name}: pinned {old}, got {new}")
    return bad


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite tools/perfbench_counts.json")
    args = parser.parse_args()

    driver = run.build(run.build_dir())
    if driver is None:
        print("check_perfbench_counts: build failed")
        return 2
    measured = {}
    for workload in WORKLOADS:
        got = measure(driver, workload)
        if got is None:
            return 2
        measured[workload] = got

    if args.update:
        PINNED.write_text(json.dumps(
            {"driver_args": DRIVER_ARGS, "excluded": sorted(EXCLUDED),
             "workloads": measured}, indent=2, sort_keys=True) + "\n")
        print(f"check_perfbench_counts: pinned {PINNED.name}")
        return 0

    pinned = json.loads(PINNED.read_text())["workloads"]
    mismatches = []
    for workload in WORKLOADS:
        mismatches += compare(workload, pinned[workload], measured[workload])
    for m in mismatches:
        print("MISMATCH:", m)
    print("excluded (wall-derived):", ", ".join(sorted(EXCLUDED)))
    print("check_perfbench_counts:",
          f"{len(mismatches)} mismatches" if mismatches
          else "all counts match")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
