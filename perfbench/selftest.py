#!/usr/bin/env python3
"""The benchmark's own test. Run from the repository root:

    python3 perfbench/selftest.py

Builds the driver (as run.py does) and checks that
  * island_mesh gives the same simulated fingerprint at jobs 1 and 2;
  * every workload's traced run reproduces the untraced fingerprint and
    passes its output checks;
  * malformed arguments exit with status 2 and a clear message instead of
    running with a silent default.
Exits nonzero when any check fails.
"""

import json
import pathlib
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import run  # noqa: E402

WORKLOADS = ["paper_flood", "flood_wide", "island_mesh", "damming_sweep"]


def drive(driver, *args):
    return subprocess.run([str(driver), *args], capture_output=True,
                          text=True, timeout=170)


def fingerprint(stdout):
    lines = [l for l in stdout.splitlines() if l.startswith("fingerprint:")]
    return lines[0].split(" rep=0 ", 1)[1] if lines else None


def main():
    driver = run.build(run.build_dir())
    if driver is None:
        print("selftest: build failed")
        return 1
    failures = []

    prints = {}
    for jobs in ("1", "2"):
        p = drive(driver, "--workload", "island_mesh", "--seed", "7",
                  "--reps", "1", "--trace", "0", "--jobs", jobs)
        if p.returncode != 0:
            failures.append(f"island_mesh jobs={jobs} exited {p.returncode}")
        prints[jobs] = fingerprint(p.stdout)
    if prints["1"] is None or prints["1"] != prints["2"]:
        failures.append(f"island_mesh fingerprint differs across jobs: "
                        f"{prints}")

    for workload in WORKLOADS:
        p = drive(driver, "--workload", workload, "--seed", "3", "--reps",
                  "1", "--trace", "1")
        result = json.loads(p.stdout.strip().splitlines()[-1])
        if p.returncode != 0 or not result["correct"]:
            failures.append(f"{workload} traced run failed:\n{p.stdout}")

    base = ["--workload", "paper_flood", "--seed", "1", "--seconds", "1",
            "--trace", "0"]
    bad = {
        "--seed": ["abc", "-1", "1x", " 1", "18446744073709551616", ""],
        "--seconds": ["0", "121", "ten"],
        "--trace": ["2", "yes"],
        "--workload": ["nope", "paper_flood "],
    }
    for flag, values in bad.items():
        for value in values:
            args = list(base)
            args[args.index(flag) + 1] = value
            p = drive(driver, *args)
            if p.returncode != 2 or "perfbench: error:" not in p.stderr:
                failures.append(f"{flag} {value!r}: exit {p.returncode}, "
                                f"stderr {p.stderr.strip()!r}")
    for args in (base + ["--jobs", "2"], base + ["--bogus", "1"],
                 base[:-1], ["--workload", "island_mesh", "--seed", "1",
                             "--seconds", "1", "--trace", "0", "--jobs",
                             "banana"]):
        p = drive(driver, *args)
        if p.returncode != 2:
            failures.append(f"{args}: exit {p.returncode}, expected 2")

    for f in failures:
        print("FAIL:", f)
    print("selftest:", "FAILED" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
