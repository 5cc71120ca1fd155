#!/usr/bin/env python3
"""The bench regression checker must fail on a fresh file with no rows.

Usage: check_bench_regression_test.py PATH/TO/check_bench_regression.py

A bench that cannot write its output leaves the fresh file empty; the
checker used to print OK for it, so a "jobs=4 must beat jobs=1" gate
passed without checking anything. Also runs a one-row fresh file against
a matching baseline, which must pass, so the empty case fails for its
emptiness and not for some other reason.
"""

import pathlib
import subprocess
import sys
import tempfile

ROW = ('{"bench":"b","section":"s","cell":0,"trials":1,"params":{"jobs":1},'
       '"metrics":{"ns_per_item":{"mean":100,"min":100,"max":100,'
       '"stddev":0,"count":1}}}\n')


def run(checker, baseline, fresh):
    return subprocess.run([sys.executable, checker, "--baseline",
                           str(baseline), "--fresh", str(fresh)],
                          capture_output=True, text=True, timeout=60)


def main(argv):
    checker = argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        base = pathlib.Path(tmp) / "baseline.jsonl"
        base.write_text(ROW)
        empty = pathlib.Path(tmp) / "empty.jsonl"
        empty.write_text("")
        one = pathlib.Path(tmp) / "one.jsonl"
        one.write_text(ROW)

        failures = 0
        out = run(checker, base, empty)
        if out.returncode == 0 or "no rows" not in out.stdout:
            print(f"empty fresh file: exit {out.returncode}\n{out.stdout}"
                  f"{out.stderr}")
            failures += 1
        out = run(checker, base, one)
        if out.returncode != 0:
            print(f"one matching row: exit {out.returncode}\n{out.stdout}"
                  f"{out.stderr}")
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
