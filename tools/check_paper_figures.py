#!/usr/bin/env python3
"""Pin the paper's tables and figures: one digest per bench cell.

Usage:

    python3 tools/check_paper_figures.py --cli build/tools/odp_bench_cli
    python3 tools/check_paper_figures.py --cli ... --update     # re-pin
    python3 tools/check_paper_figures.py --rows smoke.jsonl

With --cli, runs the 16 paper benches (`table1`, `fig*`, `ablation_*`)
with `--quick --jobs 4 --json` and compares every row with
tools/paper_figures_golden.json; every pinned cell must be present. With
--rows, checks the rows of an existing `--json` file instead: the file
must not be empty, and each bench it names must carry all its pinned
cells and match them.

The golden stores one SHA-256 per (bench, section, cell), taken over the
row's trials, params and metrics with every number rounded to 12
significant digits, so a last-ulp libm difference does not fail it. A
mismatch names the bench, the section and the cell. A change that moves
a figure on purpose re-pins once with --update and gives the reason in
CHANGES.md.

Exit status: 0 when every cell matches, 1 on a mismatch, 2 when the CLI
cannot be run or the rows cannot be read.
"""

import argparse
import hashlib
import json
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tools" / "paper_figures_golden.json"
FILTER = "table1,fig*,ablation_*"
DIGITS = 12


def canonical(value):
    """@p value with every number as a 12-significant-digit string."""
    if isinstance(value, dict):
        return {k: canonical(v) for k, v in value.items()}
    if isinstance(value, list):
        return [canonical(v) for v in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return format(float(value), f".{DIGITS}g")
    return value


def digest(row):
    body = {k: row[k] for k in ("trials", "params", "metrics")}
    text = json.dumps(canonical(body), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def digests(path):
    """{bench: {section: {cell: sha256}}} of the rows in @p path."""
    out = {}
    with open(path) as f:
        for n, line in enumerate(f, 1):
            if not line.strip():
                continue
            row = json.loads(line)
            cells = out.setdefault(row["bench"], {}).setdefault(
                row["section"], {})
            cell = str(row["cell"])
            if cell in cells:
                raise ValueError(f"line {n}: duplicate cell "
                                 f"{row['bench']}/{row['section']}/{cell}")
            cells[cell] = digest(row)
    return out


def run_cli(cli, out):
    p = subprocess.run([str(cli), "--filter", FILTER, "--quick", "--jobs",
                        "4", "--json", str(out)],
                       capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        print(f"{cli} exited {p.returncode}\n{p.stderr}")
        return False
    return True


def compare(want, got, benches):
    """Mismatch messages for @p benches."""
    bad = []
    for bench in sorted(benches):
        pinned = want.get(bench, {})
        fresh = got.get(bench, {})
        for section in sorted(set(pinned) | set(fresh)):
            old = pinned.get(section, {})
            new = fresh.get(section, {})
            for cell in sorted(set(old) | set(new), key=int):
                where = f"{bench} section {section} cell {cell}"
                if cell not in new:
                    bad.append(f"{where}: pinned but missing")
                elif cell not in old:
                    bad.append(f"{where}: not pinned")
                elif old[cell] != new[cell]:
                    bad.append(f"{where}: digest {new[cell][:12]} "
                               f"!= pinned {old[cell][:12]}")
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    src = ap.add_argument_group("rows").add_mutually_exclusive_group(
        required=True)
    src.add_argument("--cli", help="odp_bench_cli binary to run")
    src.add_argument("--rows", help="existing odp_bench_cli --json file")
    ap.add_argument("--update", action="store_true",
                    help="re-pin the golden from a --cli run")
    args = ap.parse_args()
    if args.update and not args.cli:
        ap.error("--update needs --cli: the golden pins every paper bench")

    with tempfile.TemporaryDirectory() as tmp:
        rows = args.rows
        if args.cli:
            rows = pathlib.Path(tmp) / "figures.jsonl"
            if not run_cli(args.cli, rows):
                return 2
        try:
            got = digests(rows)
        except (OSError, ValueError, KeyError) as e:
            print(f"cannot read rows: {e}")
            return 2

    cells = sum(len(c) for s in got.values() for c in s.values())
    if args.update:
        GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"pinned {cells} cells of {len(got)} benches in {GOLDEN}")
        return 0
    if cells == 0:
        print(f"{rows}: no rows")
        return 1

    want = json.loads(GOLDEN.read_text())
    benches = set(want) | set(got) if args.cli else set(got)
    bad = compare(want, got, benches)
    for line in bad:
        print(line)
    if bad:
        print(f"FAIL: {len(bad)} cell(s) differ from {GOLDEN.name}; "
              "re-pin with --update only for an intended change")
        return 1
    print(f"OK: {cells} cells of {len(got)} benches match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
