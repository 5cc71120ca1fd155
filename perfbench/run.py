#!/usr/bin/env python3
"""Build and run the perfbench driver.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures perfbench/CMakeLists.txt (which builds ../src) into
$CARGO_TARGET_DIR/perfbench, defaulting to .bench_build/perfbench, builds
it incrementally, then runs the driver with the given arguments. Build
output goes to stderr, so the driver's last stdout line (its JSON result)
stays the last line of this script's stdout. Exits with the driver's
status, or nonzero without a result when the build fails.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
DRIVER_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (ROOT / base / "perfbench").resolve()


def source_rev():
    """The git revision, or a digest of the sources when git is absent."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".hh", ".txt",
                                                  ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def build(out_dir):
    """Configure and build the driver; returns its path or None."""
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [["cmake", "-S", str(HERE), "-B", str(out_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out_dir), "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return None
    driver = out_dir / "perfbench_driver"
    return driver if driver.exists() else None


def main(argv):
    out_dir = build_dir()
    driver = build(out_dir)
    if driver is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    # The driver writes spans in traced runs only.
    args = [str(driver), *argv, "--rev", source_rev(),
            "--spans", str(out_dir / "spans.jsonl")]
    try:
        return subprocess.run(args, cwd=ROOT,
                              timeout=DRIVER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
