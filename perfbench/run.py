#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload shared|distinct --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark and the platform library are
built from source with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), the benchmark's unit tests run, then the benchmark
itself. Build output goes to stderr; the last stdout line is the benchmark's
JSON result. The exit code is non-zero when the build, a unit test or an
output check fails. See perfbench/METRICS.md.
"""
import argparse
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


def build(build_dir: pathlib.Path) -> bool:
    configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", str(build_dir), "-j", "4"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["shared", "distinct"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    if not build(build_dir):
        return 1
    if subprocess.run([str(build_dir / "perfbench_test")], stdout=sys.stderr,
                      stderr=sys.stderr).returncode != 0:
        print("perfbench: unit tests failed", file=sys.stderr)
        return 1
    # A relative run directory keeps the Unix socket path short wherever the
    # checkout lives.
    run_dir = os.path.relpath(build_dir / "run", ROOT)
    cmd = [str(build_dir / "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--dir", run_dir]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
