#!/usr/bin/env python3
"""Builds the whole-run benchmark from source and runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR (default .bench_build): a Release
build of ../src plus the benchmark runner, configured and brought up to
date on every call (a no-op once built). Build output goes to stderr, so
the last line of stdout is the runner's JSON result. The runner then
replaces this process; its exit code is the run's exit code.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TARGET = "edgstr_wholerun"


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", TARGET, "-j", jobs],
    ]
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            print(f"run.py: build step failed ({result.returncode}): {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        return 1
    binary = os.path.join(build_dir, TARGET)
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
