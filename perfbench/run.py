#!/usr/bin/env python3
"""Builds perfbench from this checkout and runs one workload.

    python3 perfbench/run.py --workload skyline_olap --seed 1 --seconds 20 --trace 0

Run from the repository root. The library and the driver are built with
CMake into .bench_build (or $CARGO_TARGET_DIR when set, relative to the
root); build output goes to stderr. The driver's last stdout line, one JSON
object, is passed through as this script's last line. Exits non-zero,
printing no result, when the checkout has no sources to build.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("skyline_olap", "small_sql", "serve_mixed")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("no CMakeLists.txt and src/ at " + ROOT + "; nothing to build")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"]
        )
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(build_dir)
    spans_dir = os.path.join(build_dir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--spans", os.path.join(spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed)),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=170)
    except subprocess.TimeoutExpired:
        fail("run exceeded 170 s")
    out = done.stdout.decode()
    sys.stdout.write(out)
    sys.stdout.flush()
    if done.returncode != 0 or not out.strip():
        fail("perfbench exited with code %d" % done.returncode)


if __name__ == "__main__":
    main()
