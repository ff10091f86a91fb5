#!/usr/bin/env python3
"""Repository benchmark: builds the Corral libraries from src/ with the
benchmark program in this directory, then runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench.cpp): planner, testbed, fabric, ctrl. The build goes
to $CARGO_TARGET_DIR (default .bench_build) under the checkout root and is
reused by later runs. Build output goes to stderr. The last stdout line is
one JSON object with the keys correct, attempted, failed and metrics:
with --trace 0 the end-to-end metrics, with --trace 1 the per-layer ones.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("planner", "testbed", "fabric", "ctrl")
PROGRAM = "corral_perfbench"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no Corral sources under " + os.path.join(ROOT, "src"))
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", PROGRAM, "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, PROGRAM)


def main():
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    try:
        program = build()
    except (OSError, subprocess.CalledProcessError) as error:
        fail("build failed: %s" % error)
    run = subprocess.run(
        [program, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail("benchmark program exited with %d" % run.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        fail("benchmark program printed an unexpected result: " + lines[-1])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
