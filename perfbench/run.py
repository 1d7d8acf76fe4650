#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload kv-write-s1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench (the wfd library from src/
plus the driver in perfbench/src/) in $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls only rebuild what changed. Build output
goes to stderr. The driver's stdout is relayed unchanged; its last line is
the JSON result. With --trace 1 the Chrome trace-event file is written next
to the binary. Exits non-zero, without a result line, when the build fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: the repository sources (CMakeLists.txt, src/) "
                 "are missing next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)

    if args.selftest:
        sys.exit(subprocess.run([binary, "--selftest"]).returncode)

    cmd = [binary, "--workload", args.workload, "--seconds", str(args.seconds),
           "--trace", args.trace]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.trace == "1":
        seed = "default" if args.seed is None else str(args.seed)
        cmd += ["--trace-file", os.path.join(
            build_dir, "trace-%s-seed%s.json" % (args.workload, seed))]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    lines = run.stdout.strip().splitlines()
    try:
        json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("perfbench: the driver printed no result line")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
