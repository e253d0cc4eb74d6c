#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark (a CMake project in this directory that compiles
the tarpit sources from ../src) into .bench_build/perfbench, then runs
one workload in its own process and relays its result line.

    python3 perfbench/run.py --workload hot_get --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Build output goes to
.bench_build/perfbench.log; the run's report goes to stderr. Database
files and Chrome traces go under .bench_out/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
LOG = os.path.join(ROOT, ".bench_build", "perfbench.log")
OUT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds; returns True on success."""
    os.makedirs(os.path.dirname(BUILD), exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(LOG, "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                sys.stderr.write("build failed: %s (see %s)\n"
                                 % (" ".join(cmd), LOG))
                return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not args.selftest and not args.workload:
        p.error("--workload is required")
    if not build():
        return 1
    if args.selftest:
        return subprocess.call([os.path.join(BUILD, "perfbench_selftest")])

    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench timed out after %d s\n" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write("perfbench exited with %d\n" % proc.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write("perfbench printed no result line\n")
        return 1
    for line in lines[:-1]:
        sys.stderr.write(line + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
