#!/usr/bin/env python3
"""Serving benchmark of the xsum fleet: one command per workload.

    python3 perfbench/run.py --workload hot-read|cold-sweep|refresh \\
        --seed N --seconds S --trace 0|1

Run from the repository root. Every call configures and builds the
benchmark package (perfbench/CMakeLists.txt: the xsum library from src/
plus the serving benchmark and its self-tests) into .bench_build/perfbench,
incrementally after the first. Every call runs the self-tests, then
the benchmark (perfbench/serving.cpp), whose report goes to stdout and
whose last stdout line is the JSON result. Build output goes to stderr. The exit
status is nonzero, with no result printed, when the build, a self-test or
the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "service",
                                       "shard_router.h")):
        fail("the xsum sources (src/) are not next to perfbench/")
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs, "--target",
              "perfbench_serving", "perfbench_selftest"]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    if subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                      stdout=sys.stderr).returncode != 0:
        fail("self-tests failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["hot-read", "cold-sweep", "refresh"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    build()
    command = [os.path.join(BUILD, "perfbench_serving"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", BUILD]
    with subprocess.Popen(command) as bench:
        try:
            code = bench.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            bench.kill()
            bench.wait()
            fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
