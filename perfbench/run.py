#!/usr/bin/env python3
"""Builds the benchmark from source, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload build --seed 1 --seconds 10 --trace 0

The first run configures and compiles an optimized build in .bench_build/
(compilation counts in no metric); later runs only check that it is up to
date. The workload's result is the last line of standard output.

    python3 perfbench/run.py --self-test

builds and runs the benchmark's own tests instead, which show that every
output check trips on a corrupted value.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(BUILD, "work")
# A run must end within 180 seconds; the build is not counted in this.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "flowcube", "builder.h")):
        sys.exit("perfbench: no library sources under %s" %
                 os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        # Build output goes to stderr so that stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build step failed: %s" % " ".join(step))


def main(argv):
    # The environment must not change the work done: every FLOWCUBE_* knob
    # (threads, counting backend, SIMD level, checkpoint format, mmap,
    # metrics dumps) is cleared for the benchmark process.
    env = {k: v for k, v in os.environ.items() if not k.startswith("FLOWCUBE_")}
    if argv == ["--self-test"]:
        build()
        return subprocess.run([os.path.join(BUILD, "perfbench_check_test")],
                              env=env, timeout=RUN_TIMEOUT_S).returncode
    build()
    os.makedirs(WORK, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench")] + argv + ["--work-dir", WORK]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: the run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
