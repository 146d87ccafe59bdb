#!/usr/bin/env python3
"""Build and run Gamma's end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper-study --seed 42 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds the program's libraries and the
benchmark into .bench_build/ (build output goes to stderr); later calls only
re-check the build. Each run gets a fresh temporary directory under
.bench_build/ for its stores, shards and journal, removed when the run ends.
The benchmark prints one JSON result object as the last line of stdout.
"""

import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no Gamma sources next to the benchmark; nothing to build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def main(argv):
    if "--self-test" in argv:
        return subprocess.run([build("perfbench_selftest")]).returncode
    binary = build("perfbench")
    os.makedirs(BUILD, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=BUILD)
    try:
        return subprocess.run([binary, *argv, "--tmp-dir", tmp],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
