#!/usr/bin/env python3
"""Build and run the paqocd benchmark.

Run from the root of a paqoc checkout:

    python3 perfbench/run.py --workload grape_cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench (and paqocd with it)
under .bench_build/; later calls only re-check the build. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON
result. Exits non-zero without a result when the directory is not a
paqoc checkout or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

SOURCE = "perfbench"
BUILD = os.path.join(".bench_build", "perfbench")
WORKDIR = os.path.join(".bench_build", "run")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(targets):
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        fail("run from the root of a paqoc checkout (no CMakeLists.txt/src here)")
    if not os.path.isfile(os.path.join(SOURCE, "CMakeLists.txt")):
        fail("perfbench/CMakeLists.txt is missing")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def paqocd_path():
    return os.path.join(BUILD, "paqoc", "tools", "paqocd")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests, "
                             "a smoke run of every workload included")
    args = parser.parse_args()

    if args.self_test:
        build(["perfbench_selftest"])
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode)
    if not args.workload:
        parser.error("--workload is required")

    build(["perfbench"])
    cmd = [os.path.join(BUILD, "perfbench"), "--paqocd", paqocd_path(),
           "--workdir", WORKDIR, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
