#!/usr/bin/env python3
"""Builds the sensor benchmark from this checkout and runs one workload.

    python3 sensorbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: bulk-http, screened-binary, live-churn.  The build (CMake,
Release) lives in .bench_build/sensorbench and is incremental, so only the
first run in a checkout compiles.  Build output goes to stderr: the last
line on stdout is the benchmark's JSON result.  A traced run (--trace 1)
also writes its span log to .bench_build/sensorbench/spans-<workload>.tsv.
The exit code is the benchmark's (nonzero when a correctness check failed
or the build did not succeed).
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "sensorbench")
BUILD = os.path.join(ROOT, ".bench_build", "sensorbench")
BINARY = os.path.join(BUILD, "sensorbench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True, stdout=sys.stderr)


def option(args, name):
    if name in args and args.index(name) + 1 < len(args):
        return args[args.index(name) + 1]
    return None


def main():
    args = sys.argv[1:]
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    command = [BINARY] + args
    workload = option(args, "--workload")
    if option(args, "--trace") == "1" and workload and "--spans" not in args:
        command += ["--spans", os.path.join(BUILD, f"spans-{workload}.tsv")]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
