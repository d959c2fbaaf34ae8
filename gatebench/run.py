#!/usr/bin/env python3
"""Gate benchmark entry point: builds the benchmark from source, then runs it.

    python3 gatebench/run.py --workload commit-stream|race-stream|incident-ingest \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The gatebench binary and the LISA libraries
are built from ../src into .bench_build/gatebench (Release). Each run writes its
journal and ledger files into a fresh directory under .bench_build and
removes it afterwards. Timed figures are calibrated to a nominal host speed
(gatebench/host.hpp); the uncalibrated ones are printed too. The last line of
standard output is the result JSON; build output goes to standard error.
"""
import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "gatebench")
WORKLOADS = ("commit-stream", "race-stream", "incident-ingest")
BUILD_TIMEOUT_S = 850
# Whole rounds plus the traced passes overrun --seconds; stay under 180 s.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("gatebench: no LISA sources at %s" % os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "gatebench", "-j", "3"])
    for step in steps:
        subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "gatebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as error:
        sys.exit("gatebench: build failed: %s" % error)
    workdir = tempfile.mkdtemp(prefix="run-", dir=BUILD_ROOT)
    try:
        sys.stdout.flush()
        result = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace, "--workdir", workdir],
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("gatebench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
