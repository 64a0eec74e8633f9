#!/usr/bin/env python3
"""Build and run the COkNN end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload <oneshot_rw|fleet_batch|fleet_ticks> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark binary (Release) under .bench_build/ in the checkout,
runs it from the checkout root, and passes its standard output through: the
last line is the JSON result.  Build logs go to standard error.  Exits non-zero,
without a result line, when the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "coknn_perfbench")

# A run ends well inside the 180 s every invocation is allowed.
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds the binary; True on success."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
        if configure.returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    result = subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "coknn_perfbench",
         "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
    return result.returncode == 0


def run_binary(args, timeout=RUN_TIMEOUT_S):
    """Runs the built binary from the checkout root; returns the process."""
    return subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                          cwd=ROOT, timeout=timeout, text=True)


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        proc = run_binary(sys.argv[1:])
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
