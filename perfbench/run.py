#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see perfbench/README.md).

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload flow_sweep --seed 1 --seconds 20 \
        --trace 0

The first run configures and builds perfbench/ (which compiles ../src) in
Release mode under $CARGO_TARGET_DIR, or .bench_build when that is unset;
later runs only check the build is current. Build output goes to stderr,
so the last stdout line is the benchmark's JSON result. Extra arguments
(--max-ops, --expected, --out-dir, ...) are passed to the binary.
"""

import argparse
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def cached_source_dir(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        return None
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def build(root):
    source = os.path.join(root, "perfbench")
    target_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target_root, "perfbench")
    # A build tree configured for another checkout path cannot be reused.
    cached = cached_source_dir(build_dir)
    if cached is not None and \
            os.path.realpath(cached) != os.path.realpath(source):
        shutil.rmtree(build_dir)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if cached_source_dir(build_dir) is None:
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "gap_e2e",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            return None
    return os.path.join(build_dir, "gap_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["flow_sweep", "serve_eco", "serve_report"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args, extra = parser.parse_known_args()

    root = os.getcwd()
    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, needed)):
            return fail("run from the root of a full checkout: %s is missing"
                        % needed)
    try:
        binary = build(root)
    except subprocess.TimeoutExpired:
        return fail("build timed out")
    if binary is None:
        return fail("build failed")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace] + extra
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return fail("benchmark timed out")
    sys.stdout.write(done.stdout.decode("utf-8", errors="replace"))
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
