#!/usr/bin/env python3
"""Layer-ladder benchmark entry point.

Builds the mcsn library and the perfbench driver from source (Release, into
.bench_build/ at the repository root), then runs one workload:

    python3 perfbench/run.py --workload engine_flat --seed 1 --seconds 10 --trace 0

Workloads: engine_flat, wire_open (see perfbench/README.md). Run it from the
repository root. The last line of standard output is the result JSON; build
logs go to standard error. Full result records and the traced run's spans
land in .bench_build/perfbench-out/.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("engine_flat", "wire_open")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = os.path.join(".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# A run must end within 180 s; the measured part is --seconds of that.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir(os.path.join("src", "mcsn"))):
        fail("run from the repository root: the library sources (CMakeLists.txt, src/mcsn) are missing")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4", "--target", "perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace"))
            fail("build step failed: " + " ".join(cmd))


def commit_id():
    """The git commit when there is one, else a digest of the library sources."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=10, check=False)
        if head.returncode == 0:
            return head.stdout.decode().strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for root, dirs, files in os.walk("src"):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in 1..60")

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id(), "--out-dir", OUT_DIR]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
