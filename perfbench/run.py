#!/usr/bin/env python3
"""Build the perfbench binary from source, then run it.

Run from anywhere; paths are resolved against the repository root (the
parent of this directory):

    python3 perfbench/run.py --workload mqo-paper --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seconds 10     # every workload + determinism
    python3 perfbench/run.py --smoke          # the benchmark's own smoke test

The binary is built with CMake (Release) into .bench_build/perfbench;
build output goes to stderr so the last line of stdout stays the result
JSON. Artifacts (with a machine fingerprint) go to .bench_build/artifacts.
Exits non-zero without a result when the build fails, e.g. when the
library sources under src/ are missing.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
ARTIFACT_DIR = os.path.join(ROOT, ".bench_build", "artifacts")


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def git_commit():
    """HEAD of the repository this directory belongs to, else 'unknown'."""
    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True)
    try:
        top = git("rev-parse", "--show-toplevel")
        if (top.returncode != 0 or os.path.realpath(top.stdout.strip())
                != os.path.realpath(ROOT)):
            return "unknown"
        head = git("rev-parse", "HEAD")
        return head.stdout.strip() if head.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.makedirs(ARTIFACT_DIR, exist_ok=True)
    binary = os.path.join(BUILD_DIR, "perfbench")
    command = [binary, *sys.argv[1:], "--artifact-dir", ARTIFACT_DIR,
               "--commit", git_commit()]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
