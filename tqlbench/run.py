#!/usr/bin/env python3
"""Builds the end-to-end TQL benchmark from source and runs one workload.

Run from the repository root:

    python3 tqlbench/run.py --workload serve_warm --seed 1 --seconds 10 --trace 0

The first call configures and builds the tqp library and the benchmark into
.bench_build (or $CARGO_TARGET_DIR when set); later calls only rebuild what
changed. The benchmark's standard output is passed through: its last line
is the run's JSON result. Full run records, Chrome traces and per-layer
medians go to .bench_out/.

    python3 tqlbench/run.py --selftest

builds and runs the result checker's own tests instead.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir, target):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", target,
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def git_sha():
    # Only this checkout's own repository: never one that merely encloses it.
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv):
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if argv == ["--selftest"]:
        if not build(build_dir, "tqlbench_check_test"):
            return 2
        return subprocess.run(
            [os.path.join(build_dir, "tqlbench_check_test")]).returncode
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        sys.stderr.write("no program sources next to %s\n" % HERE)
        return 2
    if not build(build_dir, "tqlbench"):
        return 2
    cmd = [os.path.join(build_dir, "tqlbench")] + argv + [
        "--out", os.path.join(ROOT, ".bench_out"), "--git-sha", git_sha()]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
