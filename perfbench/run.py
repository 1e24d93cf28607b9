#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload fig2_sweep|heavy_solve|gangd_open \
        --seed N --seconds S --trace 0|1

Builds the gangsched libraries from ./src and the perfbench harness with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
then runs the harness with the same arguments. The harness prints its
result as the last line of stdout; this script passes it through and
exits with the harness's status.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    log = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log, "w") as out:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            rc = subprocess.call(
                ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"] + gen,
                stdout=out, stderr=subprocess.STDOUT)
            if rc != 0:
                fail("cmake configure failed; see " + log)
        rc = subprocess.call(
            ["cmake", "--build", build_dir, "--target", "perfbench",
             "-j", "4"],
            stdout=out, stderr=subprocess.STDOUT)
        if rc != 0:
            fail("build failed; see " + log)
    return os.path.join(build_dir, "perfbench")


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    binary = build(os.path.join(target, "perfbench"))
    proc = subprocess.run([binary] + sys.argv[1:], cwd=ROOT)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
