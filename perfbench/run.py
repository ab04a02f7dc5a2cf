#!/usr/bin/env python3
"""Build and run the pup benchmark.

    python3 perfbench/run.py --workload fig4_pack --seed 1 --seconds 10 --trace 0

Run from the repository root.  Configures and builds perfbench/ (the
library sources in src/ plus the driver) into .bench_build/pup, a no-op
once built, then runs the driver with the given arguments.  Build output
goes to stderr; the driver's stdout passes through unchanged, so its last
line is the JSON result.  The exit code is the driver's.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "pup")
FORBIDDEN_ENV = ("PUP_THREADS", "PUP_BACKEND", "PUP_SIMD", "PUP_FAULTS",
                 "PUP_RECOVERY", "PUP_RELIABLE")


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found in src/; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "pup_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd), 1)
    return os.path.join(BUILD, "pup_bench")


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    for var in FORBIDDEN_ENV:
        if var in os.environ:
            fail("refusing to run with %s set; the benchmark fixes the "
                 "machine configuration itself" % var)
    binary = build()
    env = dict(os.environ, PERFBENCH_GIT_COMMIT=git_commit())
    sys.stdout.flush()
    sys.exit(subprocess.run([binary] + sys.argv[1:], cwd=ROOT,
                            env=env).returncode)


if __name__ == "__main__":
    main()
