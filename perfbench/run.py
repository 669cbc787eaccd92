#!/usr/bin/env python3
"""Builds the perfbench program from source and runs one benchmark workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: paper_sweep, fleet_ideal, fleet_contended, cache_replay (see
perfbench/README.md). The first run configures and builds the iotsim library
and the perfbench program in Release mode under .bench_build/perfbench; later runs only
rebuild what changed. Build output goes to stderr; the last line of stdout is
the program's JSON result. Exits non-zero, without a result, when the library
sources are missing or the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
BINARY = os.path.join(BUILD, "perfbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def cpus():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def run_quiet(cmd):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found at %s/src; run from a full checkout" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found on PATH")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        shutil.rmtree(BUILD, ignore_errors=True)
        if not run_quiet(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]):
            fail("cmake configure failed")
    if not run_quiet(["cmake", "--build", BUILD, "--target", "perfbench", "-j", str(cpus())]):
        fail("build failed")


def main():
    build()
    os.makedirs(WORK, exist_ok=True)
    cmd = [BINARY] + sys.argv[1:] + ["--work-dir", WORK]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
