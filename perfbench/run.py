#!/usr/bin/env python3
"""Build and run the pdn3d end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload coopt|policy|serve --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest          # the benchmark's own tests
    python3 perfbench/run.py --record            # re-record reference.json

Each run configures and builds perfbench/ (a Release build of the library
from src/ plus the benchmark) under .bench_build/, then runs one workload.
The last line of standard output is the result object; build output goes to
standard error. Result and span files land in .bench_build/results/.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
RESULTS = BUILD / "results"
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no pdn3d sources at {ROOT / 'src'}; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    cache = (CMAKE_DIR / "CMakeCache.txt").read_text()
    if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in cache:
        fail(f"{CMAKE_DIR} was configured from another source tree; remove it and rerun")
    if "CMAKE_BUILD_TYPE:STRING=Release\n" not in cache:
        fail(f"{CMAKE_DIR} is not a Release build; remove it and rerun")
    subprocess.run(["cmake", "--build", str(CMAKE_DIR), "-j", jobs,
                    "--target", "perfbench", "perfbench_selftest"],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=["coopt", "policy", "serve"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if "PDN3D_FAULTS" in os.environ:
        fail("refusing to run with PDN3D_FAULTS set: injected faults are not the program")
    if not (args.selftest or args.record) and None in (args.workload, args.seed, args.seconds):
        parser.error("--workload, --seed and --seconds are required")

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")

    if args.selftest:
        cmd = [str(CMAKE_DIR / "perfbench_selftest")]
    elif args.record:
        cmd = [str(CMAKE_DIR / "perfbench"), "--record", str(REFERENCE)]
    else:
        cmd = [str(CMAKE_DIR / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--reference", str(REFERENCE),
               "--metrics", str(SPEC),
               "--out", str(RESULTS)]
    try:
        return subprocess.run(cmd, timeout=None if args.record else RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
