#!/usr/bin/env python3
"""Builds the perfbench program from this checkout and runs one workload.

    python3 perfbench/run.py --workload clean-shard --seed 20040315 \
        --seconds 15 --trace 0

The build goes to .bench_build/ at the checkout root (the first run
configures and compiles the p2pgen libraries, later runs only relink what
changed).  The workload runs in one process; its last line of standard
output is the JSON result.  Build output goes to .bench_build/build.log
and is shown on standard error only when the build fails.
"""
import argparse
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "perfbench"
WORKLOADS = ("clean-shard", "hostile-durable", "spool-replay")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    """Returns the program's path, or None when the build failed."""
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (CMAKE_DIR / "Makefile").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(CMAKE_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(CMAKE_DIR), "--target", "perfbench",
                  "-j", "2"])
    with open(log, "w") as out:
        for cmd in steps:
            try:
                code = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                out.write(f"\n{e}\n")
                code = 1
            if code != 0:
                out.flush()
                sys.stderr.write(log.read_text()[-4000:])
                return None
    return CMAKE_DIR / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20040315)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    program = build()
    if program is None:
        sys.stderr.write("perfbench: build failed\n")
        return 1
    cmd = [str(program), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(BUILD / "work")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: {args.workload} ran past {RUN_TIMEOUT_S} s\n")
        return 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
