#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the harness (perfbench/CMakeLists.txt:
the top-level project's abp library plus perfbench.cpp, Release) into
.bench_build/perfbench, then runs it. Build output goes to stderr; the
harness's stdout passes through unchanged, and its last line is the result
JSON. With --trace 1 the Chrome trace-event file of the first traced repeat
is written to .bench_build/perfbench/trace-<workload>.json.

Exits 2 without a result when the library sources or the build are missing,
and with the harness's status otherwise (1 when an output check failed).
"""
import argparse
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "abp_perfbench"
WORKLOADS = ("dense8x8_micro", "metro64_micro", "sweep3x3_surrogate", "incident16_queue")
# Upper bound on one harness run; the contract allows 180 s per run.
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures once, then (re)builds incrementally; False on failure."""
    if not (ROOT / "src" / "sim" / "simulator.hpp").is_file():
        log(f"library sources not found under {ROOT / 'src'}")
        return False
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(SOURCE_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", BUILD_JOBS])
    for step in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(step))
            return False
    return BINARY.is_file()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every simulated horizon (smoke tests)")
    args = parser.parse_args()

    if not build():
        return 2
    command = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", str(args.scale)]
    if args.trace:
        command += ["--trace-out", str(BUILD_DIR / f"trace-{args.workload}.json")]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the harness.
        log(f"harness exceeded {RUN_TIMEOUT_S} s")
        return 1


if __name__ == "__main__":
    sys.exit(main())
