#!/usr/bin/env python3
"""Smoke test of the repository benchmark at a tiny horizon.

    python3 perfbench/smoke_test.py

Run from the repository root. For every workload in BENCHMARK.json it runs
perfbench/run.py once untraced and twice traced, at 5% of the simulated
horizons with one measured second, and checks that

  * each run exits 0 and reports correct = true with no failed checks;
  * the untraced run prints exactly the end-to-end metrics and the traced run
    exactly the per-layer metrics named in BENCHMARK.json, each with its unit;
  * every count metric (core.decide_calls, sim.vehicle_steps, detect.samples,
    surrogate.calibrate_evals, exp.runs, ...) is the same in both traced runs.

Exits 1 and names the failure when any check does not hold.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
SCALE = "0.05"


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--scale", SCALE],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n"
                             f"{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(label, result, expected):
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        raise AssertionError(f"{label}: checks did not pass: {result}")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in expected}
    if printed != wanted:
        raise AssertionError(f"{label}: metrics differ from BENCHMARK.json\n"
                             f"  missing or wrong unit: {sorted(set(wanted.items()) - set(printed.items()))}\n"
                             f"  unexpected: {sorted(set(printed.items()) - set(wanted.items()))}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    for workload in (w["name"] for w in spec["workloads"]):
        check_metrics(f"{workload} untraced", run(workload, 0), spec["end_to_end"])
        first, second = run(workload, 1), run(workload, 1)
        for label, result in (("traced #1", first), ("traced #2", second)):
            check_metrics(f"{workload} {label}", result, spec["per_layer"])
        for name in counts:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                raise AssertionError(f"{workload}: count {name} differs: {a} vs {b}")
        print(f"ok {workload}", flush=True)
    print("perfbench smoke test passed")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print(f"FAIL: {e}", file=sys.stderr)
        sys.exit(1)
