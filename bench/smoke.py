"""Smoke test of the benchmark itself; takes about ten seconds.

Usage (from the root of a checkout): ``python3 bench/smoke.py``

Checks that BENCHMARK.json names the workloads of bench/workloads.py, then
runs every workload at ``--tiny`` size with ``--trace 0`` and ``--trace 1`` and
checks each result line: its keys, that it is correct with no failed run,
and that its metrics are exactly the declared ``end_to_end`` or
``per_layer`` ones, with the declared units. Last, it checks that the
harness refuses to run where there is no program to measure. Exits 0 when
everything holds.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def check_spec(spec: dict) -> list:
    if [w["name"] for w in spec["workloads"]] != list(workloads.NAMES):
        return ["workload names differ from bench/workloads.py"]
    return []


def check_result(stdout: str, declared: dict) -> list:
    lines = stdout.strip().splitlines()
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return [f"last line is not JSON: {lines[-1][:200]}"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"correct={result['correct']} failed={result['failed']} "
                      f"attempted={result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        errors.append(f"metric names differ: missing {sorted(set(declared) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(declared))}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{name}: value {value!r} is not a finite number")
        if name in declared and entry.get("unit") != declared[name]:
            errors.append(f"{name}: unit {entry.get('unit')!r}, declared {declared[name]!r}")
    return errors


def bench_args(name: str, trace: int) -> list:
    return ["--workload", name, "--seed", "7", "--seconds", "1", "--trace", str(trace)]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = [f"BENCHMARK.json: {e}" for e in check_spec(spec)]
    declared = {0: {e["name"]: e["unit"] for e in spec["end_to_end"]},
                1: {e["name"]: e["unit"] for e in spec["per_layer"]}}
    for name in workloads.NAMES:
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--tiny",
                                   *bench_args(name, trace)],
                                  capture_output=True, text=True, timeout=180)
            errors = check_result(proc.stdout, declared[trace])
            if proc.returncode != 0:
                errors.append(f"exit code {proc.returncode}: {proc.stderr[-500:]}")
            failures += [f"{name} --trace {trace}: {e}" for e in errors]
            print(f"{name} --trace {trace}: {'ok' if not errors else 'FAILED'}")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "bench/run.py", *bench_args(workloads.NAMES[0], 0)],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("harness ran, or printed a result, without the program present")
    print(f"without the program: {'refused' if proc.returncode else 'NOT refused'}")

    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
