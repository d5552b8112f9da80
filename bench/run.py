"""fedcycle benchmark harness.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition of the workload is a fresh single interpreter (bench/child.py)
with BLAS pinned to one thread; repetitions run one after another while the
next one should still end within ``--seconds`` of the harness's start, which
every spawn is charged against. With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics (medians over
repetitions); with ``--trace 1`` three plain and one traced repetition run,
and the JSON holds the per-layer metrics of the traced one. Every run's
outputs are checked; a run that fails a check counts in ``failed``. The full
record, machine included, goes to ``.bench_out/<workload>/result.json``.
``--tiny`` shrinks the workload to seconds, for bench/smoke.py.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEADLINE_S = 170
PLAIN_REPS_TRACED = 3
E2E_UNITS = {"setup_s": "s", "run_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name == "transport.bytes":
        return "B"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith(".share"):
        return "fraction"
    return "count"


def tail(values):
    """Median plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered)}
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            out[f"p{p:g}"] = spans.percentile(ordered, p)
            break
    return out


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def epochs_consistent(rows, summary_epochs: int, kind: str, k: int) -> bool:
    """One metrics row per epoch, numbered from 1. An ensemble writes one
    block per member and its summary counts the last member's epochs."""
    epochs = [int(r["global_epoch"]) for r in rows]
    blocks = []
    for e in epochs:
        if e == 1:
            blocks.append(0)
        if not blocks or e != blocks[-1] + 1:
            return False
        blocks[-1] = e
    expected_blocks = k if kind == "ensemble" else 1
    return len(blocks) == expected_blocks and blocks[-1] == summary_epochs


class Harness:
    def __init__(self, workload: workloads.Workload, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.reps = []            # every spawned repetition, for the record
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.canonical_sha = {}   # (kind, seed) -> metrics CSV sha256
        self.configs = {}
        for inv in workload.runs + workload.reference:
            path = workdir / f"{inv.kind}.json"
            path.write_text(json.dumps(inv.doc, indent=1), encoding="utf-8")
            self.configs[inv.kind] = path

    def spawn(self, mode: str, invocations) -> dict:
        """Run one repetition in a fresh interpreter and check its outputs."""
        rep_dir = self.workdir / f"{len(self.reps) + 1:03d}-{mode}"
        rep_dir.mkdir()
        job = {"mode": mode, "result": str(rep_dir / "result.json"),
               "spans": str(rep_dir / "spans.json"),
               "runs": [{"config": str(self.configs[inv.kind]),
                         "output_dir": str(rep_dir / inv.kind),
                         "transport": inv.transport} for inv in invocations]}
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_PIN)
        job["spawn_ns"] = time.monotonic_ns()
        (rep_dir / "job.json").write_text(json.dumps(job), encoding="utf-8")
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(rep_dir / "child.log", "wb") as log:
            try:
                code = subprocess.run([sys.executable, str(BENCH / "child.py"),
                                       str(rep_dir / "job.json")], env=env, stdout=log,
                                      stderr=subprocess.STDOUT, timeout=timeout).returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
        result_path = rep_dir / "result.json"
        rep = json.loads(result_path.read_text()) if code == 0 and result_path.exists() else {}
        rep.update(mode=mode, returncode=code, dir=str(rep_dir), runs=[])
        if code != 0:
            self.problems.append(f"{rep_dir.name}: child exited with {code}, see child.log")
        if mode != "setup":
            self._check_runs(rep, invocations, rep_dir)
        elif rep.get("setup_s") is None:
            self.problems.append(f"{rep_dir.name}: set-up probe reported no time")
        blas_threads = rep.get("software", {}).get("blas_threads")
        if code == 0 and blas_threads != 1:
            self._fail_rep(rep, f"BLAS reports {blas_threads} threads, not the pinned 1")
        self.reps.append(rep)
        return rep

    def _check_runs(self, rep: dict, invocations, rep_dir: Path) -> None:
        exit_codes = rep.get("exit_codes", [])
        for i, inv in enumerate(invocations):
            for seed in inv.seeds:
                self.attempted += 1
                if i >= len(exit_codes) or exit_codes[i] != 0:
                    why = "fedcycle run did not exit cleanly"
                else:
                    why = self._check_run(inv, seed, rep_dir / inv.kind, rep)
                if why:
                    self.failed += 1
                    self.problems.append(f"{rep_dir.name}: {inv.kind} seed {seed}: {why}")
                    rep["runs"].append({"kind": inv.kind, "seed": seed, "ok": False})
        if rep["returncode"] == 0 and len(rep["run_s"]) != len(rep["runs"]):
            self._fail_rep(rep, "run_heuristic call count differs from runs attempted")

    def _check_run(self, inv, seed: int, outdir: Path, rep: dict) -> str | None:
        """Check one run's outputs and add it to ``rep``; returns why it failed."""
        csv_path = outdir / f"metrics_seed{seed}.csv"
        summary_path = outdir / f"summary_seed{seed}.json"
        if not (csv_path.exists() and summary_path.exists()):
            return "metrics CSV or summary missing"
        summary = json.loads(summary_path.read_text())
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if not epochs_consistent(rows, summary["epochs"], inv.kind, inv.doc["split"]["k"]):
            return f"summary epochs {summary['epochs']} do not match the {len(rows)} metric rows"
        digest = sha256(csv_path)
        if self.canonical_sha.setdefault((inv.kind, seed), digest) != digest:
            return (f"metrics CSV ({inv.transport}) differs from the first run of "
                    f"this workload and seed")
        rep["runs"].append({"kind": inv.kind, "transport": inv.transport, "seed": seed,
                            "ok": True, "csv_sha256": digest, "rows": len(rows),
                            "test_accuracy": summary["test_accuracy"],
                            "optimizer_steps": summary["optimizer_steps"],
                            "transfers": summary["transfers"]})
        return None

    def _fail_rep(self, rep: dict, why: str) -> None:
        self.problems.append(f"{Path(rep['dir']).name}: {why}")
        for run in rep["runs"]:
            if run["ok"]:
                run["ok"] = False
                self.failed += 1

    def check_counts(self, rep: dict, layer: dict) -> None:
        """Exact counts of the traced run against the run's own outputs."""
        runs = rep["runs"]
        packet_bytes = rep.get("packet_bytes", [])
        expected = {
            "nn.opt_step.calls": sum(r.get("optimizer_steps", 0) for r in runs),
            "transport.channel_handoff.calls": sum(r.get("transfers", 0) for r in runs),
            "heuristics.run_heuristic.calls": len(runs),
        }
        if len(packet_bytes) == len(runs):
            expected["transport.bytes"] = sum(r.get("transfers", 0) * b
                                              for r, b in zip(runs, packet_bytes))
        else:
            self._fail_rep(rep, "packet size missing for some runs")
        for name, want in expected.items():
            if layer.get(name) != want:
                self._fail_rep(rep, f"{name} = {layer.get(name)}, outputs say {want}")


def machine(seed: int, software: dict) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": model, "platform": platform.platform(),
            "python": software.get("python"), "numpy": software.get("numpy"),
            "blas": software.get("blas"), "blas_threads": software.get("blas_threads"),
            "blas_pin": BLAS_PIN, "workload_seed": seed}


def end_to_end(reps) -> tuple[dict, dict]:
    """Medians over the fully passing repetitions; each repetition gives one
    sample of set-up time, of the wall time of all its runs and of peak RSS."""
    samples = {"setup_s": [r["setup_s"] for r in reps],
               "run_s": [sum(r["run_s"]) for r in reps],
               "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
               "run_heuristic_s": [t for r in reps for t in r["run_s"]]}
    report = {name: tail(values) for name, values in samples.items() if values}
    if not reps:
        return {}, report
    run_s = report["run_s"]["median"]
    steps = sum(run["optimizer_steps"] for run in reps[0]["runs"])
    metrics = {"setup_s": report["setup_s"]["median"], "run_s": run_s,
               "steps_per_s": steps / run_s, "peak_rss_mb": report["peak_rss_mb"]["median"]}
    return metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="seconds-long smoke size")
    args = parser.parse_args(argv)
    start = time.monotonic()
    # Exit through SystemExit on SIGTERM, so subprocess.run kills and reaps a running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "fedcycle" / "cli.py").is_file():
        print(f"error: no fedcycle sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    workload = workloads.build(args.workload, args.seed, tiny=args.tiny)
    workdir = OUT / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    h = Harness(workload, workdir, start + DEADLINE_S)

    h.spawn("setup", workload.runs)  # warm-up: bytecode and file caches
    for inv in workload.reference:    # first, so its CSVs are the ones compared against
        h.spawn("run", (inv,))
    reps, began = [], time.monotonic()
    while True:
        reps.append(h.spawn("run", workload.runs))
        per_rep = (time.monotonic() - began) / len(reps)
        if args.trace and len(reps) == PLAIN_REPS_TRACED:
            break
        if not args.trace and time.monotonic() + per_rep > start + args.seconds:
            break
    if args.trace:
        traced = h.spawn("trace", workload.runs)

    good = [r for r in reps if r["returncode"] == 0 and r["runs"]
            and all(run["ok"] for run in r["runs"])]
    metrics, report = end_to_end(good)
    units = E2E_UNITS
    if args.trace:
        layer = {}
        if traced["returncode"] == 0 and good:
            traced_run_s = sum(traced["run_s"])
            dump = json.loads(Path(traced["dir"], "spans.json").read_text())
            layer = spans.summarize(dump, traced_run_s)
            layer["trace.run_s"] = traced_run_s
            layer["trace.overhead_s"] = traced_run_s - metrics["run_s"]
            h.check_counts(traced, layer)
        metrics = layer
        units = {name: per_layer_unit(name) for name in spans.METRICS}

    software = next((r["software"] for r in h.reps if "software" in r), {})
    accuracies = [run["test_accuracy"] for r in h.reps for run in r["runs"] if run["ok"]]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny,
              "machine": machine(args.seed, software), "timings": report,
              "mean_test_accuracy": statistics.fmean(accuracies) if accuracies else None,
              "metrics_csv_sha256": {f"{kind} seed {seed}": digest
                                     for (kind, seed), digest in h.canonical_sha.items()},
              "attempted": h.attempted, "failed": h.failed, "problems": h.problems,
              "repetitions": h.reps, "metrics": metrics,
              "wall_s": time.monotonic() - start}
    (workdir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"{args.workload} seed {args.seed} on {record['machine']['cpu_model']}, "
          f"{record['machine']['nproc']} CPUs, BLAS threads {software.get('blas_threads')}")
    for name, stats in report.items():
        extra = ", ".join(f"{k} {v:.6g}" for k, v in stats.items() if k.startswith("p"))
        print(f"{name}: median {stats['median']:.6g} over n={stats['n']}"
              + (f", {extra}" if extra else ", too few samples for a tail percentile"))
    if not args.trace:
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_runs: {h.failed} of {h.attempted} attempted; "
          f"mean test accuracy {record['mean_test_accuracy']}")
    for problem in h.problems:
        print(f"problem: {problem}")
    correct = not h.problems and set(metrics) >= set(units)
    print(json.dumps({"correct": correct, "attempted": h.attempted, "failed": h.failed,
                      "metrics": {name: {"value": metrics[name], "unit": units[name]}
                                  for name in units if name in metrics}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
