"""Command-line entry point: run experiments, emit metrics and summaries."""
from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import transport
from .config import ConfigError, build_experiment, load_plan, seed_value
from .data import DegenerateFeatureError
from .heuristics import MetricsRow, run_heuristic, run_scaling_sweep, scale_split
from .nn import gradcheck_suite, init_model
from .partition import CapacityError, split_manifest, stratified_split


def write_metrics_csv(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MetricsRow._fields)
        writer.writerows(rows)  # None as an empty field, a float as its repr


def _summary_dict(cfg, result) -> dict:
    return {
        "seed": cfg.seed,
        "train_accuracy": result.train_accuracy,
        "validation_accuracy": result.validation_accuracy,
        "test_accuracy": result.test_accuracy,
        "test_top_k": result.test_top_k,
        "top_k": cfg.top_k,
        "epochs": result.metrics[-1].global_epoch,
        "transfers": result.transfers,
        "optimizer_steps": result.optimizer_steps,
    }


def _mean_std(vals, prefix: str = "") -> dict:
    return {prefix + "mean": statistics.fmean(vals),
            prefix + "std": statistics.pstdev(vals) if len(vals) > 1 else 0.0}


def _aggregate(summaries) -> dict:
    return {"seeds": [s["seed"] for s in summaries],
            **{key: _mean_std([s[key] for s in summaries])
               for key in ("train_accuracy", "validation_accuracy", "test_accuracy")}}


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _prepare(args):
    """Load the plan and apply the command line to it, build the dataset and
    the split, scale its cohorts and build one model (not for `partition`),
    and make the output directory with split_manifest.json in it. Every
    check comes first, a size too large to allocate among them."""
    plan = load_plan(args.config)
    kind = plan.heuristic.kind
    if args.command == "run" and kind == "sweep":
        raise ConfigError("use the `sweep` subcommand for sweep configs")
    if args.command == "sweep" and kind != "sweep":
        raise ConfigError(f"heuristic.kind: the `sweep` subcommand needs kind: sweep, got "
                          f"{kind!r}; use the `run` subcommand")
    if args.output_dir == "":
        raise ConfigError("--output-dir: must name a directory, got ''")
    if args.output_dir is not None:
        plan = replace(plan, output_dir=args.output_dir)
    if args.command != "partition":
        if args.seed_override is not None:
            plan = replace(plan, seeds=(seed_value(args.seed_override, "--seed-override"),))
        if args.freq is not None:
            if kind not in ("cyclical", "sweep"):
                raise ConfigError(f"--freq: read by kinds cyclical and sweep only, not {kind}")
            try:
                plan = replace(plan, heuristic=replace(plan.heuristic, frequency=args.freq))
            except ValueError as exc:
                raise ConfigError(f"--freq: {exc}") from exc
        if args.transport:
            plan = replace(plan, base_config=replace(plan.base_config,
                                                     transport=args.transport))
    try:
        dataset, base_cfg = build_experiment(plan)
    except MemoryError as exc:
        raise ConfigError(f"dataset: {exc}") from exc
    split = stratified_split(dataset, plan.split_plan)
    try:
        scaled = scale_split(split, kind) if args.command != "partition" else None
    except DegenerateFeatureError as exc:
        raise ConfigError(f"split: {exc}") from exc
    try:
        if args.command != "partition":
            init_model(base_cfg.model_specs, base_cfg.optimizer, np.random.default_rng(0))
    except (MemoryError, ValueError) as exc:  # ValueError: past numpy's largest array
        raise ConfigError(f"model: {exc}") from exc
    outdir = Path(plan.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "split_manifest.json", split_manifest(split))
    return plan, base_cfg, scaled, outdir


def cmd_run(args) -> int:
    plan, base_cfg, split, outdir = _prepare(args)
    heuristic = plan.heuristic
    summaries = []
    for seed in plan.seeds:
        cfg = replace(base_cfg, seed=seed)
        try:
            result = run_heuristic(cfg, split, heuristic.kind,
                                   institution=heuristic.institution,
                                   frequency=heuristic.frequency)
        except Exception as exc:
            print(f"error: heuristic {heuristic.kind!r} failed at seed {seed}: {exc}",
                  file=sys.stderr)
            return 1
        write_metrics_csv(outdir / f"metrics_seed{seed}.csv", result.metrics)
        summary = _summary_dict(cfg, result)
        _write_json(outdir / f"summary_seed{seed}.json", summary)
        summaries.append(summary)
        print(f"seed {seed}: train {result.train_accuracy:.4f} "
              f"val {result.validation_accuracy:.4f} test {result.test_accuracy:.4f}")
    agg = _aggregate(summaries)
    _write_json(outdir / "aggregate.json", agg)
    print(f"test accuracy over {len(plan.seeds)} seed(s): "
          f"{agg['test_accuracy']['mean']:.4f} +/- {agg['test_accuracy']['std']:.4f}")
    return 0


def cmd_sweep(args) -> int:
    plan, base_cfg, split, outdir = _prepare(args)
    heuristic, seeds = plan.heuristic, plan.seeds
    per_seed = {}
    for seed in seeds:
        cfg = replace(base_cfg, seed=seed)
        try:
            rows = run_scaling_sweep(cfg, split, heuristic.m_values, freq=heuristic.frequency)
        except Exception as exc:
            print(f"error: sweep failed at seed {seed}: {exc}", file=sys.stderr)
            return 1
        per_seed[seed] = dict(rows)
    table = []
    for m in heuristic.m_values:
        table.append({"m": m, **_mean_std([per_seed[s][m] for s in seeds], "test_accuracy_")})
        print(f"m={m}: {table[-1]['test_accuracy_mean']:.4f} "
              f"+/- {table[-1]['test_accuracy_std']:.4f}")
    _write_json(outdir / "sweep.json",
                {"seeds": list(seeds), "frequency": heuristic.frequency, "curve": table})
    return 0


def cmd_gradcheck(args) -> int:
    """Finite-difference check over every layer kind and both heads."""
    if args.seeds < 1:
        raise ConfigError(f"--seeds: must be >= 1, got {args.seeds}")
    if not 0 < args.tolerance < float("inf"):
        raise ConfigError(f"--tolerance: must be finite and > 0, got {args.tolerance!r}")
    worst = gradcheck_suite(n_seeds=args.seeds)
    ok = worst < args.tolerance
    print(f"gradcheck: max relative error {worst:.3e} over {args.seeds} seeds "
          f"({'PASS' if ok else 'FAIL'}, tolerance {args.tolerance:g})")
    return 0 if ok else 1


def cmd_partition(args) -> int:
    outdir = _prepare(args)[-1]
    print(f"wrote {outdir / 'split_manifest.json'}")
    return 0


def cmd_inspect(args) -> int:
    data = Path(args.packet).read_bytes()
    meta = transport.read_meta(data)
    print(f"format_version: {meta.format_version}")
    print(f"arch_hash: {meta.arch_hash:#018x}")
    print(f"global_epoch: {meta.global_epoch}")
    print(f"origin_institution: {meta.origin}")
    print(f"optimizer_state: {meta.opt_kind or 'none'}")
    print(f"payload_tensors: {meta.payload_tensors}")
    print(f"bytes: {len(data)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedcycle",
        description="Simulate collaborative training heuristics over patient silos.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("config", help="experiment YAML/JSON file")
        p.add_argument("--seed-override", type=int, default=None)
        p.add_argument("--output-dir", default=None)
        p.add_argument("--transport", choices=list(transport.CHANNELS), default=None)
        p.add_argument("--freq", type=int, default=None,
                       help="override weight-transfer frequency")

    p_run = sub.add_parser("run", help="run the configured heuristic per seed")
    add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="institution-count scaling sweep")
    add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_gc = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p_gc.add_argument("--seeds", type=int, default=20)
    p_gc.add_argument("--tolerance", type=float, default=1e-4)
    p_gc.set_defaults(func=cmd_gradcheck)

    p_part = sub.add_parser("partition", help="emit the split manifest only")
    p_part.add_argument("config")
    p_part.add_argument("--output-dir", default=None)
    p_part.set_defaults(func=cmd_partition)

    p_ins = sub.add_parser("inspect", help="print .fwt packet header fields")
    p_ins.add_argument("packet")
    p_ins.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except transport.TransportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
