"""Experiment file parsing: YAML (or JSON) -> validated experiment plan."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import yaml

from .data import Dataset, gen_synthetic, load_csv
from .heuristics import ExperimentConfig, mlp_specs
from .nn import OptimizerConfig
from .partition import SplitPlan
from .schedule import ExpDecayPolicy, PlateauPolicy


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class HeuristicSection:
    kind: str                 # single | central | ensemble | single_transfer | cyclical | sweep
    frequency: int = 1
    institution: int = 0
    m_values: tuple = ()


@dataclass(frozen=True)
class ExperimentPlan:
    dataset: dict
    split_plan: SplitPlan
    heuristic: HeuristicSection
    base_config: ExperimentConfig  # seed overwritten per run
    model_shape: dict
    seeds: tuple
    output_dir: str


def _section(doc: dict, name: str, required: bool = True) -> dict:
    if name not in doc:
        if required:
            raise ConfigError(f"missing section {name!r}")
        return {}
    val = doc[name]
    if not isinstance(val, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    return dict(val)


def _take(section: dict, where: str, key: str, default=None, required: bool = False):
    if key not in section:
        if required:
            raise ConfigError(f"{where}: missing key {key!r}")
        return default
    return section.pop(key)

def _reject_unknown(section: dict, where: str):
    if section:
        raise ConfigError(f"{where}: unknown key(s): {', '.join(sorted(section))}")


def build_dataset(section: dict) -> Dataset:
    sec = dict(section)
    kind = _take(sec, "dataset", "kind", required=True)
    if kind == "csv":
        path = _take(sec, "dataset", "path", required=True)
        _reject_unknown(sec, "dataset")
        return load_csv(path)
    if kind not in ("rings", "blobs"):
        raise ConfigError(f"dataset.kind: unknown kind {kind!r}")
    args = {
        "n_patients": _take(sec, "dataset", "n_patients", required=True),
        "samples_per_patient": _take(sec, "dataset", "samples_per_patient", 2),
        "num_classes": _take(sec, "dataset", "num_classes", 2),
        "noise_rate": _take(sec, "dataset", "noise_rate", 0.0),
        "feature_dim": _take(sec, "dataset", "feature_dim", 2),
    }
    optional = {}
    for key in ("patient_spread", "sample_jitter", "ring_gap", "blob_radius"):
        if key in sec:
            optional[key] = sec.pop(key)
    seed = _take(sec, "dataset", "seed", 0)
    _reject_unknown(sec, "dataset")
    rng = np.random.default_rng([int(seed), 2])
    return gen_synthetic(kind, rng=rng, **args, **optional)


def load_plan(path) -> ExperimentPlan:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    doc = dict(doc)

    dataset_sec = _section(doc, "dataset")

    split_sec = _section(doc, "split")
    split_plan = SplitPlan(
        k=_take(split_sec, "split", "k", required=True),
        patients_per_institution=_take(split_sec, "split", "patients_per_institution",
                                       required=True),
        patients_validation=_take(split_sec, "split", "patients_validation", required=True),
        patients_test=_take(split_sec, "split", "patients_test", required=True),
        seed=_take(split_sec, "split", "seed", 0),
    )
    _reject_unknown(split_sec, "split")

    model_sec = _section(doc, "model")
    hidden = _take(model_sec, "model", "hidden", [32, 32])
    batchnorm = _take(model_sec, "model", "batchnorm", False)
    dropout = float(_take(model_sec, "model", "dropout", 0.0))
    _reject_unknown(model_sec, "model")

    opt_sec = _section(doc, "optimizer")
    optimizer = OptimizerConfig(
        kind=_take(opt_sec, "optimizer", "kind", "sgd-momentum"),
        learning_rate=float(_take(opt_sec, "optimizer", "learning_rate", required=True)),
        momentum=float(_take(opt_sec, "optimizer", "momentum", 0.9)),
        beta1=float(_take(opt_sec, "optimizer", "beta1", 0.9)),
        beta2=float(_take(opt_sec, "optimizer", "beta2", 0.999)),
        epsilon=float(_take(opt_sec, "optimizer", "epsilon", 1e-8)),
        l2_coeff=float(_take(opt_sec, "optimizer", "l2", 0.0)),
    )
    _reject_unknown(opt_sec, "optimizer")

    sched_sec = _section(doc, "schedule")
    plateau = PlateauPolicy(
        patience=_take(sched_sec, "schedule", "patience", 20),
        decay_factor=float(_take(sched_sec, "schedule", "decay_factor", 0.25)),
        max_decays=_take(sched_sec, "schedule", "max_decays", 3),
    )
    exp_decay = None
    if _take(sched_sec, "schedule", "kind", "plateau") == "exp":
        exp_decay = ExpDecayPolicy(
            decay_per_period=float(_take(sched_sec, "schedule", "decay", 0.99)),
            period=_take(sched_sec, "schedule", "period", 1),
        )
    else:
        _take(sched_sec, "schedule", "decay", None)
        _take(sched_sec, "schedule", "period", None)
    _reject_unknown(sched_sec, "schedule")

    train_sec = _section(doc, "training", required=False)
    batch_size = _take(train_sec, "training", "batch_size", 32)
    augment_sigma = float(_take(train_sec, "training", "augment_sigma", 0.0))
    carry = _take(train_sec, "training", "carry_optimizer_state", True)
    if not isinstance(carry, bool):
        raise ConfigError("training.carry_optimizer_state: must be true or false, "
                          f"got {carry!r}")
    top_k = _take(train_sec, "training", "top_k", 1)
    max_epochs = _take(train_sec, "training", "max_epochs", 5000)
    _reject_unknown(train_sec, "training")

    heur_sec = _section(doc, "heuristic")
    kind = _take(heur_sec, "heuristic", "kind", required=True)
    if kind not in ("single", "central", "ensemble", "single_transfer",
                    "cyclical", "sweep"):
        raise ConfigError(f"heuristic.kind: unknown kind {kind!r}")
    heuristic = HeuristicSection(
        kind=kind,
        frequency=_take(heur_sec, "heuristic", "frequency", 1),
        institution=_take(heur_sec, "heuristic", "institution", 0),
        m_values=tuple(_take(heur_sec, "heuristic", "m_values", []) or []),
    )
    _reject_unknown(heur_sec, "heuristic")
    if heuristic.kind == "sweep" and not heuristic.m_values:
        raise ConfigError("heuristic.m_values: required for sweep runs")

    seeds = doc.pop("seeds", [0])
    if not isinstance(seeds, list) or not seeds or \
            not all(isinstance(s, int) for s in seeds):
        raise ConfigError("seeds: must be a non-empty list of integers")
    output_dir = doc.pop("output_dir", "out")
    doc.pop("dataset"); doc.pop("split"); doc.pop("model")
    doc.pop("optimizer"); doc.pop("schedule"); doc.pop("training", None)
    doc.pop("heuristic")
    _reject_unknown(doc, "top level")

    # feature_dim / num_classes come from the dataset section for synthetic
    # data; for CSV they are resolved after loading (see build_experiment).
    base = ExperimentConfig(
        model_specs=[],  # filled in build_experiment
        optimizer=optimizer,
        plateau=plateau,
        batch_size=batch_size,
        augment_sigma=augment_sigma,
        seed=int(seeds[0]),
        carry_opt_state=carry,
        exp_decay=exp_decay,
        top_k=top_k,
        max_epochs=max_epochs,
    )
    return ExperimentPlan(
        dataset=dataset_sec,
        split_plan=split_plan,
        heuristic=heuristic,
        base_config=base,
        model_shape={"hidden": list(hidden), "batchnorm": bool(batchnorm),
                     "dropout": dropout},
        seeds=tuple(int(s) for s in seeds),
        output_dir=str(output_dir),
    )


def build_experiment(plan: ExperimentPlan):
    """Materialize the dataset and fill in the model specs."""
    from dataclasses import replace

    dataset = build_dataset(plan.dataset)
    shape = plan.model_shape
    specs = mlp_specs(dataset.feature_dim, shape["hidden"], dataset.num_classes,
                      batchnorm=shape["batchnorm"], dropout=shape["dropout"])
    cfg = replace(plan.base_config, model_specs=specs)
    return dataset, cfg
