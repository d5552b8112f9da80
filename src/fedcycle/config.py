"""Experiment file parsing: YAML (or JSON) -> validated experiment plan.

Each section is read against the signature of the dataclass or function it
feeds, which names the section's keys and gives their types and defaults.
"""
from __future__ import annotations

import inspect
import re
import sys
from collections.abc import Hashable
from dataclasses import dataclass, replace
from typing import Literal, get_args, get_origin

import numpy as np
import yaml

from .data import Dataset, gen_synthetic, load_csv
from .heuristics import PLANS, ExperimentConfig
from .nn import OptimizerConfig, mlp_specs
from .partition import SplitPlan
from .schedule import ExpDecayPolicy, PlateauPolicy

# The config key of each parameter whose key is not its name; None marks a
# parameter that no experiment file sets (the CLI's --transport sets it).
_KEYS = {"l2_coeff": "l2", "carry_opt_state": "carry_optimizer_state", "transport": None}
# Per section, each key that only one of its kinds reads, and that kind; any other refuses it.
_ONLY = {"optimizer": {"momentum": "sgd-momentum", "beta1": "adam", "beta2": "adam",
                       "epsilon": "adam"},
         "schedule": {"decay": "exp", "period": "exp"},
         "heuristic": {"institution": "single", "m_values": "sweep"}}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class HeuristicSection:
    kind: str                 # a key of heuristics.PLANS, or sweep
    frequency: int = 1
    institution: int = 0
    m_values: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in (*PLANS, "sweep"):
            raise ValueError(f"kind must be one of {', '.join((*PLANS, 'sweep'))}, "
                             f"got {self.kind!r}")
        if self.frequency < 1:
            raise ValueError("frequency must be >= 1")
        if self.kind == "sweep" and not self.m_values:
            raise ValueError("m_values is required for sweep runs")


@dataclass(frozen=True)
class ExperimentPlan:
    dataset: dict
    split_plan: SplitPlan
    heuristic: HeuristicSection
    base_config: ExperimentConfig  # seed overwritten per run
    model_shape: dict
    seeds: tuple
    output_dir: str


def _check(value, ann, where: str):
    """``value`` as the annotated type: an int passes as a float, a float
    only if finite, and a bool only as a bool. Raises ConfigError naming
    ``where`` otherwise."""
    origin = get_origin(ann)
    if origin in (list, tuple):
        if isinstance(value, list):
            return origin(_check(v, get_args(ann)[0], f"{where}[{i}]")
                          for i, v in enumerate(value))
        ann = f"a list of {get_args(ann)[0].__name__}"
    elif origin is Literal:
        if value in get_args(ann):
            return value
        ann = " or ".join(map(repr, get_args(ann)))
    elif ann is float and type(value) in (int, float):
        if abs(value) <= sys.float_info.max:  # not NaN, ±inf or an int beyond float
            return float(value)
        raise ConfigError(f"{where}: must be finite, got {value!r}")
    elif isinstance(value, ann) and (ann is bool or not isinstance(value, bool)):
        return value
    raise ConfigError(f"{where}: expected {getattr(ann, '__name__', ann)}, got {value!r}")


def _read(target, section: dict, where: str, **fixed):
    """Call ``target`` with the keys of ``section``, named, typed and defaulted
    by its signature; ``fixed`` arguments are passed as given and are not keys."""
    at = f"{where}." if where else ""
    keys = {_KEYS.get(name, name): p
            for name, p in inspect.signature(target, eval_str=True).parameters.items()
            if name not in fixed and _KEYS.get(name, name)}
    unknown = sorted(map(str, set(section) - set(keys)))
    if unknown:
        raise ConfigError(f"{where or 'top level'}: unknown key(s): {', '.join(unknown)}")
    args = dict(fixed)
    for key, p in keys.items():
        if key in section:
            args[p.name] = _check(section[key], p.annotation, at + key)
        elif p.default is p.empty:
            raise ConfigError(f"{at}{key}: required key is missing")
    try:
        return target(**args)
    except ValueError as exc:
        # an error that starts with a parameter's name is about that key
        msg = str(exc)
        for key, p in keys.items():
            if msg.startswith(p.name + " "):
                raise ConfigError(f"{at}{key}: {msg[len(p.name) + 1:]}") from exc
        raise ConfigError(f"{where}: {msg}" if where else msg) from exc


def seed_value(value, where: str) -> int:
    seed = _check(value, int, where)
    if seed < 0:
        raise ConfigError(f"{where}: must be >= 0, got {seed}")
    return seed


def _model(hidden: list[int] = (32, 32), batchnorm: bool = False,
           dropout: float = 0.0) -> dict:
    mlp_specs(1, hidden, 2, batchnorm=batchnorm, dropout=dropout)  # checks widths and rate
    return {"hidden": list(hidden), "batchnorm": batchnorm, "dropout": dropout}


def _schedule(kind: Literal["plateau", "exp"] = "plateau", patience: int = 20,
              decay_factor: float = 0.25, max_decays: int = 3, decay: float = 0.99,
              period: int = 1):
    """The plateau policy, and the exponential decay that overrides it if ``kind`` is exp."""
    plateau = PlateauPolicy(patience, decay_factor, max_decays)
    return plateau, ExpDecayPolicy(decay, period) if kind == "exp" else None


def _plan(dataset: dict, split: dict, model: dict, optimizer: dict, schedule: dict,
          heuristic: dict, training: dict = {}, seeds: list[int] = (0,),
          output_dir: str = "out") -> ExperimentPlan:
    """The top level of an experiment file: one argument per section."""
    split_plan = _read(SplitPlan, split, "split")
    heur = _read(HeuristicSection, heuristic, "heuristic")
    k = split_plan.k
    if not all(1 <= m <= k for m in heur.m_values):
        raise ConfigError(f"heuristic.m_values: each must be in 1..{k} (split.k)")
    if heur.kind == "single" and not 0 <= heur.institution < k:
        raise ConfigError(f"heuristic.institution: must be in 0..{k - 1} (split.k - 1)")
    if not seeds:
        raise ConfigError("seeds: must be a non-empty list of integers")
    for i, seed in enumerate(seeds):
        seed_value(seed, f"seeds[{i}]")
    for key, each, values in (("heuristic.m_values", "m", heur.m_values),
                              ("seeds", "seed", seeds)):
        if len(set(values)) != len(values):
            raise ConfigError(f"{key}: each {each} may appear only once, got {list(values)}")
    if not output_dir:
        raise ConfigError("output_dir: must name a directory, got ''")
    if dataset.get("kind") != "csv":
        seed_value(dataset.get("seed", 0), "dataset.seed")
    plateau, exp_decay = _read(_schedule, schedule, "schedule")
    opt = _read(OptimizerConfig, {"kind": "sgd-momentum", **optimizer}, "optimizer")
    for where, section, kind in (("optimizer", optimizer, opt.kind),
                                 ("schedule", schedule, schedule.get("kind", "plateau")),
                                 ("heuristic", heuristic, heur.kind)):
        for key, only in _ONLY[where].items():
            if key in section and kind != only:
                raise ConfigError(f"{where}.{key}: read by kind {only} only, not {kind}")
    # model_specs depend on the dataset and are filled in build_experiment.
    base = _read(ExperimentConfig, training, "training", model_specs=[], optimizer=opt,
                 plateau=plateau, exp_decay=exp_decay, seed=seeds[0])
    return ExperimentPlan(dataset=dataset, split_plan=split_plan, heuristic=heur,
                          base_config=base, model_shape=_read(_model, model, "model"),
                          seeds=tuple(seeds), output_dir=output_dir)


def build_dataset(section: dict) -> Dataset:
    if section.get("kind") == "csv":
        return _read(load_csv, {k: v for k, v in section.items() if k != "kind"}, "dataset")
    seed = seed_value(section.get("seed", 0), "dataset.seed")
    return _read(gen_synthetic, {k: v for k, v in section.items() if k != "seed"},
                 "dataset", rng=np.random.default_rng([seed, 2]))


def load_plan(path) -> ExperimentPlan:
    class Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
        def construct_mapping(self, node, deep=False):
            """SafeLoader's mapping, refusing an explicit (not merged) key written twice."""
            seen = set()
            for key_node, _ in node.value:
                if key_node.tag != "tag:yaml.org,2002:merge":
                    key = self.construct_object(key_node)
                    if isinstance(key, Hashable):  # else PyYAML's own error names it
                        if key in seen:
                            raise ConfigError(f"line {key_node.start_mark.line + 1}: "
                                              f"duplicate key {key!r}")
                        seen.add(key)
            return super().construct_mapping(node, deep)

    # YAML 1.2's float with an exponent, which YAML 1.1 reads as a string unless
    # it has a dot and a signed exponent: 5e-4, 1e-05 (as JSON writes it), 1E8
    Loader.add_implicit_resolver("tag:yaml.org,2002:float",
                                 re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)"
                                            r"[eE][-+]?[0-9]+$"),
                                 list("-+0123456789."))
    with open(path, encoding="utf-8") as fh:
        try:
            doc = yaml.load(fh, Loader=Loader)
        except yaml.MarkedYAMLError as exc:  # its own text runs over several lines
            mark, context = exc.problem_mark, f"{exc.context}: " if exc.context else ""
            raise ConfigError(f"{path}: line {mark.line + 1}, column {mark.column + 1}: "
                              f"{context}{exc.problem}") from exc
        except yaml.YAMLError as exc:  # a ReaderError: a character YAML does not allow
            raise ConfigError(f"{path}: position {exc.position}: "
                              f"{str(exc).splitlines()[0]}") from exc
        except ValueError as exc:  # an int over 4300 digits, or not UTF-8
            raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return _read(_plan, doc, "")


def build_experiment(plan: ExperimentPlan):
    """Materialize the dataset and fill in the model specs."""
    dataset = build_dataset(plan.dataset)
    if plan.base_config.top_k > dataset.num_classes:
        raise ConfigError(f"training.top_k: {plan.base_config.top_k} exceeds the "
                          f"dataset's {dataset.num_classes} classes")
    specs = mlp_specs(dataset.feature_dim, num_classes=dataset.num_classes,
                      **plan.model_shape)
    return dataset, replace(plan.base_config, model_specs=specs)
