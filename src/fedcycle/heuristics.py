"""The five collaboration heuristics over siloed patient cohorts.

Single institution, centrally hosted (pooled data), ensembling of
single-institution models, single weight transfer (one pass over the
institutions, each trained to a validation plateau), and cyclical weight
transfer (round-robin visits of a fixed number of epochs). Every run is a
pure function of (config, split, seed).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import transport
from .data import Dataset, DegenerateFeatureError, augment, normalize
from .nn import (ModelState, OptimizerConfig, OptState, backward, forward,
                 init_model, layout_of, loss, mlp_specs, opt_step)
from .partition import Split, pool
from .schedule import (CONTINUE, STOP, ExpDecayPolicy, PlateauPolicy,
                       PlateauState, exp_decay_lr, observe)


@dataclass(frozen=True)
class ExperimentConfig:
    model_specs: list
    optimizer: OptimizerConfig
    plateau: PlateauPolicy
    batch_size: int = 32
    augment_sigma: float = 0.0
    seed: int = 0
    carry_opt_state: bool = True
    exp_decay: ExpDecayPolicy | None = None  # overrides plateau-driven lr when set
    top_k: int = 1
    max_epochs: int = 5000
    transport: str = "memory"

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if not self.augment_sigma >= 0:  # a NaN fails it too
            raise ValueError("augment_sigma must be >= 0")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.transport not in transport.CHANNELS:
            raise ValueError(f"transport must be one of {', '.join(transport.CHANNELS)}, "
                             f"got {self.transport!r}")
        lr = self.optimizer.learning_rate  # the last rate the schedule sets, as a run sets it
        lr = exp_decay_lr(self.max_epochs - 1, lr, self.exp_decay) if self.exp_decay else \
            math.prod([lr] + [self.plateau.decay_factor] * self.plateau.max_decays)
        if not lr > 0:
            raise ValueError(f"the {'exp' if self.exp_decay else 'plateau'} schedule drives "
                             f"the learning rate {self.optimizer.learning_rate!r} to 0")


class MetricsRow(NamedTuple):  # one metrics_seed*.csv row; its fields are the columns
    global_epoch: int
    phase: str
    institution: int | None
    learning_rate: float
    train_acc: float
    val_acc: float
    val_loss: float


@dataclass
class RunResult:
    models: list
    metrics: list
    train_accuracy: float
    validation_accuracy: float
    test_accuracy: float
    test_top_k: float
    transfers: int = 0
    optimizer_steps: int = 0


@dataclass(frozen=True)
class ScaledSplit(Split):
    """A split with its cohorts scaled for a run, as `scale_split` makes it."""
    pooled: Dataset | None  # institutions pooled, then scaled; central and ensemble only


def scale_split(split: Split, kind: str) -> ScaledSplit:
    """Each cohort of `split`, and for central and ensemble its pooled institutions,
    scaled by its own statistics. DegenerateFeatureError names a cohort normalize refuses."""
    cohorts = []
    for name, cohort in split.cohorts():
        try:
            cohorts.append(normalize(cohort))
        except DegenerateFeatureError as exc:
            raise DegenerateFeatureError(f"the {name} cohort has {exc}") from exc
    pooled = normalize(pool(split)) if kind in ("central", "ensemble") else None
    return ScaledSplit(cohorts[:-2], *cohorts[-2:], pooled)


def _scaled(split: ScaledSplit, cfg: ExperimentConfig, pooled: bool = False) -> ScaledSplit:
    """`split`, once it is known to suit a run of `cfg`; checked before any training."""
    if not isinstance(split, ScaledSplit):  # a raw Split's features are unscaled
        raise TypeError(f"runs take a ScaledSplit (scale_split), got {type(split).__name__}")
    if pooled and split.pooled is None:
        raise TypeError("central and ensemble runs take scale_split(split, 'central') "
                        "or scale_split(split, 'ensemble'); this split has no pool")
    specs = layout_of(cfg.model_specs).specs  # refuses an empty or headless list
    if specs[0].in_dim != split.test.feature_dim:
        raise ValueError(f"the model takes {specs[0].in_dim} features, "
                         f"the split has {split.test.feature_dim}")
    head = specs[-1]
    classes = 2 if head.kind == "sigmoid-head" else head.out_dim
    if classes != split.test.num_classes:
        raise ValueError(f"the model's {head.kind} scores {classes} classes, "
                         f"the split has {split.test.num_classes}")
    if cfg.top_k > classes:
        raise ValueError(f"top_k={cfg.top_k} exceeds the model's {classes} classes")
    return split


def predict_proba(model: ModelState, features: np.ndarray) -> np.ndarray:
    """Eval-mode output probabilities: (n, 1) sigmoid or (n, C) softmax."""
    return forward(model, features, train=False).probs


def accuracy_from_probs(probs: np.ndarray, labels: np.ndarray, k: int = 1) -> dict:
    """top1/topk from a model's output, by the one prediction rule: a sigmoid
    column (n, 1) predicts class 1 at p >= 0.5, a softmax table (n, C) its
    argmax, ties going to the lowest class index. Top-k counts a row whose
    label is among its k highest-ranked classes, so k = C counts every row."""
    labels = np.asarray(labels)
    num_classes = max(2, probs.shape[1])
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > num_classes:
        raise ValueError(f"k={k} exceeds {num_classes} classes")
    pred = probs[:, 0] >= 0.5 if probs.shape[1] == 1 else np.argmax(probs, axis=1)
    top1 = int(np.count_nonzero(pred == labels)) / len(labels)
    if k == 1:
        topk = top1
    elif k == num_classes:  # every label is among all the classes
        topk = 1.0
    else:
        ranked = np.argsort(-probs, axis=1, kind="stable")[:, :k]
        topk = int(np.count_nonzero((ranked == labels[:, None]).any(axis=1))) / len(labels)
    return {"top1": top1, "topk": topk}


def evaluate(model: ModelState, cohort: Dataset, k: int = 1) -> dict:
    probs = predict_proba(model, cohort.features)
    return accuracy_from_probs(probs, cohort.labels, k)


def _val_metrics(model: ModelState, validation: Dataset) -> tuple[float, float]:
    probs = predict_proba(model, validation.features)
    acc = accuracy_from_probs(probs, validation.labels)["top1"]
    return acc, loss(probs, validation.labels, model, 0.0)


def _build_model(cfg: ExperimentConfig) -> ModelState:
    rng = np.random.default_rng([cfg.seed, 0])
    return init_model(cfg.model_specs, cfg.optimizer, rng)


def _train_rng(cfg: ExperimentConfig) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, 1])


def train_on(model: ModelState, cohort: Dataset, cfg: ExperimentConfig, lr: float,
             rng: np.random.Generator) -> int:
    """Train one epoch, a full pass in shuffled mini-batches, with fresh
    augmentation noise; returns the number of optimizer steps taken. The
    cohort is expected to be normalized already."""
    features = augment(cohort.features, cfg.augment_sigma, rng)
    perm = rng.permutation(len(cohort))
    starts = range(0, len(perm), cfg.batch_size)
    for start in starts:
        idx = perm[start:start + cfg.batch_size]
        fp = forward(model, features[idx], rng=rng)
        g = backward(model, fp, cohort.labels[idx], cfg.optimizer.l2_coeff)
        opt_step(model, g, cfg.optimizer, lr)
    return len(starts)


def _visit_policy(cfg: ExperimentConfig, visits):
    """The rules of a run, as a generator of requests that `_run_visits` answers:
    ("epoch", cohort, lr) with (steps, train_acc, val_acc, val_loss), and
    ("handoff", origin, epoch) with None once the model has moved on. Returns
    the metrics rows, the transfer count and the optimizer steps.

    `visits` yields (institution, cohort, epochs). Each epoch's validation loss
    feeds one plateau schedule, `cfg.plateau`: a plateau decays the learning
    rate and, once the decays are used up, ends the run. A visit lasts `epochs`
    epochs; one with `epochs` None restarts the patience count at its hand-off
    and lasts until any plateau. Nothing follows epoch `max_epochs`."""
    state = PlateauState.fresh(cfg.optimizer.learning_rate)
    rows = []
    steps = transfers = epoch = 0
    for institution, cohort, epochs in visits:
        if epoch >= cfg.max_epochs:
            break
        if rows:
            yield "handoff", rows[-1].institution, epoch
            transfers += 1
            if epochs is None:
                state.epochs_since_improve = 0
        for _ in range(min(epochs or cfg.max_epochs, cfg.max_epochs - epoch)):
            lr = state.current_lr if cfg.exp_decay is None else \
                exp_decay_lr(epoch, cfg.optimizer.learning_rate, cfg.exp_decay)
            epoch += 1
            epoch_steps, *scores = yield "epoch", cohort, lr
            steps += epoch_steps
            rows.append(MetricsRow(epoch, state.phase, institution, lr, *scores))
            kind = observe(state, cfg.plateau, rows[-1].val_loss).kind
            if epochs is None and kind != CONTINUE:
                break
            if kind == STOP:
                return rows, transfers, steps
    return rows, transfers, steps


def _run_visits(cfg: ExperimentConfig, visits, validation: Dataset):
    """Answer `_visit_policy`'s requests on one model, opening the channel at
    the first hand-off; returns the model, then the policy's rows, transfer
    count and optimizer steps. It never sees the test cohort."""
    model = _build_model(cfg)
    rng = _train_rng(cfg)
    policy = _visit_policy(cfg, visits)
    channel = answer = None
    try:
        while True:
            try:
                request, *args = policy.send(answer)
            except StopIteration as end:
                return (model, *end.value)
            if request == "epoch":
                cohort, lr = args
                answer = (train_on(model, cohort, cfg, lr, rng), evaluate(model, cohort)["top1"],
                          *_val_metrics(model, validation))
                continue
            origin, epoch = args
            channel = channel or transport.CHANNELS[cfg.transport]()
            data = transport.serialize(model, global_epoch=epoch, origin=origin,
                                       carry_opt_state=cfg.carry_opt_state)
            model, _ = transport.deserialize(channel.handoff(data), model.specs)
            if not cfg.carry_opt_state:
                model.opt_state = OptState.zeros(cfg.optimizer.kind, model.layout.size)
            answer = None
    finally:
        if channel is not None:
            channel.close()


def _scored_run(cfg: ExperimentConfig, visits, split: ScaledSplit) -> RunResult:
    """Train one model over `visits`, then score it on the test cohort once."""
    model, rows, transfers, steps = _run_visits(cfg, visits, _scaled(split, cfg).validation)
    scores = evaluate(model, split.test, cfg.top_k)
    return RunResult(models=[model], metrics=rows, train_accuracy=rows[-1].train_acc,
                     validation_accuracy=rows[-1].val_acc,
                     test_accuracy=scores["top1"], test_top_k=scores["topk"],
                     transfers=transfers, optimizer_steps=steps)


def run_single_institution(cfg: ExperimentConfig, split: ScaledSplit, index: int) -> RunResult:
    if not (0 <= index < len(split.institutions)):
        raise IndexError(f"institution index {index} out of range")
    return _scored_run(cfg, [(index, split.institutions[index], cfg.max_epochs)], split)


def run_central(cfg: ExperimentConfig, split: ScaledSplit) -> RunResult:
    pooled = _scaled(split, cfg, pooled=True).pooled
    return _scored_run(cfg, [(None, pooled, cfg.max_epochs)], split)


def ensemble_predict(models, features: np.ndarray) -> np.ndarray:
    """The members' mean output, shaped as one member's `predict_proba`."""
    return np.mean([predict_proba(m, features) for m in models], axis=0)


def run_ensemble(cfg: ExperimentConfig, split: ScaledSplit) -> RunResult:
    """Train one model per institution (seeds seed+i), then score the mean of
    their outputs as one model's output."""
    members, rows, _, steps = zip(*(
        _run_visits(replace(cfg, seed=cfg.seed + i), [(i, c, cfg.max_epochs)], split.validation)
        for i, c in enumerate(_scaled(split, cfg, pooled=True).institutions)))

    def score(cohort, k=1):
        return accuracy_from_probs(ensemble_predict(members, cohort.features),
                                   cohort.labels, k)

    test_scores = score(split.test, cfg.top_k)
    return RunResult(
        models=list(members),
        metrics=[row for member_rows in rows for row in member_rows],
        train_accuracy=score(split.pooled)["top1"],
        validation_accuracy=score(split.validation)["top1"],
        test_accuracy=test_scores["top1"],
        test_top_k=test_scores["topk"],
        optimizer_steps=sum(steps),
    )


def run_single_weight_transfer(cfg: ExperimentConfig, split: ScaledSplit) -> RunResult:
    """Visit institutions once, in index order, training each to a
    validation plateau (per-institution patience, no decay mid-visit); the
    decay ladder advances at each transfer; plateau at the last institution
    terminates."""
    visits = [(i, cohort, None) for i, cohort in enumerate(split.institutions)]
    return _scored_run(cfg, visits, split)


def run_cyclical_weight_transfer(cfg: ExperimentConfig, split: ScaledSplit,
                                 freq: int) -> RunResult:
    """Round-robin over institutions, `freq` epochs per visit, with a global
    plateau schedule scaled by the institution count."""
    if freq < 1:
        raise ValueError("weight transfer frequency must be >= 1")
    cfg = replace(cfg, plateau=replace(cfg.plateau, patience_scale=len(split.institutions)))
    visits = itertools.cycle([(i, cohort, freq) for i, cohort in enumerate(split.institutions)])
    return _scored_run(cfg, visits, split)


def run_scaling_sweep(cfg: ExperimentConfig, split: ScaledSplit, m_values,
                      freq: int = 1) -> list:
    """Cyclical weight transfer over the first m institutions, per m."""
    m_values, k = list(m_values), len(split.institutions)
    if not m_values or not all(1 <= m <= k for m in m_values):
        raise ValueError(f"m_values must be non-empty, each in 1..{k} (the split size)")
    rows = []
    for m in m_values:
        sub = replace(split, institutions=split.institutions[:m])
        res = run_cyclical_weight_transfer(cfg, sub, freq)
        rows.append((m, res.test_accuracy))
    return rows


# Each kind of run, called as PLANS[kind](cfg, split, institution, frequency).
PLANS = {
    "single": lambda cfg, split, institution, _: run_single_institution(cfg, split, institution),
    "central": lambda cfg, split, *_: run_central(cfg, split),
    "ensemble": lambda cfg, split, *_: run_ensemble(cfg, split),
    "single_transfer": lambda cfg, split, *_: run_single_weight_transfer(cfg, split),
    "cyclical": lambda cfg, split, _, freq: run_cyclical_weight_transfer(cfg, split, freq),
}


def run_heuristic(cfg: ExperimentConfig, split: ScaledSplit, kind: str, *,
                  institution: int = 0, frequency: int = 1) -> RunResult:
    if kind not in PLANS:
        raise ValueError(f"unknown heuristic {kind!r}")
    return PLANS[kind](cfg, split, institution, frequency)
