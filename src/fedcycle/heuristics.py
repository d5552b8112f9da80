"""The five collaboration heuristics over siloed patient cohorts.

Single institution, centrally hosted (pooled data), ensembling of
single-institution models, single weight transfer (one pass over the
institutions, each trained to a validation plateau), and cyclical weight
transfer (round-robin visits of a fixed number of epochs). Every run is a
pure function of (config, split, seed).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import transport
from .data import Dataset, DegenerateFeatureError, augment, normalize
from .nn import (ModelState, OptimizerConfig, OptState, backward, forward,
                 init_model, loss, mlp_specs, opt_step)
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


@dataclass(frozen=True)
class MetricsRow:
    global_epoch: int
    phase: str
    institution: int | None
    learning_rate: float
    train_accuracy: float
    validation_accuracy: float
    validation_loss: float


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


def _scaled(split: ScaledSplit, pooled: bool = False) -> ScaledSplit:
    if not isinstance(split, ScaledSplit):  # a raw Split's features are unscaled
        raise TypeError(f"runs take a ScaledSplit (scale_split), got {type(split).__name__}")
    if pooled and split.pooled is None:
        raise TypeError("central and ensemble runs take scale_split(split, 'central') "
                        "or scale_split(split, 'ensemble'); this split has no pool")
    return split


def predict_proba(model: ModelState, features: np.ndarray) -> np.ndarray:
    """Eval-mode output probabilities: (n, 1) sigmoid or (n, C) softmax."""
    return forward(model, features, train=False).probs


def _prob_matrix(probs: np.ndarray) -> np.ndarray:
    if probs.shape[1] == 1:
        p = probs[:, 0]
        return np.stack([1.0 - p, p], axis=1)
    return probs


def accuracy_from_probs(probs: np.ndarray, labels: np.ndarray, k: int = 1) -> dict:
    """top1/topk from a probability table; sigmoid column uses the >= 0.5
    rule, multiclass argmax ties go to the lowest class index."""
    labels = np.asarray(labels)
    if probs.shape[1] == 1:
        pred = probs[:, 0] >= 0.5
        num_classes = 2
    else:
        pred = np.argmax(probs, axis=1)
        num_classes = probs.shape[1]
    if k > num_classes:
        raise ValueError(f"k={k} exceeds {num_classes} classes")
    top1 = int(np.count_nonzero(pred == labels)) / len(labels)
    if k == 1:
        topk = top1
    else:
        table = _prob_matrix(probs)
        ranked = np.argsort(-table, axis=1, kind="stable")[:, :k]
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


def _current_lr(cfg: ExperimentConfig, state: PlateauState, epoch_index: int) -> float:
    if cfg.exp_decay is not None:
        return exp_decay_lr(epoch_index, cfg.optimizer.learning_rate, cfg.exp_decay)
    return state.current_lr


def _handoff(model: ModelState, cfg: ExperimentConfig, channel, *,
             origin: int, global_epoch: int) -> ModelState:
    data = transport.serialize(model, global_epoch=global_epoch, origin=origin,
                               carry_opt_state=cfg.carry_opt_state)
    delivered = channel.handoff(data)
    new_model, _ = transport.deserialize(delivered, model.specs)
    if not cfg.carry_opt_state:
        new_model.opt_state = OptState.zeros(cfg.optimizer.kind, new_model.layout.size)
    return new_model


def _run_visits(cfg: ExperimentConfig, visits, validation: Dataset):
    """The training loop behind every heuristic: returns the trained model,
    its per-epoch metrics rows, the transfer count and the optimizer steps.

    `visits` yields (institution, cohort, epochs) triples. Each visit trains
    one epoch at a time, records it and feeds its validation loss to one
    plateau schedule, `cfg.plateau`, shared by the whole run. A plateau
    decays the learning rate and, once the decays are used up, ends the
    run. A visit lasts `epochs` epochs; with `epochs` None it lasts until
    any plateau instead, and its patience count restarts at the hand-off.
    The model is handed to the next visit's institution through the
    channel, which is opened at the first hand-off. Hand-offs stop once the
    run has stopped or spent `max_epochs`. The loop never sees the test
    cohort.
    """
    model = _build_model(cfg)
    rng = _train_rng(cfg)
    state = PlateauState.fresh(cfg.optimizer.learning_rate)
    rows = []
    channel = None
    steps = transfers = epoch = 0
    stopped = False
    try:
        for n, (institution, cohort, epochs) in enumerate(visits):
            if stopped or epoch >= cfg.max_epochs:
                break
            if n:
                channel = channel or transport.make_channel(cfg.transport)
                model = _handoff(model, cfg, channel, origin=origin, global_epoch=epoch)
                transfers += 1
                if epochs is None:
                    state.epochs_since_improve = 0
            origin = institution
            for _ in range(epochs or cfg.max_epochs):
                if epoch >= cfg.max_epochs:
                    break
                epoch += 1
                lr = _current_lr(cfg, state, epoch - 1)
                phase = state.phase
                steps += train_on(model, cohort, cfg, lr, rng)
                train_acc = evaluate(model, cohort)["top1"]
                val_acc, val_loss = _val_metrics(model, validation)
                rows.append(MetricsRow(epoch, phase, institution, lr,
                                       train_acc, val_acc, val_loss))
                kind = observe(state, cfg.plateau, val_loss).kind
                if epochs is None and kind != CONTINUE:
                    break
                if kind == STOP:
                    stopped = True
                    break
    finally:
        if channel is not None:
            channel.close()
    return model, rows, transfers, steps


def _scored_run(cfg: ExperimentConfig, visits, split: ScaledSplit) -> RunResult:
    """Train one model over `visits`, then score it on the test cohort once."""
    model, rows, transfers, steps = _run_visits(cfg, visits, _scaled(split).validation)
    scores = evaluate(model, split.test, cfg.top_k)
    last = rows[-1]
    return RunResult(models=[model], metrics=rows, train_accuracy=last.train_accuracy,
                     validation_accuracy=last.validation_accuracy,
                     test_accuracy=scores["top1"], test_top_k=scores["topk"],
                     transfers=transfers, optimizer_steps=steps)


def run_single_institution(cfg: ExperimentConfig, split: ScaledSplit, index: int) -> RunResult:
    if not (0 <= index < len(split.institutions)):
        raise IndexError(f"institution index {index} out of range")
    return _scored_run(cfg, [(index, split.institutions[index], cfg.max_epochs)], split)


def run_central(cfg: ExperimentConfig, split: ScaledSplit) -> RunResult:
    return _scored_run(cfg, [(None, _scaled(split, pooled=True).pooled, cfg.max_epochs)], split)


def ensemble_predict(models, features: np.ndarray) -> np.ndarray:
    return np.mean([_prob_matrix(predict_proba(m, features)) for m in models], axis=0)


def run_ensemble(cfg: ExperimentConfig, split: ScaledSplit) -> RunResult:
    """Train one model per institution (seeds seed+i), average output
    probabilities sample-wise, then threshold/argmax."""
    members, rows, _, steps = zip(*(
        _run_visits(replace(cfg, seed=cfg.seed + i), [(i, c, cfg.max_epochs)], split.validation)
        for i, c in enumerate(_scaled(split, pooled=True).institutions)))

    def score(cohort, k=1):
        return accuracy_from_probs(ensemble_predict(members, cohort.features),
                                   cohort.labels, k)

    val_scores = score(split.validation)
    test_scores = score(split.test, cfg.top_k)
    train_scores = score(split.pooled)
    return RunResult(
        models=list(members),
        metrics=[row for member_rows in rows for row in member_rows],
        train_accuracy=train_scores["top1"],
        validation_accuracy=val_scores["top1"],
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
    m_values = list(m_values)
    if not m_values or max(m_values) > len(split.institutions):
        raise ValueError("m_values must be non-empty and within the split size")
    rows = []
    for m in m_values:
        sub = replace(split, institutions=split.institutions[:m])
        res = run_cyclical_weight_transfer(cfg, sub, freq)
        rows.append((m, res.test_accuracy))
    return rows


def run_heuristic(cfg: ExperimentConfig, split: ScaledSplit, kind: str, *,
                  institution: int = 0, frequency: int = 1) -> RunResult:
    if kind == "single":
        return run_single_institution(cfg, split, institution)
    if kind == "central":
        return run_central(cfg, split)
    if kind == "ensemble":
        return run_ensemble(cfg, split)
    if kind == "single_transfer":
        return run_single_weight_transfer(cfg, split)
    if kind == "cyclical":
        return run_cyclical_weight_transfer(cfg, split, frequency)
    raise ValueError(f"unknown heuristic {kind!r}")

