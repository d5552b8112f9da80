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

import numpy as np

from . import transport
from .data import Batch, Dataset, augment, normalize
from .nn import (LayerSpec, ModelState, OptimizerConfig, backward,
                 forward, fresh_opt_state, init_model, loss, opt_step)
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
    top_k: int
    transfers: int = 0
    optimizer_steps: int = 0


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
        pred = (probs[:, 0] >= 0.5).astype(np.int64)
        num_classes = 2
    else:
        pred = np.argmax(probs, axis=1)
        num_classes = probs.shape[1]
    if k > num_classes:
        raise ValueError(f"k={k} exceeds {num_classes} classes")
    top1 = float(np.mean(pred == labels))
    if k == 1:
        topk = top1
    else:
        table = _prob_matrix(probs)
        ranked = np.argsort(-table, axis=1, kind="stable")[:, :k]
        topk = float(np.mean(np.any(ranked == labels[:, None], axis=1)))
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


def train_on(model: ModelState, cohort: Dataset, epochs: int,
             cfg: ExperimentConfig, lr: float, rng: np.random.Generator) -> int:
    """Train `epochs` full passes in shuffled mini-batches; returns the
    number of optimizer steps taken. Augmentation noise is redrawn every
    epoch. The cohort is expected to be normalized already."""
    n = len(cohort)
    steps = 0
    for _ in range(epochs):
        batch = augment(Batch(cohort.features, cohort.labels), cfg.augment_sigma, rng)
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            fp = forward(model, batch.features[idx], rng=rng)
            grads = backward(model, fp, batch.labels[idx], cfg.optimizer.l2_coeff)
            opt_step(model, grads, cfg.optimizer, lr)
            steps += 1
    return steps


class _Recorder:
    """Per-epoch metrics plus a guard that test data is scored exactly once.

    Without a test cohort the run is left unscored (NaN test accuracy): an
    ensemble scores its members together, never one by one.
    """

    def __init__(self, cfg: ExperimentConfig, validation: Dataset, test: Dataset | None):
        self.cfg = cfg
        self.validation = validation
        self.test = test
        self.rows = []
        self.test_evaluations = 0

    def record(self, model, global_epoch, phase, institution, lr, cohort) -> float:
        train_acc = evaluate(model, cohort)["top1"]
        val_acc, val_loss = _val_metrics(model, self.validation)
        self.rows.append(MetricsRow(global_epoch, phase, institution, lr,
                                    train_acc, val_acc, val_loss))
        return val_loss

    def finish(self, model, transfers=0, steps=0) -> RunResult:
        self.test_evaluations += 1
        if self.test_evaluations != 1:
            raise RuntimeError("test cohort must be scored exactly once")
        scores = (evaluate(model, self.test, self.cfg.top_k) if self.test is not None
                  else {"top1": math.nan, "topk": math.nan})
        last = self.rows[-1]
        return RunResult(
            models=[model],
            metrics=self.rows,
            train_accuracy=last.train_accuracy,
            validation_accuracy=last.validation_accuracy,
            test_accuracy=scores["top1"],
            test_top_k=scores["topk"],
            top_k=self.cfg.top_k,
            transfers=transfers,
            optimizer_steps=steps,
        )


def _current_lr(cfg: ExperimentConfig, state: PlateauState, epoch_index: int) -> float:
    if cfg.exp_decay is not None:
        return exp_decay_lr(epoch_index, cfg.optimizer.learning_rate, cfg.exp_decay)
    return state.current_lr


def _eval_cohorts(split: Split):
    return normalize(split.validation)[0], normalize(split.test)[0]


def _normalized_cohorts(split: Split):
    insts = [normalize(c)[0] for c in split.institutions]
    return (insts, *_eval_cohorts(split))


def _handoff(model: ModelState, cfg: ExperimentConfig, channel, *,
             origin: int, destination: int, global_epoch: int) -> ModelState:
    data = transport.serialize(model, global_epoch=global_epoch, origin=origin,
                               carry_opt_state=cfg.carry_opt_state)
    delivered = channel.handoff(data, origin=origin, destination=destination,
                                global_epoch=global_epoch)
    new_model, _ = transport.deserialize(delivered, model.specs)
    if not cfg.carry_opt_state:
        new_model.opt_state = fresh_opt_state(cfg.optimizer.kind, new_model.specs)
    return new_model


def _run_visits(cfg: ExperimentConfig, visits, validation: Dataset,
                test: Dataset | None, *, epochs_per_visit: int | None = None,
                patience_scale: int = 1, plateau_ends_visit: bool = False) -> RunResult:
    """The training loop behind every heuristic.

    `visits` yields (institution, cohort) pairs. Each visit trains one epoch
    at a time, records it and feeds its validation loss to one plateau
    schedule shared by the whole run. A visit lasts `epochs_per_visit`
    epochs, or until a plateau when that is None. A plateau decays the
    learning rate and, once the decays are used up, ends the run; with
    `plateau_ends_visit` any plateau ends the visit instead, and the
    patience count restarts at the next institution. The model is handed
    to the next visit's institution through the channel, which is opened at
    the first hand-off. Hand-offs stop once the run has stopped or spent
    `max_epochs`.
    """
    model = _build_model(cfg)
    rng = _train_rng(cfg)
    policy = replace(cfg.plateau, patience_scale=patience_scale)
    state = PlateauState.fresh(cfg.optimizer.learning_rate)
    rec = _Recorder(cfg, validation, test)
    channel = None
    steps = transfers = epoch = 0
    stopped = False
    try:
        for n, (institution, cohort) in enumerate(visits):
            if stopped or epoch >= cfg.max_epochs:
                break
            if n:
                channel = channel or transport.make_channel(cfg.transport)
                model = _handoff(model, cfg, channel, origin=origin,
                                 destination=institution, global_epoch=epoch)
                transfers += 1
                if plateau_ends_visit:
                    state.epochs_since_improve = 0
            origin = institution
            for _ in range(epochs_per_visit or cfg.max_epochs):
                if epoch >= cfg.max_epochs:
                    break
                epoch += 1
                lr = _current_lr(cfg, state, epoch - 1)
                phase = state.phase
                steps += train_on(model, cohort, 1, cfg, lr, rng)
                val_loss = rec.record(model, epoch, phase, institution, lr, cohort)
                kind = observe(state, policy, val_loss).kind
                if plateau_ends_visit and kind != CONTINUE:
                    break
                if kind == STOP:
                    stopped = True
                    break
    finally:
        if channel is not None:
            channel.close()
    return rec.finish(model, transfers=transfers, steps=steps)


def run_single_institution(cfg: ExperimentConfig, split: Split, index: int) -> RunResult:
    if not (0 <= index < len(split.institutions)):
        raise IndexError(f"institution index {index} out of range")
    insts, val, test = _normalized_cohorts(split)
    return _run_visits(cfg, [(index, insts[index])], val, test)


def run_central(cfg: ExperimentConfig, split: Split) -> RunResult:
    pooled = normalize(pool(split))[0]
    val, test = _eval_cohorts(split)
    return _run_visits(cfg, [(None, pooled)], val, test)


def ensemble_predict(models, features: np.ndarray) -> np.ndarray:
    return np.mean([_prob_matrix(predict_proba(m, features)) for m in models], axis=0)


def run_ensemble(cfg: ExperimentConfig, split: Split) -> RunResult:
    """Train one model per institution (seeds seed+i), average output
    probabilities sample-wise, then threshold/argmax."""
    insts, val, test = _normalized_cohorts(split)
    runs = [_run_visits(replace(cfg, seed=cfg.seed + i), [(i, cohort)], val, None)
            for i, cohort in enumerate(insts)]
    members = [res.models[0] for res in runs]

    def score(cohort, k=1):
        return accuracy_from_probs(ensemble_predict(members, cohort.features),
                                   cohort.labels, k)

    val_scores = score(val)
    test_scores = score(test, cfg.top_k)
    train_scores = score(normalize(pool(split))[0])
    return RunResult(
        models=members,
        metrics=[row for res in runs for row in res.metrics],
        train_accuracy=train_scores["top1"],
        validation_accuracy=val_scores["top1"],
        test_accuracy=test_scores["top1"],
        test_top_k=test_scores["topk"],
        top_k=cfg.top_k,
        optimizer_steps=sum(res.optimizer_steps for res in runs),
    )


def run_single_weight_transfer(cfg: ExperimentConfig, split: Split) -> RunResult:
    """Visit institutions once, in index order, training each to a
    validation plateau (per-institution patience, no decay mid-visit); the
    decay ladder advances at each transfer; plateau at the last institution
    terminates."""
    insts, val, test = _normalized_cohorts(split)
    return _run_visits(cfg, enumerate(insts), val, test, plateau_ends_visit=True)


def run_cyclical_weight_transfer(cfg: ExperimentConfig, split: Split,
                                 freq: int) -> RunResult:
    """Round-robin over institutions, `freq` epochs per visit, with a global
    plateau schedule scaled by the institution count."""
    if freq < 1:
        raise ValueError("weight transfer frequency must be >= 1")
    insts, val, test = _normalized_cohorts(split)
    return _run_visits(cfg, itertools.cycle(enumerate(insts)), val, test,
                       epochs_per_visit=freq, patience_scale=len(insts))


def run_scaling_sweep(cfg: ExperimentConfig, split: Split, m_values,
                      freq: int = 1) -> list:
    """Cyclical weight transfer over the first m institutions, per m."""
    m_values = list(m_values)
    if not m_values or max(m_values) > len(split.institutions):
        raise ValueError("m_values must be non-empty and within the split size")
    rows = []
    for m in m_values:
        sub = Split(institutions=split.institutions[:m],
                    validation=split.validation, test=split.test)
        res = run_cyclical_weight_transfer(cfg, sub, freq)
        rows.append((m, res.test_accuracy))
    return rows


def run_heuristic(cfg: ExperimentConfig, split: Split, kind: str, *,
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


def mlp_specs(in_dim: int, hidden, num_classes: int, *,
              batchnorm: bool = False, dropout: float = 0.0) -> list:
    """Default architecture: affine->(batchnorm)->relu blocks, optional
    dropout before the readout, sigmoid head for 2 classes else softmax."""
    specs = []
    width = in_dim
    for h in hidden:
        specs.append(LayerSpec("affine", width, h))
        if batchnorm:
            specs.append(LayerSpec("batchnorm", h, h))
        specs.append(LayerSpec("relu", h, h))
        width = h
    if dropout > 0.0:
        specs.append(LayerSpec("dropout", width, width, dropout_rate=dropout))
    if num_classes == 2:
        specs.append(LayerSpec("sigmoid-head", width, 1))
    else:
        specs.append(LayerSpec("softmax-head", width, num_classes))
    return specs
