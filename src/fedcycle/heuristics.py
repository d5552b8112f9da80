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
                 init_model, layout_of, loss, mlp_specs, opt_step, stack_models)
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


POOLED_KINDS = ("central", "ensemble")  # the kinds that train on the pooled institutions


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
    pooled = normalize(pool(split)) if kind in POOLED_KINDS else None
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
    cohort is expected to be normalized already. Overflow in the passes is
    left to `opt_step`'s finiteness check, which stops the run."""
    features = augment(cohort.features, cfg.augment_sigma, rng)
    perm = rng.permutation(len(cohort))
    starts = range(0, len(perm), cfg.batch_size)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in starts:
            idx = perm[start:start + cfg.batch_size]
            fp = forward(model, features[idx], rng=rng)
            g = backward(model, fp, cohort.labels[idx], cfg.optimizer.l2_coeff)
            opt_step(model, g, cfg.optimizer, lr)
    return len(starts)


def _train_stack(stack: ModelState, models: list, cohorts: list, cfg: ExperimentConfig,
                 lrs: list, rngs: list) -> int:
    """`train_on` for R models at once, each on its own cohort (one length for
    all) at its own learning rate, through their `stack_models` stack; returns
    the steps each took. Each model's generator gives what `train_on` would
    draw, in its order: the noise, the permutation, then each batch's dropout
    mask. After each stacked step, each model's optimizer steps on its row of
    the gradient, so every row ends bitwise as `train_on` would leave it."""
    features = [augment(c.features, cfg.augment_sigma, rng) for c, rng in zip(cohorts, rngs)]
    perms = [rng.permutation(len(c)) for c, rng in zip(cohorts, rngs)]
    n = len(cohorts[0])  # the cohorts joined, each run's permutation moved onto its own rows
    perm = np.stack(perms) + np.arange(0, n * len(models), n)[:, None]
    features, labels = np.concatenate(features), np.concatenate([c.labels for c in cohorts])
    starts = range(0, n, cfg.batch_size)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in starts:
            idx = perm[:, start:start + cfg.batch_size]
            fp = forward(stack, features[idx], rng=rngs)
            g = backward(stack, fp, labels[idx], cfg.optimizer.l2_coeff)
            for model, row, lr in zip(models, g, lrs):
                opt_step(model, row, cfg.optimizer, lr)
    return len(starts)


def _visit_policy(cfg: ExperimentConfig, visits):
    """The rules of one run, as a generator of requests that `_run_visits` answers:
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


class _Run:
    """One member run as `_run_visits` drives it: its config, policy, model and
    generator, the channel it opens at its first hand-off, its epoch count,
    its pending epoch request (`cohort`, `lr`), the answer to its last one
    and, once its policy returns, the policy's rows, transfer count and
    optimizer steps (`end`)."""

    def __init__(self, cfg: ExperimentConfig, visits):
        self.cfg, self.policy = cfg, _visit_policy(cfg, visits)
        self.model, self.rng = _build_model(cfg), _train_rng(cfg)
        self.channel = self.answer = self.end = self.cohort = self.lr = None
        self.epoch = 0

    def next_epoch(self) -> bool:
        """Send the policy its answer and take its hand-offs up to its next
        epoch request; False once the run has ended."""
        answer = self.answer
        while True:
            try:
                request, *args = self.policy.send(answer)
            except StopIteration as end:
                self.end = end.value
                return False
            if request == "epoch":
                self.epoch += 1
                self.cohort, self.lr = args
                return True
            self.handoff(*args)
            answer = None

    def handoff(self, origin, epoch: int) -> None:
        cfg = self.cfg
        self.channel = self.channel or transport.CHANNELS[cfg.transport]()
        data = transport.serialize(self.model, global_epoch=epoch, origin=origin,
                                   carry_opt_state=cfg.carry_opt_state)
        self.model, _ = transport.deserialize(self.channel.handoff(data), self.model.specs)
        if not cfg.carry_opt_state:
            self.model.opt_state = OptState.zeros(cfg.optimizer.kind, self.model.layout.size)


def _run_visits(members, validation: Dataset) -> list:
    """Answer the `_visit_policy` requests of a kind's member runs, its
    (config, visits) pairs, in lockstep: each round, every live run takes its
    hand-offs up to its next epoch request, the runs whose cohorts share a
    length train that epoch as one stack (a run alone trains with `train_on`),
    and each run is scored on its own. A run that ends leaves the stack.
    Returns (model, rows, transfers, steps) per member. It never sees the
    test cohort."""
    runs = [_Run(cfg, visits) for cfg, visits in members]
    stacked, stack = [], None  # the models the stack holds (kept alive, so ids stay theirs)
    try:
        live = runs
        while live := [run for run in live if run.next_epoch()]:
            groups = {}
            for run in live:
                groups.setdefault(len(run.cohort), []).append(run)
            for group in groups.values():
                run = group[0]
                try:
                    if len(group) == 1:
                        steps = train_on(run.model, run.cohort, run.cfg, run.lr, run.rng)
                    else:
                        models = [run.model for run in group]
                        if list(map(id, models)) != list(map(id, stacked)):
                            stacked, stack = models, stack_models(models)
                        steps = _train_stack(stack, models, [run.cohort for run in group],
                                             run.cfg, [run.lr for run in group],
                                             [run.rng for run in group])
                except FloatingPointError as exc:
                    raise FloatingPointError(f"in epoch {run.epoch}, {exc}") from exc
                for run in group:
                    run.answer = (steps, evaluate(run.model, run.cohort)["top1"],
                                  *_val_metrics(run.model, validation))
    finally:
        for run in runs:
            if run.channel is not None:
                run.channel.close()
    return [(run.model, *run.end) for run in runs]


def ensemble_predict(models, features: np.ndarray) -> np.ndarray:
    """The members' mean output, shaped as one member's `predict_proba`."""
    return np.mean([predict_proba(m, features) for m in models], axis=0)


def _single(cfg: ExperimentConfig, split: ScaledSplit, institution: int, _) -> list:
    if not (0 <= institution < len(split.institutions)):
        raise IndexError(f"institution index {institution} out of range")
    return [(cfg, [(institution, split.institutions[institution], cfg.max_epochs)])]


def _cyclical(cfg: ExperimentConfig, split: ScaledSplit, _, frequency: int) -> list:
    """Round-robin over institutions, `frequency` epochs per visit, with a
    global plateau schedule scaled by the institution count."""
    if frequency < 1:
        raise ValueError("weight transfer frequency must be >= 1")
    cfg = replace(cfg, plateau=replace(cfg.plateau, patience_scale=len(split.institutions)))
    return [(cfg, itertools.cycle([(i, c, frequency) for i, c in enumerate(split.institutions)]))]


# Each kind's member runs, PLANS[kind](cfg, split, institution, frequency) ->
# [(config, visits)], each visit (institution, cohort, epochs) as `_visit_policy` reads it.
PLANS = {
    "single": _single,
    "central": lambda cfg, split, *_: [(cfg, [(None, split.pooled, cfg.max_epochs)])],
    "ensemble": lambda cfg, split, *_: [(replace(cfg, seed=cfg.seed + i), [(i, c, cfg.max_epochs)])
                                        for i, c in enumerate(split.institutions)],
    "single_transfer": lambda cfg, split, *_: [
        (cfg, [(i, c, None) for i, c in enumerate(split.institutions)])],
    "cyclical": _cyclical,
}


def run_heuristic(cfg: ExperimentConfig, split: ScaledSplit, kind: str, *,
                  institution: int = 0, frequency: int = 1) -> RunResult:
    """Train each of the kind's member runs, then score the test cohort once on
    their mean output; an ensemble scores its pool and validation cohort alike."""
    if kind not in PLANS:
        raise ValueError(f"unknown heuristic {kind!r}")
    split = _scaled(split, cfg, pooled=kind in POOLED_KINDS)
    members = PLANS[kind](cfg, split, institution, frequency)
    models, rows, transfers, steps = zip(*_run_visits(members, split.validation))
    rows = [row for member_rows in rows for row in member_rows]

    def score(cohort, k=1):
        return accuracy_from_probs(ensemble_predict(models, cohort.features), cohort.labels, k)

    if len(models) == 1:
        train, validation = rows[-1].train_acc, rows[-1].val_acc
    else:
        train, validation = score(split.pooled)["top1"], score(split.validation)["top1"]
    test_scores = score(split.test, cfg.top_k)
    return RunResult(models=list(models), metrics=rows, train_accuracy=train,
                     validation_accuracy=validation, test_accuracy=test_scores["top1"],
                     test_top_k=test_scores["topk"], transfers=sum(transfers),
                     optimizer_steps=sum(steps))


def run_scaling_sweep(cfg: ExperimentConfig, split: ScaledSplit, m_values,
                      freq: int = 1) -> list:
    """Cyclical weight transfer over the first m institutions, per m."""
    m_values, k = list(m_values), len(split.institutions)
    if not m_values or not all(1 <= m <= k for m in m_values):
        raise ValueError(f"m_values must be non-empty, each in 1..{k} (the split size)")
    rows = []
    for m in m_values:
        sub = replace(split, institutions=split.institutions[:m])
        rows.append((m, run_heuristic(cfg, sub, "cyclical", frequency=freq).test_accuracy))
    return rows

