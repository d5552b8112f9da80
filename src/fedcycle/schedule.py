"""Validation-loss plateau scheduling and exponential learning-rate decay.

The plateau rule: the learning rate drops by a fixed factor once the
validation loss has gone ``patience * patience_scale`` consecutive epochs
without a strict improvement over the best seen; after the allotted number
of decays, the next plateau terminates training. The four learning-rate
levels produced by three decays are labeled phases A-D.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

CONTINUE = "continue"
DECAY = "decay"
STOP = "stop"

PHASES = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


@dataclass(frozen=True)
class Action:
    kind: str  # CONTINUE | DECAY | STOP


@dataclass(frozen=True)
class PlateauPolicy:
    patience: int
    decay_factor: float
    max_decays: int
    patience_scale: int = 1

    def __post_init__(self):
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if not (0.0 < self.decay_factor < 1.0):
            raise ValueError("decay_factor must be in (0, 1)")
        if not 0 <= self.max_decays < len(PHASES):
            # one phase letter per learning-rate level
            raise ValueError(f"max_decays must be in 0..{len(PHASES) - 1}")
        if self.patience_scale < 1:
            raise ValueError("patience_scale must be >= 1")

    @property
    def effective_patience(self) -> int:
        return self.patience * self.patience_scale


@dataclass
class PlateauState:
    best_loss: float
    epochs_since_improve: int
    decays_used: int
    current_lr: float

    @classmethod
    def fresh(cls, lr0: float) -> "PlateauState":
        if not lr0 > 0:
            raise ValueError("initial learning rate must be > 0")
        return cls(best_loss=math.inf, epochs_since_improve=0,
                   decays_used=0, current_lr=lr0)

    @property
    def phase(self) -> str:
        return PHASES[self.decays_used]


def observe(state: PlateauState, policy: PlateauPolicy, val_loss: float) -> Action:
    """Feed one epoch's validation loss; mutates state, returns the action.

    Only a strict decrease counts as improvement. The very first
    observation seeds best_loss and counts as one non-improving epoch, so a
    flat loss stream stops after exactly
    (max_decays + 1) * patience * patience_scale epochs.
    """
    if not math.isfinite(val_loss):
        raise ValueError("validation loss must be finite")
    seeding = math.isinf(state.best_loss)
    if val_loss < state.best_loss:
        state.best_loss = val_loss
        if not seeding:
            state.epochs_since_improve = 0
            return Action(CONTINUE)
    state.epochs_since_improve += 1
    if state.epochs_since_improve < policy.effective_patience:
        return Action(CONTINUE)
    if state.decays_used >= policy.max_decays:
        return Action(STOP)
    state.decays_used += 1
    state.current_lr *= policy.decay_factor
    state.epochs_since_improve = 0
    return Action(DECAY)


@dataclass(frozen=True)
class ExpDecayPolicy:
    decay_per_period: float
    period: int = 1

    def __post_init__(self):
        if not (0.0 < self.decay_per_period <= 1.0):
            raise ValueError("decay_per_period must be in (0, 1]")
        if self.period < 1:
            raise ValueError("period must be >= 1")


def exp_decay_lr(epoch: int, lr0: float, policy: ExpDecayPolicy) -> float:
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    if not lr0 > 0:
        raise ValueError("lr0 must be > 0")
    return lr0 * policy.decay_per_period ** (epoch // policy.period)
