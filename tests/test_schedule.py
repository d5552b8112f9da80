import math

import pytest

from fedcycle.schedule import (CONTINUE, DECAY, PHASES, STOP, ExpDecayPolicy,
                               PlateauPolicy, PlateauState, exp_decay_lr,
                               observe)


def run_stream(policy, lr0, losses):
    state = PlateauState.fresh(lr0)
    return state, [observe(state, policy, v) for v in losses]


class TestObserve:
    def test_hand_traced_sequence(self):
        policy = PlateauPolicy(patience=2, decay_factor=0.5, max_decays=3)
        state, actions = run_stream(policy, 0.1, [1.0, 0.9, 0.95, 0.92])
        assert [a.kind for a in actions] == [CONTINUE, CONTINUE, CONTINUE, DECAY]
        assert state.current_lr == pytest.approx(0.05)

    def test_always_improving_never_decays(self):
        policy = PlateauPolicy(patience=2, decay_factor=0.5, max_decays=1)
        _, actions = run_stream(policy, 0.1, [1.0 - 0.01 * i for i in range(50)])
        assert all(a.kind == CONTINUE for a in actions)

    def test_terminal_lr_ladder(self):
        policy = PlateauPolicy(patience=1, decay_factor=0.25, max_decays=3)
        state = PlateauState.fresh(5e-4)
        kinds = []
        while True:
            action = observe(state, policy, 1.0)
            kinds.append(action.kind)
            if action.kind == STOP:
                break
        assert kinds == [DECAY, DECAY, DECAY, STOP]
        assert state.current_lr == pytest.approx(7.8125e-6)
        assert state.phase == "D"

    @pytest.mark.parametrize("patience,scale,max_decays", [
        (2, 1, 3), (3, 4, 2), (20, 4, 3), (1, 1, 0),
    ])
    def test_flat_stream_stops_at_exact_epoch(self, patience, scale, max_decays):
        policy = PlateauPolicy(patience=patience, decay_factor=0.25,
                               max_decays=max_decays, patience_scale=scale)
        state = PlateauState.fresh(1e-3)
        epoch = 0
        while True:
            epoch += 1
            if observe(state, policy, 1.0).kind == STOP:
                break
        assert epoch == (max_decays + 1) * patience * scale

    def test_stop_only_after_all_decays(self):
        policy = PlateauPolicy(patience=1, decay_factor=0.5, max_decays=2)
        _, actions = run_stream(policy, 0.1, [1.0, 1.0, 1.0])
        assert [a.kind for a in actions] == [DECAY, DECAY, STOP]

    def test_improvement_resets_counter(self):
        policy = PlateauPolicy(patience=3, decay_factor=0.5, max_decays=1)
        _, actions = run_stream(policy, 0.1, [1.0, 1.1, 0.9, 1.0, 1.1])
        assert all(a.kind == CONTINUE for a in actions)

    def test_equal_loss_is_not_improvement(self):
        policy = PlateauPolicy(patience=2, decay_factor=0.5, max_decays=1)
        _, actions = run_stream(policy, 0.1, [1.0, 1.0])
        assert actions[-1].kind == DECAY

    def test_lr_monotone_and_best_monotone(self):
        policy = PlateauPolicy(patience=2, decay_factor=0.5, max_decays=3)
        state = PlateauState.fresh(0.1)
        losses = [1.0, 0.8, 0.9, 0.85, 0.7, 0.72, 0.71, 0.71, 0.71, 0.71]
        prev_lr, prev_best = state.current_lr, math.inf
        for v in losses:
            observe(state, policy, v)
            assert state.current_lr <= prev_lr
            assert state.best_loss <= prev_best
            prev_lr, prev_best = state.current_lr, state.best_loss

    def test_nonfinite_loss_rejected(self):
        policy = PlateauPolicy(patience=2, decay_factor=0.5, max_decays=1)
        state = PlateauState.fresh(0.1)
        with pytest.raises(ValueError):
            observe(state, policy, math.nan)

    def test_phase_tracks_decays(self):
        policy = PlateauPolicy(patience=1, decay_factor=0.5, max_decays=3)
        state = PlateauState.fresh(0.1)
        assert state.phase == "A"
        observe(state, policy, 1.0)
        assert state.phase == "B"


class TestPolicyValidation:
    @pytest.mark.parametrize("kw", [
        dict(patience=0),
        dict(decay_factor=0.0),
        dict(decay_factor=1.0),
        dict(max_decays=-1),
        dict(patience_scale=0),
    ])
    def test_rejects_bad_fields(self, kw):
        base = dict(patience=2, decay_factor=0.5, max_decays=1)
        base.update(kw)
        with pytest.raises(ValueError):
            PlateauPolicy(**base)

    def test_max_decays_bounded_by_phase_letters(self):
        """Every learning-rate level gets a phase letter, A to Z: 25 decays
        are the most a policy may allow."""
        assert len(PHASES) == 26
        with pytest.raises(ValueError, match=r"max_decays must be in 0\.\.25"):
            PlateauPolicy(patience=1, decay_factor=0.5, max_decays=26)
        policy = PlateauPolicy(patience=1, decay_factor=0.5, max_decays=25)
        state = PlateauState.fresh(0.1)
        actions = [observe(state, policy, 1.0) for _ in range(27)]
        assert [a.kind for a in actions] == [DECAY] * 25 + [STOP, STOP]
        assert state.phase == "Z"

    def test_effective_patience(self):
        assert PlateauPolicy(20, 0.25, 3, patience_scale=4).effective_patience == 80

    def test_fresh_requires_positive_lr(self):
        with pytest.raises(ValueError):
            PlateauState.fresh(0.0)


class TestExpDecay:
    def test_epoch_zero_is_lr0(self):
        assert exp_decay_lr(0, 0.001, ExpDecayPolicy(0.99)) == 0.001

    def test_hundred_epochs(self):
        lr = exp_decay_lr(100, 0.001, ExpDecayPolicy(0.99, period=1))
        assert lr == pytest.approx(3.660e-4, abs=1e-7)

    def test_period_floor(self):
        policy = ExpDecayPolicy(0.99, period=4)
        for e in range(4):
            assert exp_decay_lr(e, 0.001, policy) == 0.001
        assert exp_decay_lr(4, 0.001, policy) == pytest.approx(0.001 * 0.99)

    @pytest.mark.parametrize("kw", [
        dict(decay_per_period=0.0),
        dict(decay_per_period=1.01),
        dict(period=0),
    ])
    def test_policy_validation(self, kw):
        base = dict(decay_per_period=0.99, period=1)
        base.update(kw)
        with pytest.raises(ValueError):
            ExpDecayPolicy(**base)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            exp_decay_lr(-1, 0.001, ExpDecayPolicy(0.99))

    @pytest.mark.parametrize("lr0", [0.0, -0.001, math.nan])
    def test_nonpositive_lr0_rejected(self, lr0):
        with pytest.raises(ValueError, match="lr0 must be > 0"):
            exp_decay_lr(0, lr0, ExpDecayPolicy(0.99))
