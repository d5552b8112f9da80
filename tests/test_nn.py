import hashlib
import math

import numpy as np
import pytest

from fedcycle import nn
from fedcycle.data import Dataset
from fedcycle.heuristics import ExperimentConfig, mlp_specs, train_on
from fedcycle.nn import (HEAD_KINDS, LAYER_KINDS, OPT_ROLES, LayerSpec, OptimizerConfig,
                         backward, forward, glorot_init, grad_check, gradcheck_suite,
                         has_flat_relu, init_model, loss, opt_step,
                         validate_specs, workspace)
from fedcycle.schedule import PlateauPolicy
from test_transport import GOLDEN_MODELS


def sigmoid_model(W, b, w_head, b_head, opt_kind="sgd-momentum"):
    """2-feature affine -> relu -> sigmoid head with given parameters."""
    specs = [LayerSpec("affine", 2, 2), LayerSpec("relu", 2, 2),
             LayerSpec("sigmoid-head", 2, 1)]
    m = init_model(specs, OptimizerConfig(opt_kind, 0.1), np.random.default_rng(0))
    m.params[0]["W"][...] = np.array(W, dtype=float)
    m.params[0]["b"][...] = np.array(b, dtype=float).reshape(1, -1)
    m.params[2]["W"][...] = np.array(w_head, dtype=float).reshape(-1, 1)
    m.params[2]["b"][...] = np.array([[b_head]], dtype=float)
    return m


class TestGlorotInit:
    def test_bounds(self):
        rng = np.random.default_rng(7)
        w = glorot_init(2, 3, rng)
        limit = math.sqrt(6.0 / 5.0)  # 1.0954...
        assert w.shape == (2, 3)
        assert np.all(np.abs(w) <= limit)

    def test_deterministic(self):
        a = glorot_init(1, 1, np.random.default_rng(3))
        b = glorot_init(1, 1, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_uniform_mean(self):
        rng = np.random.default_rng(11)
        draws = np.concatenate([glorot_init(3, 3, rng).ravel() for _ in range(1200)])
        assert draws.size >= 10_000
        assert abs(draws.mean()) < 0.02

    def test_zero_fan_rejected(self):
        with pytest.raises(ValueError):
            glorot_init(0, 3, np.random.default_rng(0))


class TestForward:
    def test_zero_weights_give_half(self):
        m = sigmoid_model([[0, 0], [0, 0]], [0, 0], [0, 0], 0.0)
        for x in ([1.0, 2.0], [-5.0, 3.0], [0.0, 0.0]):
            fp = forward(m, np.array([x]), train=False)
            assert fp.probs[0, 0] == pytest.approx(0.5)

    def test_softmax_symmetry(self):
        specs = [LayerSpec("softmax-head", 2, 3)]
        m = init_model(specs, OptimizerConfig("sgd-momentum", 0.1),
                       np.random.default_rng(0))
        m.params[0]["W"][:] = 0.0
        m.params[0]["b"][:] = 0.0
        fp = forward(m, np.array([[4.0, -1.0]]), train=False)
        assert np.allclose(fp.probs, [[1 / 3, 1 / 3, 1 / 3]])

    def test_hand_computed_pass(self):
        # (1,2) -> identity affine -> relu -> head w=(1,-1), b=0
        m = sigmoid_model([[1, 0], [0, 1]], [0, 0], [1, -1], 0.0)
        fp = forward(m, np.array([[1.0, 2.0]]), train=False)
        assert fp.probs[0, 0] == pytest.approx(1.0 / (1.0 + math.exp(1.0)), abs=1e-4)
        assert fp.probs[0, 0] == pytest.approx(0.2689, abs=1e-4)

    def test_softmax_rows_sum_to_one(self):
        specs = [LayerSpec("affine", 3, 8), LayerSpec("relu", 8, 8),
                 LayerSpec("softmax-head", 8, 5)]
        m = init_model(specs, OptimizerConfig("sgd-momentum", 0.1),
                       np.random.default_rng(5))
        fp = forward(m, np.random.default_rng(1).normal(size=(40, 3)) * 10, train=False)
        assert np.allclose(fp.probs.sum(axis=1), 1.0, atol=1e-9)

    def test_eval_forward_is_pure(self):
        specs = [LayerSpec("affine", 3, 4), LayerSpec("batchnorm", 4, 4),
                 LayerSpec("relu", 4, 4), LayerSpec("dropout", 4, 4, 0.5),
                 LayerSpec("sigmoid-head", 4, 1)]
        m = init_model(specs, OptimizerConfig("sgd-momentum", 0.1),
                       np.random.default_rng(2))
        x = np.random.default_rng(3).normal(size=(9, 3))
        out1 = forward(m, x, train=False).probs
        out2 = forward(m, x, train=False).probs
        assert np.array_equal(out1, out2)

    def test_train_dropout_deterministic_given_seed(self):
        specs = [LayerSpec("affine", 3, 4), LayerSpec("dropout", 4, 4, 0.4),
                 LayerSpec("sigmoid-head", 4, 1)]
        m = init_model(specs, OptimizerConfig("sgd-momentum", 0.1),
                       np.random.default_rng(2))
        x = np.random.default_rng(3).normal(size=(9, 3))
        # train passes share one workspace: keep a copy of the first result
        first = forward(m, x, rng=np.random.default_rng(9)).probs
        out1 = first.copy()
        first[...] = np.nan
        out2 = forward(m, x, rng=np.random.default_rng(9)).probs
        assert np.array_equal(out1, out2)
        # a different seed draws a different mask, so the check can fail
        out3 = forward(m, x, rng=np.random.default_rng(10)).probs
        assert not np.array_equal(out1, out3)

    def test_batchnorm_normalizes_batch(self):
        specs = [LayerSpec("batchnorm", 3, 3), LayerSpec("sigmoid-head", 3, 1)]
        m = init_model(specs, OptimizerConfig("sgd-momentum", 0.1),
                       np.random.default_rng(2))
        x = np.random.default_rng(4).normal(3.0, 2.5, size=(64, 3))
        fp = forward(m, x)
        # gamma=1, beta=0 at init, so the bn output is xhat itself
        _, xhat, _, _ = fp.caches[0]
        assert np.all(np.abs(xhat.mean(axis=0)) < 1e-6)
        assert np.all(np.abs(xhat.var(axis=0) - 1.0) < 1e-6)

    def test_dimension_mismatch(self):
        m = sigmoid_model([[1, 0], [0, 1]], [0, 0], [1, -1], 0.0)
        with pytest.raises(ValueError):
            forward(m, np.zeros((2, 3)))


class TestSpecValidation:
    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            validate_specs([LayerSpec("affine", 2, 3), LayerSpec("sigmoid-head", 4, 1)])

    def test_head_must_be_last_and_unique(self):
        with pytest.raises(ValueError):
            validate_specs([LayerSpec("sigmoid-head", 2, 1), LayerSpec("relu", 1, 1)])
        with pytest.raises(ValueError):
            validate_specs([LayerSpec("affine", 2, 2), LayerSpec("relu", 2, 2)])

    def test_head_dims(self):
        with pytest.raises(ValueError):
            LayerSpec("sigmoid-head", 4, 2)
        with pytest.raises(ValueError):
            LayerSpec("softmax-head", 4, 1)


class TestLoss:
    def test_half_probability(self):
        m = sigmoid_model([[0, 0], [0, 0]], [0, 0], [0, 0], 0.0)
        val = loss(np.array([[0.5]]), np.array([1]), m, 0.0)
        assert val == pytest.approx(math.log(2.0), abs=1e-6)

    def test_perfect_prediction_near_zero(self):
        m = sigmoid_model([[0, 0], [0, 0]], [0, 0], [0, 0], 0.0)
        probs = np.array([[1.0 - 1e-12], [1e-12]])
        assert loss(probs, np.array([1, 0]), m, 0.0) <= 1e-11

    def test_two_sample_batch(self):
        m = sigmoid_model([[0, 0], [0, 0]], [0, 0], [0, 0], 0.0)
        val = loss(np.array([[0.9], [0.1]]), np.array([1, 0]), m, 0.0)
        assert val == pytest.approx(0.105361, abs=1e-6)

    def test_extreme_probability_clamped(self):
        m = sigmoid_model([[0, 0], [0, 0]], [0, 0], [0, 0], 0.0)
        val = loss(np.array([[0.0]]), np.array([1]), m, 0.0)
        assert math.isfinite(val)


class TestBackward:
    def test_zero_input_kills_weight_grad(self):
        specs = [LayerSpec("affine", 2, 1), LayerSpec("sigmoid-head", 1, 1)]
        m = init_model(specs, OptimizerConfig("sgd-momentum", 0.1),
                       np.random.default_rng(0))
        x = np.zeros((4, 2))
        y = np.array([0, 1, 0, 1])
        fp = forward(m, x, train=True)
        grads = m.layout.views(backward(m, fp, y))
        assert np.allclose(grads[0]["W"], 0.0)
        assert not np.allclose(grads[0]["b"], 0.0)

    def test_requires_train_pass(self):
        m = sigmoid_model([[1, 0], [0, 1]], [0, 0], [1, -1], 0.0)
        fp = forward(m, np.array([[1.0, 2.0]]), train=False)
        with pytest.raises(RuntimeError):
            backward(m, fp, np.array([1]))

    def test_l2_gradient_matches_penalty_derivative(self):
        specs = [LayerSpec("affine", 2, 2), LayerSpec("sigmoid-head", 2, 1)]
        m = init_model(specs, OptimizerConfig("sgd-momentum", 0.1),
                       np.random.default_rng(1))
        l2 = 0.13
        fp = forward(m, np.random.default_rng(2).normal(size=(6, 2)), train=True)
        y = np.array([0, 1, 1, 0, 1, 0])
        # the second backward through fp's workspace overwrites the first's vector
        g_with = m.layout.views(backward(m, fp, y, l2_coeff=l2).copy())
        g_without = m.layout.views(backward(m, fp, y, l2_coeff=0.0))
        for layer in (0, 1):
            diff = g_with[layer]["W"] - g_without[layer]["W"]
            assert np.allclose(diff, l2 * m.params[layer]["W"])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        """A draw with a batch-wide dead relu unit is redrawn, as
        gradcheck_suite does: the loss is flat there and central differences
        measure only round-off."""
        specs = [LayerSpec("affine", 3, 5), LayerSpec("relu", 5, 5),
                 LayerSpec("sigmoid-head", 5, 1)]
        for attempt in range(16):
            rng = np.random.default_rng([seed, attempt] if attempt else seed)
            m = init_model(specs, OptimizerConfig("sgd-momentum", 0.1), rng)
            x = rng.normal(size=(8, 3))
            if not has_flat_relu(m, x):
                break
        else:
            pytest.fail("no draw without a batch-wide dead relu unit")
        err = grad_check(m, x, rng.integers(0, 2, 8), h=(1e-5, 1e-4, 1e-3))
        assert err < 1e-4

    def test_dropout_matches_finite_differences(self):
        """grad_check runs dropout as the identity. Here every pass is a
        train-mode pass whose mask comes from the same seed, so the loss is
        a function of the parameters alone and central differences check
        the masked backward pass. Dead-relu draws are redrawn as above."""
        specs = [LayerSpec("affine", 3, 5), LayerSpec("relu", 5, 5),
                 LayerSpec("dropout", 5, 5, 0.5), LayerSpec("sigmoid-head", 5, 1)]
        for attempt in range(16):
            rng = np.random.default_rng([7, attempt])
            m = init_model(specs, OptimizerConfig("sgd-momentum", 0.1), rng)
            x = rng.normal(size=(8, 3))
            if not has_flat_relu(m, x):
                break
        else:
            pytest.fail("no draw without a batch-wide dead relu unit")
        y = rng.integers(0, 2, 8)

        def train_pass():
            return forward(m, x, np.random.default_rng(11))

        (mask,) = train_pass().caches[2]
        assert set(np.unique(mask)) == {0.0, 2.0}  # the mask drops and rescales
        grads = m.layout.views(backward(m, train_pass(), y).copy())
        worst = 0.0
        for i, name, w in m.param_items():
            for idx in np.ndindex(w.shape):
                orig, analytic, best = w[idx], grads[i][name][idx], math.inf
                for h in (1e-5, 1e-4, 1e-3):
                    w[idx] = orig + h
                    hi = loss(train_pass().probs, y, m)
                    w[idx] = orig - h
                    lo = loss(train_pass().probs, y, m)
                    w[idx] = orig
                    numeric = (hi - lo) / (2.0 * h)
                    best = min(best, abs(analytic - numeric)
                               / max(abs(analytic), abs(numeric), 1e-8))
                worst = max(worst, best)
        assert worst < 1e-4


class TestOptStep:
    def make_scalar_model(self, kind="sgd-momentum"):
        specs = [LayerSpec("sigmoid-head", 1, 1)]
        m = init_model(specs, OptimizerConfig(kind, 0.1), np.random.default_rng(0))
        m.params[0]["W"][:] = 0.0
        m.params[0]["b"][:] = 0.0
        return m

    def grad_of_one(self, m):
        return np.array([1.0, 0.0])  # W, then b

    def test_first_step_is_plain_sgd(self):
        m = self.make_scalar_model()
        cfg = OptimizerConfig("sgd-momentum", 0.1, momentum=0.9)
        opt_step(m, self.grad_of_one(m), cfg, 0.1)
        assert m.params[0]["W"][0, 0] == pytest.approx(-0.1)

    def test_second_step_accumulates_momentum(self):
        m = self.make_scalar_model()
        cfg = OptimizerConfig("sgd-momentum", 0.1, momentum=0.9)
        opt_step(m, self.grad_of_one(m), cfg, 0.1)
        opt_step(m, self.grad_of_one(m), cfg, 0.1)
        # v2 = 0.9*(-0.1) - 0.1 = -0.19; w = -0.1 - 0.19
        assert m.params[0]["W"][0, 0] == pytest.approx(-0.29)
        assert m.layout.views(m.opt_state.flat["v"])[0]["W"][0, 0] == pytest.approx(-0.19)

    def test_zero_momentum_equals_vanilla_sgd(self):
        rng = np.random.default_rng(5)
        grads_seq = [rng.normal() for _ in range(6)]
        m = self.make_scalar_model()
        cfg = OptimizerConfig("sgd-momentum", 0.1, momentum=0.0)
        expected = 0.0
        for g in grads_seq:
            opt_step(m, np.array([g, 0.0]), cfg, 0.05)
            expected -= 0.05 * g
        assert m.params[0]["W"][0, 0] == pytest.approx(expected)

    def test_adam_first_step_magnitude(self):
        m = self.make_scalar_model("adam")
        cfg = OptimizerConfig("adam", 0.001)
        opt_step(m, self.grad_of_one(m), cfg, 0.001)
        # bias-corrected first step is ~ -lr * g/|g|
        assert m.params[0]["W"][0, 0] == pytest.approx(-0.001, rel=1e-6)

    def test_nonpositive_lr_rejected(self):
        m = self.make_scalar_model()
        cfg = OptimizerConfig("sgd-momentum", 0.1)
        with pytest.raises(ValueError):
            opt_step(m, self.grad_of_one(m), cfg, 0.0)

    def test_single_step_reduces_quadratic_loss(self):
        # full-batch on a separable toy problem with plain SGD
        specs = [LayerSpec("sigmoid-head", 2, 1)]
        rng = np.random.default_rng(8)
        m = init_model(specs, OptimizerConfig("sgd-momentum", 1e-3, momentum=0.0), rng)
        x = rng.normal(size=(32, 2))
        y = (x[:, 0] > 0).astype(int)
        cfg = OptimizerConfig("sgd-momentum", 1e-3, momentum=0.0)
        fp = forward(m, x, train=True)
        before = loss(fp.probs, y, m, 0.0)
        grads = backward(m, fp, y, 0.0)
        opt_step(m, grads, cfg, 1e-3)
        after = loss(forward(m, x).probs, y, m, 0.0)
        assert after < before


def reference_step(params, slots, grads, cfg, lr, t):
    """Per-tensor update on plain per-layer dicts; opt_step must match it
    bit for bit. `t` is the Adam step count after this update."""
    for layer, p in enumerate(params):
        for name, w in p.items():
            g, bufs = grads[layer][name], slots[layer][name]
            if cfg.kind == "sgd-momentum":
                bufs["v"] = cfg.momentum * bufs["v"] - lr * g
                w += bufs["v"]
            else:
                bufs["m"] = cfg.beta1 * bufs["m"] + (1.0 - cfg.beta1) * g
                bufs["v"] = cfg.beta2 * bufs["v"] + (1.0 - cfg.beta2) * g * g
                mhat = bufs["m"] / (1.0 - cfg.beta1 ** t)
                vhat = bufs["v"] / (1.0 - cfg.beta2 ** t)
                w -= lr * mhat / (np.sqrt(vhat) + cfg.epsilon)


class TestFlatStore:
    SPECS = [LayerSpec("affine", 3, 6), LayerSpec("batchnorm", 6, 6),
             LayerSpec("relu", 6, 6), LayerSpec("dropout", 6, 6, 0.3),
             LayerSpec("softmax-head", 6, 3)]

    @pytest.mark.parametrize("kind", ["sgd-momentum", "adam"])
    def test_opt_step_matches_per_tensor_reference(self, kind):
        cfg = OptimizerConfig(kind, 0.05, l2_coeff=0.01)
        rng = np.random.default_rng(4)
        m = init_model(self.SPECS, cfg, rng)
        roles = ("v",) if kind == "sgd-momentum" else ("m", "v")
        params = [{k: w.copy() for k, w in p.items()} for p in m.params]
        slots = [{k: {r: np.zeros_like(w) for r in roles} for k, w in p.items()}
                 for p in m.params]
        for t in range(1, 61):
            x = rng.normal(size=(16, 3))
            y = rng.integers(0, 3, 16)
            g = backward(m, forward(m, x, rng=rng), y, cfg.l2_coeff)
            lr = 0.05 if t <= 30 else 0.0125
            opt_step(m, g, cfg, lr)
            reference_step(params, slots, m.layout.views(g), cfg, lr, t)
        role_views = {role: m.layout.views(m.opt_state.flat[role]) for role in roles}
        for i, name, w in m.param_items():
            assert np.array_equal(w, params[i][name])
            for role in roles:
                assert np.array_equal(role_views[role][i][name], slots[i][name][role])

    @pytest.mark.parametrize("kind", ["sgd-momentum", "adam"])
    def test_params_and_slots_are_views_of_flat_vectors(self, kind):
        m = init_model(self.SPECS, OptimizerConfig(kind, 0.1), np.random.default_rng(0))
        flat = m.opt_state.flat
        assert m.theta.size == sum(w.size for _, _, w in m.param_items())
        assert np.array_equal(np.concatenate([w.ravel() for _, _, w in m.param_items()]),
                              m.theta)
        role_views = {role: m.layout.views(vec) for role, vec in flat.items()}
        for i, name, w in m.param_items():
            assert np.shares_memory(w, m.theta)
            for role, views in role_views.items():
                assert views[i][name].shape == w.shape
                assert np.shares_memory(views[i][name], flat[role])
                assert flat[role].size == m.theta.size

    def test_running_stats_are_views_updated_in_place(self):
        m = init_model(self.SPECS, OptimizerConfig("adam", 0.1), np.random.default_rng(0))
        assert m.running.size == 12
        assert np.array_equal(m.stats[1]["mean"], np.zeros((1, 6)))
        assert np.array_equal(m.stats[1]["var"], np.ones((1, 6)))
        x = np.random.default_rng(1).normal(size=(16, 3))
        before = m.running.copy()
        forward(m, x, pure=True)  # no generator: a pure pass draws no dropout mask
        assert np.array_equal(m.running, before)
        forward(m, x, np.random.default_rng(2))
        assert not np.array_equal(m.running, before)
        for stat in m.stats[1].values():
            assert np.shares_memory(stat, m.running)

    def test_non_finite_update_names_the_tensor(self):
        m = init_model(self.SPECS, OptimizerConfig("sgd-momentum", 0.1),
                       np.random.default_rng(0))
        g = np.zeros(m.theta.size)
        m.layout.views(g)[1]["beta"][0, 2] = np.inf
        with pytest.raises(FloatingPointError, match=r"layer 1, beta"):
            opt_step(m, g, OptimizerConfig("sgd-momentum", 0.1), 0.1)

    def test_gradient_must_match_theta(self):
        m = init_model(self.SPECS, OptimizerConfig("adam", 0.1), np.random.default_rng(0))
        with pytest.raises(ValueError, match="gradient shape"):
            opt_step(m, np.zeros(m.theta.size - 1), OptimizerConfig("adam", 0.1), 0.1)
        assert m.opt_state.step == 0


class TestWorkspace:
    SPECS = TestFlatStore.SPECS

    def batch(self, seed):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(16, 3)), rng.integers(0, 3, 16)

    def test_shared_workspace_matches_fresh(self):
        m = init_model(self.SPECS, OptimizerConfig("adam", 0.1), np.random.default_rng(0))
        ws = workspace(m.layout, 16)
        assert workspace(m.layout, 16) is ws
        grads = []
        for seed in (1, 2):
            x, y = self.batch(seed)
            fp = forward(m, x, np.random.default_rng(seed))
            assert fp is ws and fp.probs is ws.out[-1]
            grads.append(backward(m, fp, y, 0.01))
        # the flat gradient belongs to the workspace: the second backward
        # through it overwrote the first one's vector
        assert grads[0] is grads[1] is ws.grad
        # a workspace that held an earlier pass gives what a new one gives
        workspace.cache_clear()
        fresh = forward(m, x, np.random.default_rng(2))
        assert fresh is not ws and fresh is workspace(m.layout, 16)
        assert np.array_equal(backward(m, fresh, y, 0.01), grads[1])
        # an eval pass and a pure pass each get a workspace of their own
        assert forward(m, x, train=False) is not fresh
        kept = fresh.probs.copy()
        assert forward(m, x, pure=True) is not fresh
        assert np.array_equal(fresh.probs, kept)


class TestGradCheck:
    def test_linear_model_tight(self):
        specs = [LayerSpec("sigmoid-head", 3, 1)]
        rng = np.random.default_rng(0)
        m = init_model(specs, OptimizerConfig("sgd-momentum", 0.1), rng)
        err = grad_check(m, rng.normal(size=(10, 3)), rng.integers(0, 2, 10))
        assert err < 1e-6

    def test_zero_step_rejected(self):
        specs = [LayerSpec("sigmoid-head", 3, 1)]
        rng = np.random.default_rng(0)
        m = init_model(specs, OptimizerConfig("sgd-momentum", 0.1), rng)
        with pytest.raises(ValueError):
            grad_check(m, rng.normal(size=(4, 3)), rng.integers(0, 2, 4), h=0.0)

    def test_suite_covers_all_layer_kinds(self):
        assert gradcheck_suite(n_seeds=3) < 1e-4

    @pytest.mark.parametrize("n_seeds", [0, -3])
    def test_suite_needs_a_seed(self, n_seeds):
        with pytest.raises(ValueError, match="n_seeds"):
            gradcheck_suite(n_seeds=n_seeds)

    def test_suite_checks_every_kind_head_and_l2_setting(self, monkeypatch):
        checked = []

        def record(model, features, labels, l2_coeff=0.0, h=1e-5):
            checked.append((model.specs, l2_coeff))
            return 0.0

        monkeypatch.setattr(nn, "grad_check", record)
        assert gradcheck_suite(n_seeds=1) == 0.0
        assert {s.kind for specs, _ in checked for s in specs} == set(LAYER_KINDS)
        assert {specs[-1].kind for specs, _ in checked} == set(HEAD_KINDS)
        assert {l2 > 0 for _, l2 in checked} == {True, False}


# The golden architectures of the wire-format tests, and a softmax head.
TRAINING_MODELS = {**GOLDEN_MODELS,
                   "softmax-batchnorm-dropout-adam":
                       (mlp_specs(4, [8], 3, batchnorm=True, dropout=0.2), "adam")}


def _training_cfg(name):
    specs, kind = TRAINING_MODELS[name]
    opt = OptimizerConfig(kind, 0.05 if kind == "sgd-momentum" else 0.01,
                          l2_coeff=0.001 if name == "ordering-adam" else 0.0)
    # batch 8 over 37 samples leaves a partial last batch of 5
    return ExperimentConfig(model_specs=specs, optimizer=opt,
                            plateau=PlateauPolicy(5, 0.5, 1), batch_size=8,
                            augment_sigma=0.05 if "batchnorm" in name else 0.0)


def _cohort(cfg, seed, n=37):
    rng = np.random.default_rng([seed, 8])
    features = rng.normal(size=(n, cfg.model_specs[0].in_dim))
    labels = (features[:, 0] > 0).astype(np.int64)
    num_classes = max(2, cfg.model_specs[-1].out_dim)
    if num_classes > 2:
        labels += features[:, 1] > 0.5
    return Dataset(np.array([f"p{i}" for i in range(n)]), features, labels, num_classes)


def _state_digest(m):
    """sha256 of theta, the batch-norm running statistics and the optimizer
    role vectors, in that order."""
    h = hashlib.sha256(m.theta.tobytes())
    h.update(m.running.tobytes())
    for role in OPT_ROLES[m.opt_state.kind]:
        h.update(m.opt_state.flat[role].tobytes())
    return h.hexdigest()


def _trainer(name, seed, n=37):
    """A fresh model of architecture `name` with its own cohort and
    generator; each call of the returned function trains one epoch."""
    cfg = _training_cfg(name)
    m = init_model(cfg.model_specs, cfg.optimizer, np.random.default_rng([seed, 0]))
    cohort, rng = _cohort(cfg, seed, n), np.random.default_rng([seed, 1])
    lrs = iter([cfg.optimizer.learning_rate] * 2 + [cfg.optimizer.learning_rate / 4])

    def epoch():
        assert train_on(m, cohort, cfg, next(lrs), rng) == -(-n // cfg.batch_size)
    return m, epoch


# sha256 of _state_digest after three train_on epochs (two at the base
# learning rate, one at a quarter of it); pins the training step bit for bit.
TRAINING_SHA256 = {
    "demo-sgd":
        "8e038784c1e4a1f95327146596429bbcf847cf5ac99c44b0e99481669f4a739e",
    "ordering-adam":
        "cb5d17421e6aafacaaeb2aad0abc73012fe1d091cdefe4080a17e8c5fbafb524",
    "batchnorm-dropout-adam":
        "5e7018556aab1128347fb4b1ca0552b57c1f29e5abc8c4e07364547465fe44de",
    "softmax-batchnorm-dropout-adam":
        "08247501db9027b2963d5e362e3ceca0d4ee62b4f6fbdc9c5ba944ed99b13712",
}


@pytest.mark.parametrize("name", list(TRAINING_SHA256))
def test_training_digest(name):
    m, epoch = _trainer(name, seed=3)
    for _ in range(3):
        epoch()
    assert m.opt_state.step == (0 if m.opt_state.kind == "sgd-momentum" else 15)
    assert _state_digest(m) == TRAINING_SHA256[name]


def test_alternating_training_matches_sequential():
    """Two models of one layout, trained in turns, end as if each had been
    trained alone: nothing carries over between them through shared
    per-step buffers. Their cohorts differ in length, so their partial last
    batches differ in size."""
    def models(order):
        (a, step_a), (b, step_b) = (_trainer("batchnorm-dropout-adam", seed=4, n=37),
                                    _trainer("batchnorm-dropout-adam", seed=5, n=30))
        for who in order:
            (step_a if who == "a" else step_b)()
        return _state_digest(a), _state_digest(b)

    assert models("aaabbb") == models("ababab")
