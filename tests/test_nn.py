import math

import numpy as np
import pytest

from fedcycle.nn import (Batch, LayerSpec, OptimizerConfig, backward, forward,
                         glorot_init, grad_check, gradcheck_suite,
                         has_flat_relu, init_model, loss, opt_step,
                         validate_specs)


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
        out1 = forward(m, x, rng=np.random.default_rng(9)).probs
        out2 = forward(m, x, rng=np.random.default_rng(9)).probs
        assert np.array_equal(out1, out2)

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
        grads = backward(m, fp, y)
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
        g_with = backward(m, fp, y, l2_coeff=l2)
        g_without = backward(m, fp, y, l2_coeff=0.0)
        for layer in (0, 1):
            diff = g_with[layer]["W"] - g_without[layer]["W"]
            assert np.allclose(diff, l2 * m.params[layer]["W"])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        specs = [LayerSpec("affine", 3, 5), LayerSpec("relu", 5, 5),
                 LayerSpec("sigmoid-head", 5, 1)]
        rng = np.random.default_rng(seed)
        m = init_model(specs, OptimizerConfig("sgd-momentum", 0.1), rng)
        x = rng.normal(size=(8, 3))
        if has_flat_relu(m, x):
            pytest.skip("degenerate draw")
        err = grad_check(m, Batch(x, rng.integers(0, 2, 8)), h=(1e-5, 1e-4, 1e-3))
        assert err < 1e-4


class TestOptStep:
    def make_scalar_model(self, kind="sgd-momentum"):
        specs = [LayerSpec("sigmoid-head", 1, 1)]
        m = init_model(specs, OptimizerConfig(kind, 0.1), np.random.default_rng(0))
        m.params[0]["W"][:] = 0.0
        m.params[0]["b"][:] = 0.0
        return m

    def grad_of_one(self, m):
        return [{"W": np.array([[1.0]]), "b": np.array([[0.0]])}]

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
        assert m.opt_state["slots"][0]["W"]["v"][0, 0] == pytest.approx(-0.19)

    def test_zero_momentum_equals_vanilla_sgd(self):
        rng = np.random.default_rng(5)
        grads_seq = [rng.normal() for _ in range(6)]
        m = self.make_scalar_model()
        cfg = OptimizerConfig("sgd-momentum", 0.1, momentum=0.0)
        expected = 0.0
        for g in grads_seq:
            opt_step(m, [{"W": np.array([[g]]), "b": np.zeros((1, 1))}], cfg, 0.05)
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
            grads = backward(m, forward(m, x, rng=rng), y, cfg.l2_coeff)
            lr = 0.05 if t <= 30 else 0.0125
            opt_step(m, grads, cfg, lr)
            reference_step(params, slots, grads, cfg, lr, t)
        for i, name, w in m.param_items():
            assert np.array_equal(w, params[i][name])
            for role in roles:
                assert np.array_equal(m.opt_state["slots"][i][name][role],
                                      slots[i][name][role])

    @pytest.mark.parametrize("kind", ["sgd-momentum", "adam"])
    def test_params_and_slots_are_views_of_flat_vectors(self, kind):
        m = init_model(self.SPECS, OptimizerConfig(kind, 0.1), np.random.default_rng(0))
        flat = m.opt_state["flat"]
        assert m.theta.size == sum(w.size for _, _, w in m.param_items())
        assert np.array_equal(np.concatenate([w.ravel() for _, _, w in m.param_items()]),
                              m.theta)
        for i, name, w in m.param_items():
            assert np.shares_memory(w, m.theta)
            for role, buf in m.opt_state["slots"][i][name].items():
                assert buf.shape == w.shape
                assert np.shares_memory(buf, flat[role])
                assert flat[role].size == m.theta.size

    def test_non_finite_update_names_the_tensor(self):
        m = init_model(self.SPECS, OptimizerConfig("sgd-momentum", 0.1),
                       np.random.default_rng(0))
        grads = [{k: np.zeros_like(w) for k, w in p.items()} for p in m.params]
        grads[1]["beta"][0, 2] = np.inf
        with pytest.raises(FloatingPointError, match=r"layer 1, beta"):
            opt_step(m, grads, OptimizerConfig("sgd-momentum", 0.1), 0.1)


class TestGradCheck:
    def test_linear_model_tight(self):
        specs = [LayerSpec("sigmoid-head", 3, 1)]
        rng = np.random.default_rng(0)
        m = init_model(specs, OptimizerConfig("sgd-momentum", 0.1), rng)
        err = grad_check(m, Batch(rng.normal(size=(10, 3)), rng.integers(0, 2, 10)))
        assert err < 1e-6

    def test_zero_step_rejected(self):
        specs = [LayerSpec("sigmoid-head", 3, 1)]
        rng = np.random.default_rng(0)
        m = init_model(specs, OptimizerConfig("sgd-momentum", 0.1), rng)
        with pytest.raises(ValueError):
            grad_check(m, Batch(rng.normal(size=(4, 3)), rng.integers(0, 2, 4)), h=0.0)

    def test_suite_covers_all_layer_kinds(self):
        assert gradcheck_suite(n_seeds=3) < 1e-4
