"""Small feed-forward network with manual backpropagation.

Dense layers, ReLU, batch norm, inverted dropout, and a sigmoid or softmax
readout. Everything is float64 and deterministic given a seeded generator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

HEAD_KINDS = ("sigmoid-head", "softmax-head")
LAYER_KINDS = ("affine", "relu", "batchnorm", "dropout") + HEAD_KINDS

# Parameter names per layer kind, in canonical (wire) order.
PARAM_ORDER = {
    "affine": ("W", "b"),
    "sigmoid-head": ("W", "b"),
    "softmax-head": ("W", "b"),
    "batchnorm": ("gamma", "beta"),
    "relu": (),
    "dropout": (),
}
# Optimizer state vectors per optimizer kind, in wire order per parameter.
OPT_ROLES = {"sgd-momentum": ("v",), "adam": ("m", "v")}

PROB_CLAMP = 1e-12
BN_EPS = 1e-10
BN_DECAY = 0.99


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    in_dim: int
    out_dim: int
    dropout_rate: float = 0.0

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError("layer dimensions must be >= 1")
        if self.kind == "dropout":
            if not (0.0 <= self.dropout_rate < 1.0):
                raise ValueError("dropout_rate must be in [0, 1)")
        if self.kind in ("relu", "batchnorm", "dropout") and self.in_dim != self.out_dim:
            raise ValueError(f"{self.kind} layer must preserve width")
        if self.kind == "sigmoid-head" and self.out_dim != 1:
            raise ValueError("sigmoid-head requires out_dim == 1")
        if self.kind == "softmax-head" and self.out_dim < 2:
            raise ValueError("softmax-head requires out_dim >= 2")


def validate_specs(specs):
    """Check layer chaining and head placement; raises ValueError."""
    if not specs:
        raise ValueError("empty layer list")
    for prev, cur in zip(specs, specs[1:]):
        if prev.out_dim != cur.in_dim:
            raise ValueError(
                f"layer width mismatch: {prev.kind}({prev.out_dim}) -> {cur.kind}({cur.in_dim})"
            )
    heads = [i for i, s in enumerate(specs) if s.kind in HEAD_KINDS]
    if len(heads) != 1 or heads[0] != len(specs) - 1:
        raise ValueError("model needs exactly one head layer, placed last")
    return list(specs)


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str  # "sgd-momentum" | "adam"
    learning_rate: float
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    l2_coeff: float = 0.0

    def __post_init__(self):
        if self.kind not in ("sgd-momentum", "adam"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must be in [0, 1)")
        if self.l2_coeff < 0:
            raise ValueError("l2_coeff must be >= 0")


@dataclass(frozen=True)
class Batch:
    features: np.ndarray  # (n, d)
    labels: np.ndarray    # (n,) int

    def __post_init__(self):
        if self.features.ndim != 2 or len(self.features) != len(self.labels):
            raise ValueError("features must be (n, d) with matching labels")
        if len(self.labels) < 1:
            raise ValueError("batch must hold at least one sample")


def param_shapes(specs):
    """Yield (layer_index, name, shape) of every parameter in canonical order."""
    for i, spec in enumerate(specs):
        for name in PARAM_ORDER[spec.kind]:
            yield i, name, (spec.in_dim if name == "W" else 1, spec.out_dim)


def param_count(specs) -> int:
    return sum(r * c for _, _, (r, c) in param_shapes(specs))


def flat_views(specs, flat: np.ndarray) -> list:
    """Per layer: dict name -> parameter-shaped view into the vector `flat`."""
    views = [{} for _ in specs]
    offset = 0
    for i, name, (r, c) in param_shapes(specs):
        views[i][name] = flat[offset:offset + r * c].reshape(r, c)
        offset += r * c
    return views


@dataclass
class ModelState:
    """A model whose parameters live in one float64 vector, `theta`, laid
    out in canonical (wire) order; `params` holds views into it, so writes
    must go through the arrays (``w[...] = x``), never rebind them."""
    specs: list
    theta: np.ndarray
    bn_running: list    # per layer: {"mean", "var"} for batchnorm, else {}
    opt_state: dict     # see fresh_opt_state
    params: list = field(init=False)  # per layer: dict name -> (r, c) view into theta

    def __post_init__(self):
        self.params = flat_views(self.specs, self.theta)

    @property
    def num_classes(self) -> int:
        head = self.specs[-1]
        return 2 if head.kind == "sigmoid-head" else head.out_dim

    def param_items(self):
        """Yield (layer_index, name, array) in canonical order."""
        for i, name, _ in param_shapes(self.specs):
            yield i, name, self.params[i][name]


def glorot_init(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    if fan_in < 1 or fan_out < 1:
        raise ValueError("fan dimensions must be >= 1")
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def fresh_opt_state(kind: str, specs) -> dict:
    """Zeroed optimizer state: one vector the size of theta per role in
    "flat", and per layer in "slots" dict name -> {role: view into it}."""
    flat = {role: np.zeros(param_count(specs)) for role in OPT_ROLES[kind]}
    views = {role: flat_views(specs, vec) for role, vec in flat.items()}
    slots = [{} for _ in specs]
    for i, name, _ in param_shapes(specs):
        slots[i][name] = {role: views[role][i][name] for role in flat}
    return {"kind": kind, "step": 0, "flat": flat, "slots": slots}


def init_model(specs, opt_cfg: OptimizerConfig, rng: np.random.Generator) -> ModelState:
    """Build a ModelState with Glorot-uniform weights (biases included)."""
    specs = validate_specs(specs)
    model = ModelState(specs=specs, theta=np.empty(param_count(specs)),
                       bn_running=[{} for _ in specs],
                       opt_state=fresh_opt_state(opt_cfg.kind, specs))
    for spec, p, run in zip(specs, model.params, model.bn_running):
        if spec.kind in ("affine",) + HEAD_KINDS:
            limit = math.sqrt(6.0 / (spec.in_dim + spec.out_dim))
            p["W"][...] = glorot_init(spec.in_dim, spec.out_dim, rng)
            # biases share the layer's Glorot limit (same fan pair)
            p["b"][...] = rng.uniform(-limit, limit, size=(1, spec.out_dim))
        elif spec.kind == "batchnorm":
            d = spec.out_dim
            p["gamma"][...] = 1.0
            p["beta"][...] = 0.0
            run.update(mean=np.zeros((1, d)), var=np.ones((1, d)))
    return model


@dataclass
class ForwardPass:
    probs: np.ndarray
    caches: list
    train: bool


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _softmax(z):
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def forward(model: ModelState, features: np.ndarray, rng: np.random.Generator | None = None,
            *, train: bool = True, apply_dropout: bool = True,
            update_running: bool = True) -> ForwardPass:
    """Run the network in train mode, or in eval mode with `train=False`.

    In eval mode dropout is the identity and batch norm uses running
    statistics, so the call is pure. In train mode batch norm uses batch
    statistics (and updates the running averages unless told not to) and
    dropout draws a fresh inverted-scaling mask from `rng`.
    """
    if features.ndim != 2 or features.shape[1] != model.specs[0].in_dim:
        raise ValueError(
            f"expected input width {model.specs[0].in_dim}, got {features.shape}"
        )
    a = np.asarray(features, dtype=np.float64)
    caches = []
    for i, spec in enumerate(model.specs):
        p = model.params[i]
        if spec.kind == "affine":
            caches.append((a,))
            a = a @ p["W"] + p["b"]
        elif spec.kind == "relu":
            caches.append((a,))
            a = np.maximum(a, 0.0)
        elif spec.kind == "batchnorm":
            if train:
                mu = a.mean(axis=0, keepdims=True)
                var = a.var(axis=0, keepdims=True)
                if update_running:
                    run = model.bn_running[i]
                    run["mean"] = BN_DECAY * run["mean"] + (1.0 - BN_DECAY) * mu
                    run["var"] = BN_DECAY * run["var"] + (1.0 - BN_DECAY) * var
            else:
                mu = model.bn_running[i]["mean"]
                var = model.bn_running[i]["var"]
            ivar = 1.0 / np.sqrt(var + BN_EPS)
            xhat = (a - mu) * ivar
            caches.append((a, xhat, ivar, mu))
            a = p["gamma"] * xhat + p["beta"]
        elif spec.kind == "dropout":
            if train and apply_dropout and spec.dropout_rate > 0.0:
                if rng is None:
                    raise ValueError("train-mode dropout needs a generator")
                keep = 1.0 - spec.dropout_rate
                mask = (rng.random(a.shape) < keep) / keep
                caches.append((mask,))
                a = a * mask
            else:
                caches.append((None,))
        elif spec.kind == "sigmoid-head":
            z = a @ p["W"] + p["b"]
            probs = np.clip(_sigmoid(z), PROB_CLAMP, 1.0 - PROB_CLAMP)
            caches.append((a, probs))
            a = probs
        elif spec.kind == "softmax-head":
            z = a @ p["W"] + p["b"]
            probs = _softmax(z)
            caches.append((a, probs))
            a = probs
    return ForwardPass(probs=a, caches=caches, train=train)


def l2_penalty(model: ModelState, l2_coeff: float) -> float:
    if l2_coeff == 0.0:
        return 0.0
    total = 0.0
    for spec, p in zip(model.specs, model.params):
        if spec.kind in ("affine",) + HEAD_KINDS:
            total += float(np.sum(p["W"] ** 2))
    return l2_coeff * 0.5 * total


def loss(probs: np.ndarray, labels: np.ndarray, model: ModelState, l2_coeff: float = 0.0) -> float:
    """Mean cross-entropy plus the L2 weight penalty.

    Probabilities are clamped to [1e-12, 1-1e-12] before the log, so a
    confident wrong prediction yields a large finite loss, never an error.
    """
    labels = np.asarray(labels)
    if len(labels) != len(probs):
        raise ValueError("probs and labels must share a batch size")
    if probs.shape[1] == 1:
        p = np.clip(probs[:, 0], PROB_CLAMP, 1.0 - PROB_CLAMP)
        y = labels.astype(np.float64)
        ce = -np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
    else:
        p = np.clip(probs[np.arange(len(labels)), labels], PROB_CLAMP, 1.0 - PROB_CLAMP)
        ce = -np.mean(np.log(p))
    return float(ce + l2_penalty(model, l2_coeff))


def backward(model: ModelState, fp: ForwardPass, labels: np.ndarray, l2_coeff: float = 0.0):
    """Analytic gradients of loss() w.r.t. every parameter.

    Requires a train-mode ForwardPass (batch-statistics batch norm, stored
    dropout masks).
    """
    if not fp.train:
        raise RuntimeError("backward needs activations from a train-mode forward pass")
    labels = np.asarray(labels)
    n = len(labels)
    grads = [dict() for _ in model.specs]
    head = model.specs[-1]
    a_in, probs = fp.caches[-1]
    if head.kind == "sigmoid-head":
        y = labels.astype(np.float64).reshape(-1, 1)
        dz = (probs - y) / n
    else:
        onehot = np.zeros_like(probs)
        onehot[np.arange(n), labels] = 1.0
        dz = (probs - onehot) / n
    p = model.params[-1]
    grads[-1]["W"] = a_in.T @ dz + l2_coeff * p["W"]
    grads[-1]["b"] = dz.sum(axis=0, keepdims=True)
    da = dz @ p["W"].T

    for i in range(len(model.specs) - 2, -1, -1):
        spec = model.specs[i]
        p = model.params[i]
        cache = fp.caches[i]
        if spec.kind == "affine":
            (x,) = cache
            grads[i]["W"] = x.T @ da + l2_coeff * p["W"]
            grads[i]["b"] = da.sum(axis=0, keepdims=True)
            da = da @ p["W"].T
        elif spec.kind == "relu":
            (x,) = cache
            da = da * (x > 0.0)
        elif spec.kind == "dropout":
            (mask,) = cache
            if mask is not None:
                da = da * mask
        elif spec.kind == "batchnorm":
            x, xhat, ivar, mu = cache
            m = x.shape[0]
            grads[i]["gamma"] = (da * xhat).sum(axis=0, keepdims=True)
            grads[i]["beta"] = da.sum(axis=0, keepdims=True)
            dxhat = da * p["gamma"]
            dvar = np.sum(dxhat * (x - mu), axis=0, keepdims=True) * (-0.5) * ivar ** 3
            dmu = -np.sum(dxhat, axis=0, keepdims=True) * ivar \
                + dvar * np.mean(-2.0 * (x - mu), axis=0, keepdims=True)
            da = dxhat * ivar + dvar * 2.0 * (x - mu) / m + dmu / m
    return grads


def opt_step(model: ModelState, grads, cfg: OptimizerConfig, lr: float) -> ModelState:
    """Apply one optimizer update in place and return the model.

    SGD with momentum: v <- mu*v - lr*g; w <- w + v. Adam uses the standard
    bias-corrected update. Each runs on the whole parameter vector at once,
    with the same per-element operation order as a per-tensor update.
    """
    if lr <= 0:
        raise ValueError("learning rate must be > 0")
    opt = model.opt_state
    if cfg.kind != opt["kind"]:
        raise ValueError(f"optimizer state is {opt['kind']!r}, config wants {cfg.kind!r}")
    flat_grads = []
    for i, name, w in model.param_items():
        g = grads[i][name]
        if g.shape != w.shape:
            raise ValueError(f"gradient shape {g.shape} != param shape {w.shape}")
        flat_grads.append(g.ravel())
    g = np.concatenate(flat_grads)
    theta = model.theta
    if cfg.kind == "sgd-momentum":
        v = opt["flat"]["v"]
        v *= cfg.momentum
        v -= lr * g
        theta += v
    else:
        opt["step"] += 1
        t = opt["step"]
        m, v = opt["flat"]["m"], opt["flat"]["v"]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        gg = (1.0 - cfg.beta2) * g
        gg *= g
        v += gg
        step = m / (1.0 - cfg.beta1 ** t)
        step *= lr
        denom = v / (1.0 - cfg.beta2 ** t)
        np.sqrt(denom, out=denom)
        denom += cfg.epsilon
        step /= denom
        theta -= step
    if not np.isfinite(theta).all():
        i, name = next((i, name) for i, name, w in model.param_items()
                       if not np.isfinite(w).all())
        raise FloatingPointError(f"non-finite parameter after update (layer {i}, {name})")
    return model


def has_flat_relu(model: ModelState, features: np.ndarray) -> bool:
    """True if some relu unit is inactive for every sample in the batch.

    Such a unit makes the loss locally flat in its incoming parameters, so
    a finite-difference probe there measures only float round-off.
    """
    fp = forward(model, features, apply_dropout=False, update_running=False)
    for spec, cache in zip(model.specs, fp.caches):
        if spec.kind == "relu":
            (x,) = cache
            if not np.all((x > 0.0).any(axis=0)):
                return True
    return False


def grad_check(model: ModelState, batch: Batch, l2_coeff: float = 0.0,
               h: float | tuple = 1e-5) -> float:
    """Max relative error of backward() vs central finite differences.

    Runs with dropout forced to the identity and frozen batch-norm running
    stats so the loss is a deterministic function of the parameters.
    Relative error per entry is |analytic - numeric| / max(|analytic|,
    |numeric|, 1e-8). When `h` is a tuple of step sizes, each entry keeps
    its best step (small steps lose near-flat directions to round-off,
    large steps risk curvature error; a wrong gradient fails at every
    step).
    """
    steps = tuple(h) if isinstance(h, (tuple, list)) else (h,)
    if not steps or any(s <= 0 for s in steps):
        raise ValueError("finite-difference step must be > 0")

    def loss_at():
        fp = forward(model, batch.features, apply_dropout=False, update_running=False)
        return loss(fp.probs, batch.labels, model, l2_coeff)

    fp = forward(model, batch.features, apply_dropout=False, update_running=False)
    grads = backward(model, fp, batch.labels, l2_coeff)
    worst = 0.0
    for i, name, w in model.param_items():
        g = grads[i][name]
        it = np.nditer(w, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            analytic = g[idx]
            orig = w[idx]
            best = math.inf
            for step in steps:
                w[idx] = orig + step
                hi = loss_at()
                w[idx] = orig - step
                lo = loss_at()
                w[idx] = orig
                numeric = (hi - lo) / (2.0 * step)
                denom = max(abs(analytic), abs(numeric), 1e-8)
                best = min(best, abs(analytic - numeric) / denom)
            worst = max(worst, best)
    return worst


def gradcheck_suite(n_seeds: int = 20, h=(1e-5, 3e-5, 1e-4, 3e-4, 1e-3)) -> float:
    """Max grad_check error over a battery of architectures and seeds.

    Covers affine, relu, batch norm, dropout (disabled path), both heads,
    and runs with and without L2. Draws with a batch-wide dead relu unit
    are redrawn: the loss is flat there and central differences resolve
    only round-off noise.
    """
    configs = (
        (2, 0.0, True, 0.5),    # sigmoid head, batchnorm + dropout
        (3, 0.01, True, 0.0),   # softmax head, batchnorm, with L2
        (2, 0.001, False, 0.3),
        (4, 0.0, False, 0.0),
    )
    worst = 0.0
    for seed in range(n_seeds):
        for num_classes, l2, with_bn, drop in configs:
            width = 8
            specs = [LayerSpec("affine", 4, width), LayerSpec("relu", width, width)]
            if with_bn:
                specs.append(LayerSpec("batchnorm", width, width))
            if drop > 0.0:
                specs.append(LayerSpec("dropout", width, width, dropout_rate=drop))
            if num_classes == 2:
                specs.append(LayerSpec("sigmoid-head", width, 1))
            else:
                specs.append(LayerSpec("softmax-head", width, num_classes))
            opt = OptimizerConfig("sgd-momentum", learning_rate=0.01, l2_coeff=l2)
            for attempt in range(16):
                rng = np.random.default_rng([seed, 3, attempt])
                features = rng.normal(size=(16, 4))
                labels = rng.integers(0, num_classes, 16)
                model = init_model(specs, opt, rng)
                if not has_flat_relu(model, features):
                    break
            else:
                raise RuntimeError("could not draw a non-degenerate model")
            err = grad_check(model, Batch(features, labels), l2_coeff=l2, h=h)
            worst = max(worst, err)
    return worst
