"""Small feed-forward network with manual backpropagation.

Dense layers, ReLU, batch norm, inverted dropout, and a sigmoid or softmax
readout. Everything is float64 and deterministic given a seeded generator.
The passes also run R models of one layout as one stack (`stack_models`):
every array of a pass then carries a leading run axis of length R.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Literal, NamedTuple

import numpy as np

HEAD_KINDS = ("sigmoid-head", "softmax-head")

# Parameter names per layer kind, in canonical (wire) order.
PARAM_ORDER = {
    "affine": ("W", "b"),
    "sigmoid-head": ("W", "b"),
    "softmax-head": ("W", "b"),
    "batchnorm": ("gamma", "beta"),
    "relu": (),
    "dropout": (),
}
LAYER_KINDS = tuple(PARAM_ORDER)  # every layer kind
# Running statistics per layer kind, in canonical (wire) order.
RUNNING_ORDER = {"batchnorm": ("mean", "var")}
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
        if not (isinstance(self.in_dim, numbers.Integral)
                and isinstance(self.out_dim, numbers.Integral)):
            raise ValueError("layer dimensions must be integers")
        if not isinstance(self.dropout_rate, numbers.Real):
            raise ValueError("dropout_rate must be a real number")
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
    if dropout != 0.0:  # a negative rate reaches LayerSpec, which rejects it
        specs.append(LayerSpec("dropout", width, width, dropout_rate=dropout))
    if num_classes == 2:
        specs.append(LayerSpec("sigmoid-head", width, 1))
    else:
        specs.append(LayerSpec("softmax-head", width, num_classes))
    return specs


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
    kind: Literal["sgd-momentum", "adam"]
    learning_rate: float
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    l2_coeff: float = 0.0

    def __post_init__(self):
        if self.kind not in OPT_ROLES:
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if not self.learning_rate > 0:  # a NaN fails it too
            raise ValueError("learning_rate must be > 0")
        for name in ("momentum", "beta1"):
            if not (0.0 <= getattr(self, name) < 1.0):
                raise ValueError(f"{name} must be in [0, 1)")
        # At beta2 = 0 the second moment is the last squared gradient alone, so
        # a weight whose gradient is exactly 0 (behind a dead relu unit) while
        # its first moment is not steps by lr * mhat / epsilon.
        if not (0.0 < self.beta2 < 1.0):
            raise ValueError("beta2 must be in (0, 1)")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be > 0")
        if not self.l2_coeff >= 0:
            raise ValueError("l2_coeff must be >= 0")


class ParamSlice(NamedTuple):
    """Where one parameter or running statistic lives: layer `layer`, name
    `name`, elements `start:stop` of its vector, reshaped to `shape`."""
    layer: int
    name: str
    start: int
    stop: int
    shape: tuple


@dataclass(frozen=True, eq=False)
class Layout:
    """The fixed facts of one architecture, worked out once by `layout_of`:
    each parameter's and running statistic's slice of its vector, in wire order."""
    specs: tuple
    params: tuple       # ParamSlice per parameter
    size: int           # parameter count, len(theta)
    running: tuple      # ParamSlice per running statistic: mean, var per batch-norm layer
    running_size: int   # len of the running vector

    def views(self, flat: np.ndarray, slices: tuple | None = None) -> list:
        """Per layer: dict name -> view into `flat` of each of `slices` (default:
        params). A flat array with a leading run axis, (R, size), gives views
        with that axis, (R, *shape); its rows must be contiguous."""
        views, lead = [{} for _ in self.specs], flat.shape[:-1]
        for i, name, start, stop, shape in self.params if slices is None else slices:
            views[i][name] = flat[..., start:stop].reshape(lead + shape)
        return views


def layout_of(specs) -> Layout:
    """The Layout of a layer-spec sequence; validated and built once per
    distinct sequence, then shared (read-only) by every model of it."""
    return _layout(tuple(specs))


def _slices(specs: tuple, order: dict) -> tuple:
    """The ParamSlices of each layer's `order[kind]` names, back to back, and their total."""
    slices, start = [], 0
    for i, spec in enumerate(specs):
        for name in order.get(spec.kind, ()):
            shape = (spec.in_dim if name == "W" else 1, spec.out_dim)
            slices.append(ParamSlice(i, name, start, start + shape[0] * shape[1], shape))
            start += shape[0] * shape[1]
    return tuple(slices), start


@functools.lru_cache(maxsize=128)
def _layout(specs: tuple) -> Layout:
    validate_specs(specs)
    return Layout(specs, *_slices(specs, PARAM_ORDER), *_slices(specs, RUNNING_ORDER))


@dataclass
class OptState:
    """Optimizer state: its kind (None when a packet carried none), the
    Adam step count, and one theta-sized vector per role in OPT_ROLES."""
    kind: str | None
    step: int = 0
    flat: dict = field(default_factory=dict)

    @classmethod
    def zeros(cls, kind: str, size: int) -> OptState:
        return cls(kind, 0, {role: np.zeros(size) for role in OPT_ROLES[kind]})


@dataclass
class ModelState:
    """A model: its layout, its parameters in one float64 vector `theta`, its
    batch-norm running statistics in another, `running`, and its optimizer
    state. `params` and `stats` hold per-layer views into theta and running,
    so writes must go through the arrays (``w[...] = x``), never rebind them.

    A stack of R models (`stack_models`) is a ModelState whose theta and
    running are (R, P) and (R, Q), one row per model, with views that carry
    the run axis; its models keep their own optimizer states, so its own is
    empty (kind None)."""
    layout: Layout = field(repr=False)
    theta: np.ndarray
    running: np.ndarray
    opt_state: OptState
    params: list = field(init=False)  # per layer: dict name -> (r, c) view into theta
    stats: list = field(init=False)   # per layer: {"mean", "var"} (1, d) views for batchnorm

    def __post_init__(self):
        self.params = self.layout.views(self.theta)
        self.stats = self.layout.views(self.running, self.layout.running)

    @property
    def specs(self) -> tuple:
        return self.layout.specs


def stack_models(models) -> ModelState:
    """The stack of `models`, which share one layout: their theta and running
    are copied into the rows of one (R, P) and one (R, Q) array, and each
    model is re-pointed at its rows, so an update through either is seen by
    both. A model's values do not change, and it keeps its optimizer state."""
    layout = models[0].layout
    if any(m.layout is not layout for m in models):
        raise ValueError("a stack's models must share one layout")
    theta, running = np.stack([m.theta for m in models]), np.stack([m.running for m in models])
    for m, row, stats in zip(models, theta, running):
        m.theta, m.running = row, stats
        m.__post_init__()
    return ModelState(layout, theta, running, OptState(None))


def glorot_init(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    if fan_in < 1 or fan_out < 1:
        raise ValueError("fan dimensions must be >= 1")
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_model(specs, opt_cfg: OptimizerConfig, rng: np.random.Generator) -> ModelState:
    """Build a ModelState with Glorot-uniform weights (biases included)."""
    layout = layout_of(specs)
    model = ModelState(layout, np.empty(layout.size), np.zeros(layout.running_size),
                       OptState.zeros(opt_cfg.kind, layout.size))
    for spec, p, run in zip(layout.specs, model.params, model.stats):
        if "W" in p:  # affine layers and both heads
            limit = math.sqrt(6.0 / (spec.in_dim + spec.out_dim))
            p["W"][...] = glorot_init(spec.in_dim, spec.out_dim, rng)
            # biases share the layer's Glorot limit (same fan pair)
            p["b"][...] = rng.uniform(-limit, limit, size=(1, spec.out_dim))
        elif spec.kind == "batchnorm":
            p["gamma"][...] = 1.0
            p["beta"][...] = 0.0
            run["var"][...] = 1.0
    return model


class Workspace:
    """One forward pass of an architecture at a fixed batch size and the
    arrays it and its backward pass write into, so that a training step
    allocates almost nothing; each pass overwrites the last one's arrays.

    Per layer, `ins[i]` is the array the pass fed it, `out[i]` its output
    buffer and `aux[i]` its other forward buffers. `forward` sets `ins`,
    `probs` (the head's output) and `train`: with these buffers and the
    model, they are all that backward reads. The flat gradient and the
    backward buffers are made on the first backward pass, so a workspace
    that only evaluates never holds them. A pass of a stack of `runs`
    models gives every array a leading run axis of that length.
    """

    def __init__(self, layout: Layout, rows: int, runs: int | None = None):
        self.layout = layout
        self.rows = rows
        self.lead = lead = () if runs is None else (runs,)
        self.probs, self.train = None, False
        self.ins = [None] * len(layout.specs)
        self.out, self.aux = [], []
        for spec in layout.specs:
            shape = (*lead, rows, spec.out_dim)
            self.out.append(np.empty(shape))
            if spec.kind == "relu":
                aux = (np.empty(shape, dtype=bool),)                     # x > 0, for backward
            elif spec.kind == "batchnorm":
                stat = (*lead, 1, spec.out_dim)
                aux = (np.empty(shape), np.empty(stat), np.empty(stat))  # xhat, batch mean, 1/std
            elif spec.kind == "dropout":
                aux = (np.empty(shape), np.empty(shape, dtype=bool))     # mask, kept
            elif spec.kind == "sigmoid-head":
                aux = (np.empty(shape), np.empty(shape, dtype=bool))     # 1 + e, z >= 0
            elif spec.kind == "softmax-head":
                aux = (np.empty((*lead, rows, 1)),)                      # row max, row sum
            else:
                aux = ()
            self.aux.append(aux)

    @functools.cached_property
    def grad(self) -> np.ndarray:
        """The flat gradient, laid out like theta: one row per run of a stack."""
        return np.empty((*self.lead, self.layout.size))

    @functools.cached_property
    def back(self) -> tuple:
        """Backward buffers: per-layer views of `grad`, the head's output
        gradient, and per layer the buffer of its input gradient (affine and
        heads above layer 0; None elsewhere)."""
        dz = np.empty((*self.lead, self.rows, self.layout.specs[-1].out_dim))
        din = [np.empty((*self.lead, self.rows, s.in_dim))
               if i and "W" in PARAM_ORDER[s.kind] else None
               for i, s in enumerate(self.layout.specs)]
        return self.layout.views(self.grad), dz, din


@functools.lru_cache(maxsize=32)
def workspace(layout: Layout, rows: int, runs: int | None = None) -> Workspace:
    """The Workspace of `layout` at `rows` batch rows, of a stack of `runs`
    models if given, that train-mode passes share: every pass through it
    overwrites the last one's arrays."""
    return Workspace(layout, rows, runs)


def forward(model: ModelState, features: np.ndarray, rng: np.random.Generator | None = None,
            *, train: bool = True) -> Workspace:
    """Run the network and return the pass: its Workspace, with `ins`,
    `probs` and `train`. A stack's pass (`stack_models`) takes one batch per
    run, (R, rows, in_dim), and for dropout a sequence of R generators, run
    r's masks drawn from the r-th; its products go through `np.matmul` over
    the run axis, a single model's through `np.dot`. A pass is one of two
    kinds.

    A train pass (the default) normalizes batch norm with the batch's
    statistics and updates the running averages in place, masks dropout
    when `dropout_rate > 0` with an inverted-scaling mask drawn from `rng`,
    keeps every layer's input intact in `ins`, and writes into the shared
    `workspace(layout, rows[, runs])`: what it returns, and the gradient `backward`
    computes from it, hold only until the next train pass of that layout
    and batch size, by any model. An eval pass (`train=False`) normalizes
    with the running statistics, passes dropout through, changes nothing
    and writes into a fresh Workspace.
    """
    lead, specs = model.theta.shape[:-1], model.layout.specs
    if features.shape[:-2] != lead or features.ndim != len(lead) + 2 \
            or features.shape[-1] != specs[0].in_dim:
        shape = ", ".join(map(str, (*lead, "rows", specs[0].in_dim)))
        raise ValueError(f"expected input shaped ({shape}), got {features.shape}")
    ws = (workspace if train else Workspace)(model.layout, features.shape[-2], *lead)
    product = np.matmul if lead else np.dot
    a = x = np.asarray(features, dtype=np.float64)
    ins = ws.ins
    for i, (spec, p, out, aux) in enumerate(zip(specs, model.params, ws.out, ws.aux)):
        ins[i] = a
        if "W" in p:  # affine layers and both heads
            product(a, p["W"], out=out)
            out += p["b"]
        if spec.kind == "relu":
            if not train and a is not x:
                # nothing differentiates an eval pass, so the input buffer
                # can take the output: fewer fresh pages on large cohorts
                out = a
            np.maximum(a, 0.0, out=out)
        elif spec.kind == "batchnorm":
            xhat, mu, ivar = aux
            if train:
                np.add.reduce(a, axis=-2, keepdims=True, out=mu)
                mu /= a.shape[-2]  # a.mean's arithmetic, written into the workspace
                var = a.var(axis=-2, keepdims=True)
                run = model.stats[i]
                run["mean"][...] = BN_DECAY * run["mean"] + (1.0 - BN_DECAY) * mu
                run["var"][...] = BN_DECAY * run["var"] + (1.0 - BN_DECAY) * var
            else:
                mu = model.stats[i]["mean"]
                var = model.stats[i]["var"]
            np.divide(1.0, np.sqrt(var + BN_EPS), out=ivar)
            np.subtract(a, mu, out=xhat)
            xhat *= ivar
            np.multiply(p["gamma"], xhat, out=out)
            out += p["beta"]
        elif spec.kind == "dropout":
            if train and spec.dropout_rate > 0.0:
                if rng is None:
                    raise ValueError("train-mode dropout needs a generator")
                keep = 1.0 - spec.dropout_rate
                mask, kept = aux
                if lead and len(rng) != lead[0]:
                    raise ValueError(f"a stack of {lead[0]} runs needs {lead[0]} generators")
                for gen, run_mask in zip(rng, mask) if lead else ((rng, mask),):
                    gen.random(out=run_mask)
                np.less(mask, keep, out=kept)
                np.divide(kept, keep, out=mask)
                np.multiply(a, mask, out=out)
            else:
                out = a
        elif spec.kind == "sigmoid-head":
            # 1 / (1 + e) where z >= 0, else e / (1 + e), with e = exp(-|z|):
            # e <= 1 never overflows, and each branch is the stable form.
            z, (d, nonneg) = out, aux
            np.greater_equal(z, 0.0, out=nonneg)
            e = np.exp(np.copysign(z, -1.0, out=z), out=z)
            np.add(1.0, e, out=d)
            np.copyto(e, 1.0, where=nonneg)
            e /= d
            np.minimum(np.maximum(e, PROB_CLAMP, out=e), 1.0 - PROB_CLAMP, out=e)
        elif spec.kind == "softmax-head":
            z, (col,) = out, aux
            np.maximum.reduce(z, axis=-1, keepdims=True, out=col)
            z -= col
            e = np.exp(z, out=z)
            np.add.reduce(e, axis=-1, keepdims=True, out=col)
            e /= col
        a = out
    ws.probs, ws.train = a, train
    return ws


def l2_penalty(model: ModelState, l2_coeff: float) -> float:
    if l2_coeff == 0.0:
        return 0.0
    total = sum(float(np.sum(p["W"] ** 2)) for p in model.params if "W" in p)
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
        p = np.minimum(np.maximum(probs[:, 0], PROB_CLAMP), 1.0 - PROB_CLAMP)
        y = labels.astype(np.float64)
        terms = y * np.log(p) + (1.0 - y) * np.log(1.0 - p)
    else:
        p = probs[np.arange(len(labels)), labels]
        terms = np.log(np.minimum(np.maximum(p, PROB_CLAMP), 1.0 - PROB_CLAMP))
    ce = -(np.add.reduce(terms) / len(labels))  # np.mean's arithmetic, without its wrapper
    return float(ce + l2_penalty(model, l2_coeff))


def backward(model: ModelState, fp: Workspace, labels: np.ndarray,
             l2_coeff: float = 0.0) -> np.ndarray:
    """Analytic gradients of loss() w.r.t. every parameter, as one flat
    vector laid out like theta (`Layout.views` splits it per layer); for a
    stack, an (R, P) array whose row r is run r's gradient, from its labels
    `labels[r]`.

    The vector is the forward pass's workspace's, so the next backward
    through that workspace overwrites it. Requires a train-mode pass
    (batch-statistics batch norm, stored dropout masks).
    """
    if not fp.train:
        raise RuntimeError("backward needs activations from a train-mode forward pass")
    labels = np.asarray(labels)
    n = labels.shape[-1]
    grads, dz, din = fp.back
    probs = fp.probs
    product = np.matmul if fp.lead else np.dot
    specs = model.layout.specs
    if specs[-1].kind == "sigmoid-head":
        np.subtract(probs, labels[..., None], out=dz)
    else:
        np.copyto(dz, probs)
        rows = np.indices(labels.shape, sparse=True) if fp.lead else (np.arange(n),)
        dz[(*rows, labels)] -= 1.0
    dz /= n
    da = dz
    for i in range(len(specs) - 1, -1, -1):
        spec, p, g, x, aux = specs[i], model.params[i], grads[i], fp.ins[i], fp.aux[i]
        if "W" in p:
            product(x.swapaxes(-1, -2), da, out=g["W"])
            if l2_coeff:
                g["W"] += l2_coeff * p["W"]
            np.add.reduce(da, axis=-2, keepdims=True, out=g["b"])
            if i:
                da = product(da, p["W"].swapaxes(-1, -2), out=din[i])
        elif spec.kind == "batchnorm":
            xhat, mu, ivar = aux
            m = x.shape[-2]
            np.add.reduce(da * xhat, axis=-2, keepdims=True, out=g["gamma"])
            np.add.reduce(da, axis=-2, keepdims=True, out=g["beta"])
            dxhat = da * p["gamma"]
            dvar = np.sum(dxhat * (x - mu), axis=-2, keepdims=True) * (-0.5) * ivar ** 3
            dmu = -np.sum(dxhat, axis=-2, keepdims=True) * ivar \
                + dvar * np.mean(-2.0 * (x - mu), axis=-2, keepdims=True)
            da = dxhat * ivar + dvar * 2.0 * (x - mu) / m + dmu / m
        elif spec.kind == "relu":
            da *= np.greater(x, 0.0, out=aux[0])
        elif spec.kind == "dropout" and spec.dropout_rate > 0.0:
            da *= aux[0]
    return fp.grad


@functools.lru_cache(maxsize=128)
def _step_buffers(layout: Layout) -> tuple:
    """opt_step's temporaries for `layout`: two theta-sized float64 vectors
    and a theta-sized bool vector."""
    return np.empty(layout.size), np.empty(layout.size), np.empty(layout.size, dtype=bool)


def opt_step(model: ModelState, g: np.ndarray, cfg: OptimizerConfig,
             lr: float) -> ModelState:
    """Apply one optimizer update in place and return the model; `g` is the
    flat gradient, laid out like theta.

    SGD with momentum: v <- mu*v - lr*g; w <- w + v. Adam uses the standard
    bias-corrected update. Each runs on the whole parameter vector at once,
    with the same per-element operation order as a per-tensor update.
    """
    if not lr > 0:
        raise ValueError("learning rate must be > 0")
    opt = model.opt_state
    if cfg.kind != opt.kind:
        raise ValueError(f"optimizer state is {opt.kind!r}, config wants {cfg.kind!r}")
    theta = model.theta
    if g.shape != theta.shape:
        raise ValueError(f"gradient shape {g.shape} != parameter vector shape {theta.shape}")
    tmp, denom, finite = _step_buffers(model.layout)
    if cfg.kind == "sgd-momentum":
        v = opt.flat["v"]
        v *= cfg.momentum
        v -= np.multiply(lr, g, out=tmp)
        theta += v
    else:
        opt.step += 1
        t = opt.step
        m, v = opt.flat["m"], opt.flat["v"]
        m *= cfg.beta1
        m += np.multiply(1.0 - cfg.beta1, g, out=tmp)
        v *= cfg.beta2
        gg = np.multiply(1.0 - cfg.beta2, g, out=tmp)
        gg *= g
        v += gg
        step = np.divide(m, 1.0 - cfg.beta1 ** t, out=tmp)
        step *= lr
        np.divide(v, 1.0 - cfg.beta2 ** t, out=denom)
        np.sqrt(denom, out=denom)
        denom += cfg.epsilon
        step /= denom
        theta -= step
    if not np.isfinite(theta, out=finite).all():
        i, name = next((i, name) for i, name, start, stop, _ in model.layout.params
                       if not finite[start:stop].all())
        raise FloatingPointError(f"non-finite parameter after update (layer {i}, {name})")
    return model


def grad_check(model: ModelState, features: np.ndarray, labels: np.ndarray,
               l2_coeff: float = 0.0, h: float | tuple = 1e-5) -> float:
    """Max relative error of backward() vs central finite differences.

    Runs train passes on a copy of the model, each drawing the same dropout
    mask, so the loss is a function of the parameters alone and the
    caller's model is left untouched. Relative error per entry is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8). When `h` is a
    tuple of step sizes, each entry keeps its best step (small steps lose
    near-flat directions to round-off, large steps risk curvature error; a
    wrong gradient fails at every step). A step whose passes flip a relu
    input's sign crosses a kink and is not used; an entry left with no step
    retries at a tenth of its smallest, down to 1e-9, or else errs at inf.
    """
    steps = tuple(h) if isinstance(h, (tuple, list)) else (h,)
    if not steps or any(s <= 0 for s in steps):
        raise ValueError("finite-difference step must be > 0")
    model = ModelState(model.layout, model.theta.copy(), model.running.copy(), model.opt_state)
    theta, rng = model.theta, np.random.default_rng(0)
    masks = rng.bit_generator.state

    def train_pass():
        rng.bit_generator.state = masks
        fp = forward(model, features, rng)
        return fp, [x > 0.0 for x, spec in zip(fp.ins, model.specs) if spec.kind == "relu"]

    fp, signs = train_pass()
    g = backward(model, fp, labels, l2_coeff)

    def error_at(j: int, step: float) -> float:
        orig, losses = theta[j], []
        for x in (orig + step, orig - step):
            theta[j] = x
            fp, signs_now = train_pass()
            if all(map(np.array_equal, signs_now, signs)):
                losses.append(loss(fp.probs, labels, model, l2_coeff))
        theta[j] = orig
        if len(losses) < 2:
            return math.inf  # a pass crossed a relu kink
        numeric = (losses[0] - losses[1]) / (2.0 * step)
        return abs(g[j] - numeric) / max(abs(g[j]), abs(numeric), 1e-8)

    worst = 0.0
    for j in range(theta.size):
        best, step = min(error_at(j, s) for s in steps), min(steps)
        while best == math.inf and step >= 1e-8:  # retry at a tenth, down to 1e-9
            step /= 10.0
            best = error_at(j, step)
        worst = max(worst, best)
    return worst


def gradcheck_suite(n_seeds: int = 20) -> float:
    """Max grad_check error over a battery of architectures and seeds.

    Builds its models with mlp_specs, as the program does: affine, relu,
    batch norm, dropout, both heads, with and without L2.
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    configs = (
        (2, 0.0, True, 0.5),    # sigmoid head, batchnorm + dropout
        (3, 0.01, True, 0.0),   # softmax head, batchnorm, with L2
        (2, 0.001, False, 0.3),
        (4, 0.0, False, 0.0),
    )
    worst = 0.0
    for seed in range(n_seeds):
        for num_classes, l2, with_bn, drop in configs:
            specs = mlp_specs(4, [8], num_classes, batchnorm=with_bn, dropout=drop)
            opt = OptimizerConfig("sgd-momentum", learning_rate=0.01, l2_coeff=l2)
            rng = np.random.default_rng([seed, 3, 0])
            features = rng.normal(size=(16, 4))
            labels = rng.integers(0, num_classes, 16)
            model = init_model(specs, opt, rng)
            worst = max(worst, grad_check(model, features, labels, l2_coeff=l2,
                                          h=(1e-5, 3e-5, 1e-4, 3e-4, 1e-3)))
    return worst
