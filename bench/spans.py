"""Per-layer spans recorded from outside the package.

``install`` replaces each span point's function with a timing wrapper in
every loaded ``fedcycle`` module that holds it, so names imported with
``from .nn import forward`` are traced where they are called. Spans stay in
memory as (id, parent id, point, start, end) and are written out once, when
the traced process ends; ``summarize`` turns them into per-layer metrics.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

LAYERS = ("cli", "config", "data", "partition", "nn", "schedule",
          "heuristics", "transport")

# (module, function) pairs; a span point's name is "module.function".
FUNCTION_POINTS = (
    ("cli", "cmd_run"),
    ("config", "load_plan"),
    ("config", "build_experiment"),
    ("partition", "stratified_split"),
    ("data", "normalize"),
    ("data", "augment"),
    ("heuristics", "run_heuristic"),
    ("heuristics", "train_on"),
    ("heuristics", "predict_proba"),
    ("nn", "forward"),
    ("nn", "backward"),
    ("nn", "opt_step"),
    ("schedule", "observe"),
    ("transport", "serialize"),
    ("transport", "deserialize"),
)
HANDOFF = "transport.channel_handoff"
HANDOFF_CLASSES = ("MemoryChannel", "SocketChannel")
POINTS = tuple(f"{m}.{f}" for m, f in FUNCTION_POINTS) + (HANDOFF,)
FIELDS = ("calls", "total_s", "self_s", "p50_us", "p99_us", "share")
COUNTERS = ("transport.bytes", "schedule.decays")
# Every per-layer metric a traced run reports; the harness adds the trace.* pair.
METRICS = tuple(f"{p}.{f}" for p in POINTS for f in FIELDS) \
    + tuple(f"layer.{layer}.self_s" for layer in LAYERS) + COUNTERS \
    + ("trace.run_s", "trace.overhead_s")


class Tracer:
    def __init__(self):
        self.spans = []                 # (id, parent, point index, start_ns, end_ns)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.originals = {}
        self.run_configs = []           # ExperimentConfig of each run_heuristic call
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, point: str, fn, after=None):
        index = POINTS.index(point)
        spans, ids, local, clock = self.spans, self._ids, self._local, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, index, start, end))
            if after is not None:
                after(args, result)
            return result
        return traced

    def install(self):
        """Wrap every span point; call before the traced work starts."""
        from fedcycle import schedule, transport

        modules = [importlib.import_module(f"fedcycle.{m}") for m in LAYERS]
        modules.append(importlib.import_module("fedcycle"))
        hooks = {
            "heuristics.run_heuristic": lambda args, _: self.run_configs.append(args[0]),
            "schedule.observe": self._count_decay(schedule.DECAY),
        }
        for mod_name, fn_name in FUNCTION_POINTS:
            point = f"{mod_name}.{fn_name}"
            original = getattr(sys.modules[f"fedcycle.{mod_name}"], fn_name)
            self.originals[point] = original
            traced = self.wrap(point, original, hooks.get(point))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
        for cls_name in HANDOFF_CLASSES:
            cls = getattr(transport, cls_name)
            cls.handoff = self.wrap(HANDOFF, cls.handoff, self._count_bytes)

    def _count_decay(self, decay_kind):
        def after(_args, action):
            if action.kind == decay_kind:
                self.counters["schedule.decays"] += 1
        return after

    def _count_bytes(self, args, _result):
        self.counters["transport.bytes"] += len(args[1])

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"points": POINTS, "counters": self.counters,
                       "spans": self.spans}, fh)


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 for no values)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def summarize(dump: dict, run_s: float) -> dict:
    """Per-point calls, total, self time and latency quantiles, per-layer self
    time and the counters, from one traced process's span dump."""
    points = dump["points"]
    spans = dump["spans"]
    duration = {sid: end - start for sid, _, _, start, end in spans}
    child_ns = dict.fromkeys(duration, 0)
    for sid, parent, _, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += duration[sid]
    per_point = {p: [] for p in points}
    self_ns = dict.fromkeys(points, 0)
    for sid, _, index, _, _ in spans:
        per_point[points[index]].append(duration[sid])
        self_ns[points[index]] += duration[sid] - child_ns[sid]
    out = {}
    for point in points:
        durations = sorted(per_point[point])
        total_s = sum(durations) / 1e9
        out[f"{point}.calls"] = len(durations)
        out[f"{point}.total_s"] = total_s
        out[f"{point}.self_s"] = self_ns[point] / 1e9
        out[f"{point}.p50_us"] = percentile(durations, 50) / 1e3
        out[f"{point}.p99_us"] = percentile(durations, 99) / 1e3
        out[f"{point}.share"] = total_s / run_s
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            self_ns[p] for p in points if p.split(".")[0] == layer) / 1e9
    out.update(dump["counters"])
    return out
