"""In-memory span tracer that wraps the library's public functions.

Tracing swaps module attributes: every public function defined in a
traced module is replaced, in every loaded ``intentmotion`` module that
holds a reference to it, by a wrapper that records a span.  Nothing
under ``src/`` is edited.  A span is ``(name, start, end, parent,
item, n)``: ``parent`` is the index of the enclosing span (-1 at the
top), ``item`` the workload item the benchmark was running, and ``n``
an optional count recorded at that boundary (tape nodes visited by
``backward``, L-BFGS iterations, JSONL bytes, feasible attempts).

The program runs on one thread with no queues, so every span is busy
time: self time (duration minus the time its child spans cover) is the
only split, and no layer has a wait time to record.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

import numpy as np

TRACED_MODULES = (
    ("intentmotion.autodiff.tensor", "autodiff"),
    ("intentmotion.scene", "scene"),
    ("intentmotion.densities", "densities"),
    ("intentmotion.affordance", "affordance"),
    ("intentmotion.trajopt", "trajopt"),
    ("intentmotion.harness.generator", "harness.generator"),
    ("intentmotion.harness.datasets", "harness.datasets"),
    ("intentmotion.harness.benchmark", "harness.benchmark"),
)

# functions whose span name carries the model or task they ran on
_LABELS = {
    "affordance.train_placeability": lambda a, k: a[0].variant,
    "affordance.train_graspability": lambda a, k: a[0].posterior,
    "harness.datasets.extract_training_pairs": lambda a, k: a[1],
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.item = None
        self._restore = []
        self._last_nodes = 0

    # -- recording -------------------------------------------------------

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, name, parent, t0, n=None):
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, t0, t1, parent, self.item, n)

    def wrap(self, fn, name, count=None, label=None, post=None):
        """Wrapper recording one span per call of ``fn``.

        ``count(args, kwargs, result)`` gives the span's ``n``; ``label(args,
        kwargs)`` a suffix of its name; ``post(result)`` runs on the result
        after the span closes.
        """
        def wrapper(*args, **kwargs):
            full = f"{name}.{label(args, kwargs)}" if label else name
            idx, parent = self._open()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, full, parent, t0)
                raise
            self._close(idx, full, parent, t0,
                        count(args, kwargs, result) if count else None)
            if post:
                post(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self):
        """Swap every traced function for its wrapper; undone by uninstall."""
        import intentmotion.autodiff as ad
        from intentmotion.harness import generator as gen

        swaps = {}
        for modname, layer in TRACED_MODULES:
            mod = sys.modules[modname]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != modname):
                    continue
                name = f"{layer}.{attr}"
                swaps[fn] = self._special(name, fn)
        # the per-attempt function is private, but the generator's yield
        # (feasible episodes per attempt) is counted at its boundary
        swaps[gen._attempt_episode] = self.wrap(
            gen._attempt_episode, "harness.generator._attempt_episode",
            count=lambda a, k, r: int(r[0] is not None))
        for mod in [m for k, m in sys.modules.items()
                    if k == "intentmotion" or k.startswith("intentmotion.")]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in swaps:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, swaps[value])
        adam = ad.ParamStore.adam_step
        self._restore.append((ad.ParamStore, "adam_step", adam))
        ad.ParamStore.adam_step = self.wrap(adam, "autodiff.adam_step")

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore = []

    def _special(self, name, fn):
        if name == "autodiff.backward":
            return self._wrap_backward(fn)
        if name == "autodiff.conv2d_same":
            return self.wrap(fn, name, post=self._time_conv_backward)
        if name == "trajopt.lbfgs_minimize":
            inner = self.wrap(fn, "trajopt.lbfgs",
                              count=lambda a, k, r: r[1]["iterations"])

            def lbfgs(objective, *args, **kwargs):
                return inner(self.wrap(objective, "trajopt.objective"),
                             *args, **kwargs)
            return lbfgs
        if name == "harness.generator.episode_to_jsonl":
            return self.wrap(fn, name, count=lambda a, k, r: len(r.encode()))
        if name == "affordance.baseline_place_mse":
            return self.wrap(fn, name, count=lambda a, k, r: len(a[0]))
        if name == "trajopt.train_predictor":
            return self.wrap(fn, name,
                             count=lambda a, k, r: len(a[0]) * k["epochs"])
        return self.wrap(fn, name, label=_LABELS.get(name))

    def _wrap_backward(self, fn):
        timed = self.wrap(fn, "autodiff.backward",
                          count=lambda a, k, r: self._last_nodes)

        def backward(root):
            # counted before the span opens, so the count is not timed
            self._last_nodes = _reachable(root)
            return timed(root)
        return backward

    def _time_conv_backward(self, out):
        out._backward = self.wrap(out._backward, "autodiff.conv2d_same.backward")

    # -- output ----------------------------------------------------------

    def write_jsonl(self, path):
        with open(path, "w") as f:
            for name, t0, t1, parent, item, n in self.spans:
                rec = {"name": name, "start": t0, "end": t1, "parent": parent,
                       "item": item}
                if n is not None:
                    rec["n"] = n
                f.write(json.dumps(rec) + "\n")


def _reachable(root):
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for p in node.parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def summarize(spans, items):
    """{name: {"calls", "total", "self", "n"}} over the spans of ``items``."""
    child = np.zeros(len(spans))
    for name, t0, t1, parent, item, n in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = {}
    for i, (name, t0, t1, parent, item, n) in enumerate(spans):
        if item not in items:
            continue
        s = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "n": 0})
        s["calls"] += 1
        s["total"] += t1 - t0
        s["self"] += t1 - t0 - child[i]
        s["n"] += n or 0
    return out


# the per-layer metric names are fixed in BENCHMARK.json, so they are
# spelled out here rather than read from the library
PLACE_VARIANTS = ("plain", "penalty", "transfer", "transfer-penalty", "no-cnn")
POSTERIORS = ("gaussian", "vmf")
TASKS = ("placeability", "graspability", "autoencoder", "predictor")
GRU_STEPS = 20 + 30  # warm-up plus horizon steps in one trajopt.unroll


def layer_metrics(summary):
    """Per-layer metrics {name: (value, unit)} from a span summary.

    Times per call are inclusive (child spans included) unless the name
    says ``self``.  "Per problem" divides by the ``predict_fullbody``
    calls.  A layer the workload never reaches reads 0.
    """
    def get(name):
        return summary.get(name, {"calls": 0, "total": 0.0, "self": 0.0, "n": 0})

    def ratio(a, b):
        return a / b if b else 0.0

    def per_call(name, scale):
        s = get(name)
        return ratio(s["total"], s["calls"]) * scale

    back = get("autodiff.backward")
    conv = get("autodiff.conv2d_same")
    lbfgs = get("trajopt.lbfgs")
    evals = get("trajopt.objective")["calls"]
    problems = get("trajopt.predict_fullbody")["calls"]
    unroll = get("trajopt.unroll")
    attempts = get("harness.generator._attempt_episode")
    to_jsonl = get("harness.generator.episode_to_jsonl")
    baseline = get("affordance.baseline_place_mse")
    train_pred = get("trajopt.train_predictor")
    m = {
        "autodiff.backward.calls": (back["calls"], "count"),
        "autodiff.backward.self_s": (back["self"], "s"),
        "autodiff.backward.nodes_per_call": (ratio(back["n"], back["calls"]), "count"),
        "autodiff.backward.us_per_node": (ratio(back["self"], back["n"]) * 1e6, "us"),
        "autodiff.conv2d_same.calls": (conv["calls"], "count"),
        "autodiff.conv2d_same.fwd_ms": (per_call("autodiff.conv2d_same", 1e3), "ms"),
        "autodiff.conv2d_same.bwd_ms": (
            per_call("autodiff.conv2d_same.backward", 1e3), "ms"),
        "autodiff.adam_step.ms": (per_call("autodiff.adam_step", 1e3), "ms"),
    }
    for fn, unit, scale in (("plane_feature_stack", "ms", 1e3),
                            ("is_valid_placement", "us", 1e6),
                            ("sdf_bilinear", "us", 1e6)):
        m[f"scene.{fn}.calls"] = (get(f"scene.{fn}")["calls"], "count")
        m[f"scene.{fn}.{unit}"] = (per_call(f"scene.{fn}", scale), unit)
    m["densities.mdn_nll_graph.ms"] = (per_call("densities.mdn_nll_graph", 1e3), "ms")
    m["densities.mdn_head.us"] = (per_call("densities.mdn_head", 1e6), "us")
    m["densities.mdn_responsible_component.us"] = (
        per_call("densities.mdn_responsible_component", 1e6), "us")
    m["affordance.train_occupancy_autoencoder.s"] = (
        get("affordance.train_occupancy_autoencoder")["total"], "s")
    for v in PLACE_VARIANTS:
        m[f"affordance.train_placeability.{v}.s"] = (
            get(f"affordance.train_placeability.{v}")["total"], "s")
    for p in POSTERIORS:
        m[f"affordance.train_graspability.{p}.s"] = (
            get(f"affordance.train_graspability.{p}")["total"], "s")
    m["affordance.placeability_loss.ms"] = (per_call("affordance.placeability_loss", 1e3), "ms")
    m["affordance.placeability_predict.ms"] = (
        per_call("affordance.placeability_predict", 1e3), "ms")
    m["affordance.valid_region_rate.s"] = (get("affordance.valid_region_rate")["total"], "s")
    m["affordance.baseline_place_mse.ms_per_sample"] = (
        ratio(baseline["total"], baseline["n"]) * 1e3, "ms")
    m["trajopt.predict_fullbody.ms"] = (per_call("trajopt.predict_fullbody", 1e3), "ms")
    m["trajopt.lbfgs.iterations_per_problem"] = (ratio(lbfgs["n"], lbfgs["calls"]), "count")
    m["trajopt.lbfgs.evals_per_problem"] = (ratio(evals, lbfgs["calls"]), "count")
    m["trajopt.lbfgs.evals_per_iteration"] = (ratio(evals, lbfgs["n"]), "ratio")
    m["trajopt.lbfgs.self_ms"] = (ratio(lbfgs["self"], lbfgs["calls"]) * 1e3, "ms")
    m["trajopt.objective.ms"] = (per_call("trajopt.objective", 1e3), "ms")
    m["trajopt.unroll.calls_per_problem"] = (ratio(unroll["calls"], problems), "count")
    m["trajopt.unroll.ms"] = (per_call("trajopt.unroll", 1e3), "ms")
    m["trajopt.unroll.us_per_step"] = (per_call("trajopt.unroll", 1e6) / GRU_STEPS, "us")
    m["trajopt.train_predictor.s"] = (train_pred["total"], "s")
    m["trajopt.train_predictor.windows_per_s"] = (
        ratio(train_pred["n"], train_pred["total"]), "1/s")
    m["harness.generator.generate_episode.ms"] = (
        per_call("harness.generator.generate_episode", 1e3), "ms")
    m["harness.generator.episodes_per_attempt"] = (
        ratio(attempts["n"], attempts["calls"]), "ratio")
    m["harness.generator.episode_to_jsonl.ms"] = (
        per_call("harness.generator.episode_to_jsonl", 1e3), "ms")
    m["harness.generator.episode_from_jsonl.ms"] = (
        per_call("harness.generator.episode_from_jsonl", 1e3), "ms")
    m["harness.generator.jsonl_bytes_per_episode"] = (
        ratio(to_jsonl["n"], to_jsonl["calls"]), "bytes")
    for t in TASKS:
        m[f"harness.datasets.extract_training_pairs.{t}.ms"] = (
            per_call(f"harness.datasets.extract_training_pairs.{t}", 1e3), "ms")
    m["harness.benchmark.affordance_place_goal.ms"] = (
        per_call("harness.benchmark.affordance_place_goal", 1e3), "ms")
    return m
