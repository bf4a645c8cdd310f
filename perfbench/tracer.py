"""Span tracing of dddr's layers, installed from outside the program.

Every traced function is replaced, in the module namespace its caller
looks it up in, by a wrapper that records a span: (name, stage, start,
end, work). `work` is the amount of work the call did (rows sampled,
images written, bytes read, local steps, graph nodes) where the layer's
metric is a rate. Spans are kept in memory and written out once, when
the run ends. Time a wrapper spends on its own bookkeeping (counting graph
nodes, checking a result) is excluded from the enclosing spans of the same
thread, so traced call times stay close to untraced ones.
"""

from __future__ import annotations

import importlib
import json
import os
import threading
import time
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stage = "none"
        self.failures: list[str] = []
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------
    def _excluded(self) -> float:
        return getattr(self._local, "excluded", 0.0)

    def exclude(self, seconds: float) -> None:
        self._local.excluded = self._excluded() + seconds

    def wrap(self, owner, attr: str, name: str, work=None, check=None, staged: bool = False) -> None:
        """Replace owner.attr by a span-recording wrapper.

        work(args, kwargs, result) -> number or None; check(args, kwargs,
        result) raises AssertionError on a wrong result. Both run outside
        the recorded time.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            ex0 = tracer._excluded()
            t0 = time.perf_counter()
            result = original(*args, **kwargs)
            t1 = time.perf_counter()
            inner = tracer._excluded() - ex0
            if work is not None or check is not None:
                b0 = time.perf_counter()
                amount = work(args, kwargs, result) if work is not None else None
                if check is not None:
                    try:
                        check(args, kwargs, result)
                    except AssertionError as exc:
                        tracer.failures.append(f"{name}: {exc}")
                tracer.exclude(time.perf_counter() - b0)
            else:
                amount = None
            label = f"{name}.{tracer.stage}" if staged else name
            tracer.spans.append((label, tracer.stage, t0, t1 - inner, amount))
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def wrap_backward(self, tensor_cls) -> None:
        """Time Tensor.backward per stage and count the nodes of each graph."""
        original = tensor_cls.backward
        tracer = self

        def backward(root):
            ex0 = tracer._excluded()
            t0 = time.perf_counter()
            original(root)
            t1 = time.perf_counter()
            inner = tracer._excluded() - ex0
            b0 = time.perf_counter()
            nodes = _count_nodes(root)
            tracer.exclude(time.perf_counter() - b0)
            tracer.spans.append((f"tensor.backward.{tracer.stage}", tracer.stage, t0, t1 - inner, nodes))

        setattr(tensor_cls, "backward", backward)
        self._restore.append((tensor_cls, "backward", original))

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: Path) -> None:
        with open(path, "w") as f:
            for name, stage, t0, t1, amount in self.spans:
                f.write(json.dumps([name, stage, round(t0, 7), round(t1, 7), amount]) + "\n")


def _count_nodes(root) -> int:
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


# -- what is traced, and where its callers look it up -------------------

def _file_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[0])


def _cache_images(cache) -> int:
    return sum(int(v.shape[0]) for v in cache.by_class.values())


def check_aggregate(args, kwargs, result) -> None:
    """FedAvg equals a float64 sample-weighted mean of the client updates."""
    updates = sorted(args[0], key=lambda u: u.client_id)
    weights = np.array([float(u.sample_count) for u in updates])
    for name in result:
        stacked = np.stack([u.params[name].astype(np.float64) for u in updates])
        mean = np.tensordot(weights / weights.sum(), stacked, axes=1)
        ulp = np.spacing(np.abs(mean).astype(np.float32)).astype(np.float64)
        err = np.abs(result[name].astype(np.float64) - mean)
        if not np.all(err <= ulp):
            raise AssertionError(f"{name}: differs from the float64 weighted mean by {float(err.max()):.3g}")


def check_fisher(args, kwargs, result) -> None:
    for name in result:
        f = result[name]
        if not np.all(np.isfinite(f)) or float(f.min()) < 0.0:
            raise AssertionError(f"{name}: Fisher entries must be finite and >= 0")


def install(tracer: Tracer) -> None:
    mod = importlib.import_module
    experiment, diffusion, inversion = mod("dddr.experiment"), mod("dddr.diffusion"), mod("dddr.inversion")
    federation, classifier, replay = mod("dddr.federation"), mod("dddr.classifier"), mod("dddr.replay")
    tensor, audit = mod("dddr.tensor"), mod("dddr.audit")
    w = tracer.wrap

    for m in (diffusion, inversion, federation, classifier):
        w(m, "evaluate_with_gradients", "tensor.evaluate_with_gradients", staged=True)
    tracer.wrap_backward(tensor.Tensor)
    for m in (diffusion, inversion, federation):
        w(m, "apply_gradient_step", "optim.apply_gradient_step", staged=True)

    w(experiment, "pretrain_diffusion", "diffusion.pretrain_diffusion", work=lambda a, k, r: a[1].steps)
    w(replay, "sample", "diffusion.sample", work=lambda a, k, r: a[2])

    w(inversion, "local_class_inversion", "inversion.local_class_inversion", work=lambda a, k, r: a[3])
    w(inversion, "aggregate_embeddings", "inversion.aggregate_embeddings")

    w(experiment, "build_replay_sets", "replay.build_replay_sets")
    w(experiment, "save_cache", "replay.save_cache", work=lambda a, k, r: _cache_images(a[0]))
    w(experiment, "load_cache", "replay.load_cache", work=lambda a, k, r: _cache_images(r))

    w(experiment, "local_train_client", "federation.local_train_client", work=lambda a, k, r: r.steps)
    w(experiment, "aggregate_classifier", "federation.aggregate_classifier", check=check_aggregate)

    for fn in ("loss_ce", "loss_scl", "loss_pce", "loss_kd", "ewc_penalty"):
        w(federation, fn, f"classifier.{fn}")
    w(experiment, "fisher_estimate", "classifier.fisher_estimate", check=check_fisher)

    for m in (experiment, diffusion):
        w(m, "save_checkpoint", "params.save_checkpoint", work=_file_bytes)
        w(m, "load_checkpoint", "params.load_checkpoint", work=_file_bytes)
    for m in (experiment, federation):
        w(m, "weighted_mean_params", "params.weighted_mean_params")
    for m in (experiment, classifier, diffusion):
        w(m, "params_checksum", "params.params_checksum")

    w(experiment, "dump_corpus", "corpus.dump_corpus", work=lambda a, k, r: len(a[0]))
    w(experiment, "load_corpus", "corpus.load_corpus", work=lambda a, k, r: len(r))
    w(experiment, "generate_shapeworld", "shapes.generate_shapeworld", work=lambda a, k, r: len(r))

    w(experiment, "evaluate_global", "metrics.evaluate_global")
    w(audit, "similarity_audit", "audit.similarity_audit")
    for name in ("experiment", "inversion", "replay", "diffusion", "classifier", "tasks", "shapes"):
        w(mod(f"dddr.{name}"), "stream", "rng.stream")


# -- per-layer metrics ---------------------------------------------------

def totals(spans: list[tuple]) -> dict[str, list[float]]:
    """span name -> [calls, seconds, work] over one traced round."""
    out: dict[str, list[float]] = {}
    for name, _stage, t0, t1, amount in spans:
        acc = out.setdefault(name, [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += t1 - t0
        acc[2] += amount or 0.0
    return out


# rates whose span is not the metric name minus its last part
_RATE_SPANS = {
    "inversion.steps_per_s": "inversion.local_class_inversion",
    "federation.client_steps_per_s": "federation.local_train_client",
}


def layer_metric(name: str, spans: dict[str, list[float]], stage_s: dict[str, float]) -> float:
    """One per-layer metric, read off its name; a layer that did not run reads 0.

    `<layer>.<fn>[.<stage>].calls` counts calls, `.ms`/`.s` is the mean time
    per call, `.<work>_per_s` is work per second of call time (MB for
    `mb_per_s`), `tensor.nodes.<stage>` is graph nodes per backward pass and
    `experiment.stage_<stage>.s` is the stage's wall time.
    """
    if name.startswith("experiment.stage_"):
        return stage_s.get(name[len("experiment.stage_"):-len(".s")], 0.0)
    if name.startswith("tensor.nodes."):
        calls, _, nodes = spans.get("tensor.backward." + name.rsplit(".", 1)[1], (0, 0.0, 0.0))
        return nodes / calls if calls else 0.0
    base, suffix = name.rsplit(".", 1)
    if suffix.endswith("_per_s"):
        calls, seconds, work = spans.get(_RATE_SPANS.get(name, base), (0, 0.0, 0.0))
        return work / seconds / (1e6 if suffix == "mb_per_s" else 1.0) if seconds > 0 else 0.0
    calls, seconds, _ = spans.get(base, (0, 0.0, 0.0))
    if suffix == "calls":
        return float(calls)
    return seconds / calls * (1e3 if suffix == "ms" else 1.0) if calls else 0.0
