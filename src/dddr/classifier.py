"""Classifier model, projection head, training losses, and the EWC penalty.

The classifier is a small MLP: flattened pixels through two relu layers
into a 64-d feature space, then a linear head over every class the whole
experiment will ever see (the head is never grown). A projection head
maps the features to the sphere for the contrastive term.

Each training loss is one tensor-engine node whose parents are the
parameter leaves, so one implementation serves training, gradient checks
and evaluation. A node's forward runs the layers in numpy with the array
operations, dtypes and float64 accumulations of the kernel graph it
replaced (matmul, add, relu, log-softmax, l2-normalize and the scalar
tail), and its hand-written backward repeats that graph's reverse sweep
step for step, so values and gradients keep its bits. Every dense layer's
sum, the scaled similarities and the node's output are checked for
non-finite values, and the error names the node and the layer (for
example `loss_ce.hidden2`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .params import ParamSet, params_checksum
from .rng import stream
from .tensor import (
    DegenerateInput,
    Tensor,
    as_array,
    as_leaves,
    check_finite,
    constant,
    evaluate_with_gradients,  # noqa: F401  re-exported; perfbench's tracer wraps it here
    mul,
)


class AllAnchorsSkipped(Exception):
    """Every sample in the batch has a unique label; the contrastive loss is undefined."""


@dataclass(frozen=True)
class LossWeights:
    """Weights of the three auxiliary terms in the training objective."""

    w1: float = 1.0   # contrastive term
    w2: float = 0.5   # replayed-history cross-entropy
    w3: float = 10.0  # distillation term

    def __post_init__(self) -> None:
        if min(self.w1, self.w2, self.w3) < 0:
            raise ValueError("loss weights must be non-negative")


@dataclass(frozen=True)
class ClassifierDims:
    input_dim: int
    n_classes: int
    hidden: int = 128
    feature_dim: int = 64
    proj_hidden: int = 64
    proj_dim: int = 32


@dataclass(frozen=True)
class Snapshot:
    """Frozen copy of a classifier taken at the end of a task."""

    params: ParamSet
    task_index: int
    checksum: str


def make_snapshot(params: ParamSet, task_index: int) -> Snapshot:
    frozen = params.copy()
    return Snapshot(params=frozen, task_index=task_index, checksum=params_checksum(frozen))


def _he(rng: np.random.Generator, fan_in: int, shape: tuple) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape).astype(np.float32)


def init_classifier(dims: ClassifierDims, seed: int, include_projection: bool = True) -> ParamSet:
    rng = stream(seed, "classifier-init")
    values = {
        "fe.w1": _he(rng, dims.input_dim, (dims.input_dim, dims.hidden)),
        "fe.b1": np.zeros(dims.hidden, dtype=np.float32),
        "fe.w2": _he(rng, dims.hidden, (dims.hidden, dims.feature_dim)),
        "fe.b2": np.zeros(dims.feature_dim, dtype=np.float32),
        "head.w": rng.normal(0.0, np.sqrt(1.0 / dims.feature_dim), (dims.feature_dim, dims.n_classes)).astype(
            np.float32
        ),
        "head.b": np.zeros(dims.n_classes, dtype=np.float32),
    }
    if include_projection:
        values.update(
            {
                "proj.w1": _he(rng, dims.feature_dim, (dims.feature_dim, dims.proj_hidden)),
                "proj.b1": np.zeros(dims.proj_hidden, dtype=np.float32),
                "proj.w2": _he(rng, dims.proj_hidden, (dims.proj_hidden, dims.proj_dim)),
                "proj.b2": np.zeros(dims.proj_dim, dtype=np.float32),
            }
        )
    return ParamSet(values)


CLASSIFIER_NAMES = ("fe.w1", "fe.b1", "fe.w2", "fe.b2", "head.w", "head.b")


def _flatten_images(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float32)
    return x.reshape(x.shape[0], -1)


def _input_rows(x) -> np.ndarray:
    """Images as the contiguous float32 (N, pixels) rows every forward pass starts from."""
    return np.ascontiguousarray(_flatten_images(np.asarray(x)))


def _check_labels(y: np.ndarray, n_classes: int, where: str) -> np.ndarray:
    y = np.asarray(y, dtype=np.int64)
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        bad = sorted(set(int(v) for v in y[(y < 0) | (y >= n_classes)]))
        raise ValueError(f"{where}: labels {bad} outside class range [0, {n_classes})")
    return y


# (weight, bias, layer name, relu after) of each dense layer a loss node runs
_TRUNK = (("fe.w1", "fe.b1", "hidden1", True), ("fe.w2", "fe.b2", "hidden2", True))
_LOGITS = (*_TRUNK, ("head.w", "head.b", "logits", False))
_PROJECTED = (*_TRUNK, ("proj.w1", "proj.b1", "proj1", True), ("proj.w2", "proj.b2", "proj2", False))
_PROJECTED_NAMES = tuple(name for w, b, _, _ in _PROJECTED for name in (w, b))
# the graph's mul(x, -1.0): a Python float wrapped as a float64 array of shape (1,)
_MINUS_ONE = as_array(-1.0)


def _dense_forward(node: str, weights, x: np.ndarray, layers) -> tuple[np.ndarray, list]:
    """x through `layers` of `weights` (name -> array), as the matmul, add and relu kernels computed it.

    Returns the output and a tape for `_dense_backward`. Each layer's sum
    is checked for non-finite values (a non-finite product stays
    non-finite in it), and the error names `node.layer`.
    """
    tape = []
    for w, b, layer, use_relu in layers:
        s = check_finite(f"{node}.{layer}", x @ weights[w] + weights[b])
        tape.append((x, w, b, s, use_relu))
        x = np.maximum(s, 0) if use_relu else s
    return x, tape


def predict(params: ParamSet, images: np.ndarray) -> np.ndarray:
    """Argmax class per image (ties resolve to the lowest index).

    The logits come from `_dense_forward` over the parameter arrays; each
    layer's sum is finite-checked as `predict.<layer>`.
    """
    out, _ = _dense_forward("predict", params, _input_rows(images), _LOGITS)
    return np.argmax(out, axis=-1)


def _dense_backward(leaves: dict[str, Tensor], tape: list, grad: np.ndarray) -> None:
    """Accumulate the leaf gradients of a `_dense_forward` pass, given its output's gradient.

    Per layer, last first, as the graph's reverse sweep did: the relu mask,
    then the product's gradient in the product's dtype, `x.T @ g` into the
    weight, a float64 column sum into the bias, and `g @ w.T` in the
    input's dtype for the layer below (the first layer's input is data).
    """
    for i in range(len(tape) - 1, -1, -1):
        x, w, b, s, use_relu = tape[i]
        w, b = leaves[w], leaves[b]
        if use_relu:
            grad = grad * (s > 0)
        g = grad.astype(np.result_type(x, w.data), copy=False)
        if w.requires_grad:
            w._accumulate(x.T @ g)
        if b.requires_grad:
            b._accumulate(grad.sum(axis=0, dtype=np.float64).astype(b.dtype))
        if i:
            grad = np.asarray(g @ w.data.T, dtype=x.dtype)


def _log_softmax(node: str, x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True, dtype=np.float64)).astype(x.dtype)
    return check_finite(f"{node}.log_softmax", shifted - lse)


def _log_softmax_backward(y: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Gradient of the log-softmax input, given the output y and its gradient."""
    gsum = grad.sum(axis=-1, keepdims=True, dtype=np.float64).astype(y.dtype)
    return np.asarray(grad - np.exp(y) * gsum, dtype=y.dtype)


def _mean_backward(grad: np.ndarray, dtype, n: int) -> np.ndarray:
    """Gradient of the n values a tmean node averaged, given its (1,) output's gradient."""
    return np.broadcast_to(grad.astype(dtype, copy=False), (n,)) / n


def _leaves(p: dict[str, Tensor], names) -> tuple[dict[str, np.ndarray], tuple[Tensor, ...]]:
    return {name: p[name].data for name in names}, tuple(p[name] for name in names)


def _cross_entropy(node: str, params, x: np.ndarray, y: np.ndarray) -> Tensor:
    """Mean cross-entropy of full-softmax logits against integer labels, as the node `node`."""
    p = as_leaves(params)
    y = _check_labels(y, p["head.b"].data.shape[-1], node)
    if y.size == 0:
        return constant(0.0)
    weights, parents = _leaves(p, CLASSIFIER_NAMES)
    z, tape = _dense_forward(node, weights, _input_rows(x), _LOGITS)
    n, n_classes = z.shape
    lp = _log_softmax(node, z)
    onehot = np.zeros((n, n_classes), dtype=np.float32)
    onehot[np.arange(n), y] = 1.0
    rows = (lp * onehot).sum(axis=-1, dtype=np.float64).astype(lp.dtype)
    mean = as_array((rows.sum(dtype=np.float64) / n).astype(lp.dtype))

    def _backward(grad: np.ndarray) -> None:
        g = _mean_backward(grad * _MINUS_ONE, lp.dtype, n)
        g_lp = np.broadcast_to(g[:, None], (n, n_classes)) * onehot
        _dense_backward(p, tape, _log_softmax_backward(lp, g_lp))

    return Tensor(mean * _MINUS_ONE, _parents=parents, _backward=_backward, op=node)


def loss_ce(params, x: np.ndarray, y: np.ndarray) -> Tensor:
    """Mean cross-entropy of full-softmax logits against integer labels."""
    return _cross_entropy("loss_ce", params, x, y)


def loss_pce(params, x: np.ndarray, y: np.ndarray) -> Tensor:
    """Cross-entropy on replayed history; an empty batch contributes zero."""
    if y is None:
        return constant(0.0)
    return _cross_entropy("loss_pce", params, x, y)


def supcon_masks(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Positive-pair weights and diagonal mask for a label vector.

    Returns (weights, diag_penalty, n_anchors) where weights[i, j] is the
    contribution of pair (i, j) to the loss mean and diag_penalty is added
    to the similarity matrix to exclude self-pairs from the softmax.
    """
    y = np.asarray(y, dtype=np.int64)
    b = y.size
    same = (y[:, None] == y[None, :]).astype(np.float32)
    np.fill_diagonal(same, 0.0)
    n_pos = same.sum(axis=1)
    anchors = n_pos > 0
    n_anchors = int(anchors.sum())
    if n_anchors == 0:
        raise AllAnchorsSkipped("no sample in the batch has a same-label partner")
    weights = np.zeros_like(same)
    weights[anchors] = same[anchors] / n_pos[anchors, None] / n_anchors
    diag_penalty = np.zeros((b, b), dtype=np.float32)
    np.fill_diagonal(diag_penalty, -1.0e4)
    return weights, diag_penalty, n_anchors


def loss_scl(params, x: np.ndarray, y: np.ndarray, tau: float = 0.07) -> Tensor:
    """Supervised contrastive loss over l2-normalized projected features, as one node.

    Mean over anchors of the mean over their positives of
    -log(exp(s_ip / tau) / sum_{j != i} exp(s_ij / tau)), with
    s_ij the dot product of projected features. The similarities are
    scaled in float64 and the masked log-softmax runs in float64, as in
    the graph this node replaced; a zero projected feature raises
    `DegenerateInput`.
    """
    y = np.asarray(y, dtype=np.int64)
    if y.size < 2:
        raise ValueError("loss_scl: need a batch of at least 2 samples")
    if tau <= 0:
        raise ValueError("loss_scl: temperature must be positive")
    weights, diag_penalty, _ = supcon_masks(y)
    p = as_leaves(params)
    values, parents = _leaves(p, _PROJECTED_NAMES)
    u, tape = _dense_forward("loss_scl", values, _input_rows(x), _PROJECTED)
    sq = (u.astype(np.float64) ** 2).sum(axis=-1, keepdims=True)
    if np.any(sq == 0.0):
        raise DegenerateInput("loss_scl: a projected feature is the zero vector, which has no direction")
    norm = np.sqrt(sq).astype(u.dtype)
    z = u / norm
    z_t = z.T.copy()
    inv_tau = as_array(1.0 / tau)
    logp = _log_softmax("loss_scl", check_finite("loss_scl.similarities", (z @ z_t) * inv_tau) + diag_penalty)
    total = as_array((logp * weights).sum(dtype=np.float64))

    def _backward(grad: np.ndarray) -> None:
        g = (grad * _MINUS_ONE).astype(total.dtype, copy=False)
        g_sims = _log_softmax_backward(logp, np.broadcast_to(g, logp.shape) * weights)
        g_s = (g_sims * inv_tau).astype(z.dtype)
        # z feeds the product twice, directly and through its transpose
        g_z = g_s @ z_t.T
        g_z += (z.T @ g_s).T
        inner = (g_z * z).sum(axis=-1, keepdims=True, dtype=np.float64).astype(z.dtype)
        _dense_backward(p, tape, (g_z - z * inner) / norm)

    return Tensor(total * _MINUS_ONE, _parents=parents, _backward=_backward, op="loss_scl")


def loss_kd(
    params,
    teacher: ParamSet,
    x: np.ndarray,
    temperature: float = 1.0,
    direction: str = "teacher_ref",
) -> Tensor:
    """KL divergence between the frozen previous-task model and the current one, as one node.

    teacher_ref (default) treats the previous model as the reference
    distribution, KL(teacher || student); student_ref uses the opposite
    order. Gradients flow only into the current parameters. The teacher's
    forward runs in plain numpy; the student's logits are scaled by
    1/temperature in float64. In student_ref the student's logits feed a
    softmax and a log-softmax branch, and each parameter adds the softmax
    branch's gradient first, as the graph this node replaced did.
    """
    x = np.asarray(x)
    if x.size == 0:
        return constant(0.0)
    if temperature <= 0:
        raise ValueError("loss_kd: temperature must be positive")
    if direction not in ("teacher_ref", "student_ref"):
        raise ValueError(f"loss_kd: unknown direction {direction!r}")
    rows = _input_rows(x)
    t_logits = _dense_forward("loss_kd.teacher", teacher, rows, _LOGITS)[0] / np.float32(temperature)
    t_shift = t_logits - t_logits.max(axis=-1, keepdims=True)
    t_prob = np.exp(t_shift) / np.exp(t_shift).sum(axis=-1, keepdims=True)
    p = as_leaves(params)
    values, parents = _leaves(p, CLASSIFIER_NAMES)
    s_logits, tape = _dense_forward("loss_kd", values, rows, _LOGITS)
    n, n_classes = s_logits.shape
    inv_t = as_array(1.0 / temperature)
    scaled = check_finite("loss_kd.scaled_logits", s_logits * inv_t)
    s_lp = _log_softmax("loss_kd", scaled)

    def _logits_backward(g_scaled: np.ndarray) -> None:
        _dense_backward(p, tape, (g_scaled * inv_t).astype(s_logits.dtype))

    if direction == "teacher_ref":
        t_entropy = float(np.mean((t_prob * np.log(np.maximum(t_prob, 1e-30))).sum(axis=-1)))
        row_sums = (s_lp * t_prob).sum(axis=-1, dtype=np.float64)
        cross = as_array(row_sums.sum(dtype=np.float64) / n)

        def _backward(grad: np.ndarray) -> None:
            g = _mean_backward(grad * _MINUS_ONE, cross.dtype, n)
            g_lp = np.broadcast_to(g[:, None], (n, n_classes)) * t_prob
            _logits_backward(_log_softmax_backward(s_lp, g_lp))

        value = as_array(t_entropy) + cross * _MINUS_ONE
    else:
        shifted = scaled - scaled.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        s_p = e / e.sum(axis=-1, keepdims=True, dtype=np.float64).astype(scaled.dtype)
        t_lp = np.log(np.maximum(t_prob, 1e-30)).astype(np.float32)
        diff = s_lp + t_lp * _MINUS_ONE
        inner = (s_p * diff).sum(axis=-1, dtype=np.float64)
        value = as_array(inner.sum(dtype=np.float64) / n)

        def _backward(grad: np.ndarray) -> None:
            g = np.broadcast_to(_mean_backward(grad, inner.dtype, n)[:, None], (n, n_classes))
            g_p = g * diff
            g_diff = g * s_p
            dot = (g_p * s_p).sum(axis=-1, keepdims=True, dtype=np.float64).astype(s_p.dtype)
            _logits_backward(s_p * (g_p - dot))
            _logits_backward(_log_softmax_backward(s_lp, g_diff))

    return Tensor(value, _parents=parents, _backward=_backward, op="loss_kd")


def total_objective(terms, weights: LossWeights):
    """ce + w1 * contrastive + w2 * history + w3 * distillation.

    `terms` is the 4-tuple (ce, scl, pce, kd) of graph Tensors or plain
    floats. A Tensor term adds `mul(term, w)`; a float term adds w * term,
    and a float 0 adds nothing, so an absent term costs no graph node.
    """
    ce, *rest = terms
    out = ce if isinstance(ce, Tensor) else float(ce)
    for term, w in zip(rest, (weights.w1, weights.w2, weights.w3)):
        if isinstance(term, Tensor):
            out = out + mul(term, w)
        elif term:
            out = out + w * float(term)
    return out


def ewc_penalty(params, anchor, fisher, lam: float) -> Tensor:
    """lam/2 * sum_i F_i (theta_i - anchor_i)^2 over shared parameter names, as one graph node.

    The value is computed in float64 whatever the leaves' dtype; each
    leaf's gradient, lam * F * (theta - anchor), is cast to that leaf's
    dtype. `anchor` and `fisher` may map names to float64 arrays, as an
    `EwcTerm` does, so that a training step converts nothing. The backward
    forms 2 * (g * F) in place and multiplies it by d; doubling is exact,
    so this rounds as (g * F) * (2 * d) does, with one temporary array.
    """
    if lam < 0:
        raise ValueError("ewc_penalty: lambda must be >= 0")
    p = as_leaves(params)
    names = [name for name in anchor if name in p]
    leaves = [p[name] for name in names]
    fishers = [np.asarray(fisher[name], dtype=np.float64) for name in names]
    diffs = []
    total = 0.0
    for leaf, name, f in zip(leaves, names, fishers):
        d = leaf.data.astype(np.float64)
        d -= np.asarray(anchor[name], dtype=np.float64)
        diffs.append(d)
        sq = np.square(d)
        sq *= f
        total += sq.sum()
    scale = np.asarray(0.5 * lam)

    def _backward(grad: np.ndarray) -> None:
        g = grad * scale
        for leaf, f, d in zip(leaves, fishers, diffs):
            if leaf.requires_grad:
                step = g * f
                step *= 2.0
                step *= d
                leaf._accumulate(step.astype(leaf.dtype))

    return Tensor(total * scale, _parents=tuple(leaves), _backward=_backward, op="ewc_penalty")


def fisher_estimate(params: ParamSet, images: np.ndarray, labels: np.ndarray, n_samples: int | None = None) -> ParamSet:
    """Diagonal empirical Fisher: mean squared gradient of the observed-label log-likelihood.

    One float64 forward and backward pass of the MLP over the first
    `n_samples` rows. Row i's gradient of a dense weight is the outer
    product of the layer input a_i and the output gradient d_i, so the sum
    of squared per-row gradients is (A*A)^T (D*D), and for a bias it is
    sum_i d_i^2 (Goodfellow 2015, arXiv 1510.01799). Parameters outside the
    likelihood, such as the projection head, get zeros.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("fisher_estimate: need at least one sample")
    count = labels.size if n_samples is None else min(n_samples, labels.size)
    w = {name: params[name].astype(np.float64) for name in CLASSIFIER_NAMES}
    y = _check_labels(labels[:count], w["head.b"].shape[-1], "fisher_estimate")
    x = _flatten_images(images)[:count].astype(np.float64)
    pre1 = x @ w["fe.w1"] + w["fe.b1"]
    h1 = np.maximum(pre1, 0.0)
    pre2 = h1 @ w["fe.w2"] + w["fe.b2"]
    h2 = np.maximum(pre2, 0.0)
    z = h2 @ w["head.w"] + w["head.b"]
    # d(-log softmax(z)_y)/dz = softmax(z) - onehot(y)
    d3 = np.exp(z - z.max(axis=-1, keepdims=True))
    d3 /= d3.sum(axis=-1, keepdims=True)
    d3[np.arange(count), y] -= 1.0
    d2 = (d3 @ w["head.w"].T) * (pre2 > 0)
    d1 = (d2 @ w["fe.w2"].T) * (pre1 > 0)
    fisher = {}
    for weight, bias, a, d in (("fe.w1", "fe.b1", x, d1), ("fe.w2", "fe.b2", h1, d2), ("head.w", "head.b", h2, d3)):
        dd = d * d
        fisher[weight] = (a * a).T @ dd / count
        fisher[bias] = dd.sum(axis=0) / count
    return ParamSet({name: fisher.get(name, np.zeros(params[name].shape)) for name in params})


class EwcTerm(NamedTuple):
    """Penalties of all finished tasks as one: lam/2 * (sum F (theta - anchor)^2 + offset).

    `anchor` and `fisher` hold float32 values in float64 arrays, the
    precision `ewc_penalty` computes in.
    """

    anchor: dict[str, np.ndarray]
    fisher: dict[str, np.ndarray]
    offset: float


def consolidate_ewc(pairs: Sequence[tuple[ParamSet, ParamSet]]) -> EwcTerm:
    """Fold per-task (anchor a_k, Fisher F_k) pairs into one EWC term, in float64.

    Elementwise, sum_k F_k (theta - a_k)^2 = F (theta - a)^2 + C with
    F = sum_k F_k, a = sum_k F_k a_k / F (0 where F = 0) and
    C = sum_k F_k a_k^2 - F a^2, so `ewc_penalty(theta, a, F, lam)` plus
    lam/2 * offset, the sum of C, equals the sum of the per-task penalties:
    online EWC with decay 1 (Schwarz et al. 2018, arXiv 1805.06370).
    a and F are rounded to float32, the parameter precision; C is not.
    """
    if not pairs:
        raise ValueError("consolidate_ewc: need at least one (anchor, fisher) pair")
    anchor, fisher, offset = {}, {}, 0.0
    for name in pairs[0][0]:
        a = np.stack([a_k[name] for a_k, _ in pairs], dtype=np.float64)
        f = np.stack([f_k[name] for _, f_k in pairs], dtype=np.float64)
        total = f.sum(axis=0)
        f *= a  # f becomes F_k a_k, then F_k a_k^2, in place: two stacks at peak
        mean = np.divide(f.sum(axis=0), total, out=np.zeros_like(total), where=total > 0)
        f *= a
        offset += float(f.sum() - (total * mean * mean).sum())
        anchor[name] = mean.astype(np.float32).astype(np.float64)
        fisher[name] = total.astype(np.float32).astype(np.float64)
    return EwcTerm(anchor, fisher, offset)
