"""Graph forms that hand-written nodes replaced, kept as bit-exact references.

The kernels here (silu, softmax, log_softmax, l2_normalize, transpose) and
`project` are no longer reached from `dddr`: the denoiser and the client
loss terms are single nodes. The loss functions below are the client loss
terms as graphs of engine kernels, exactly as they were before they became
nodes; the tests compare every node's value and leaf gradients with them
bit for bit.
"""

from __future__ import annotations

import numpy as np

from dddr.classifier import _check_labels, features, logits, supcon_masks
from dddr.params import ParamSet
from dddr.tensor import (
    DegenerateInput,
    ShapeMismatch,
    Tensor,
    _wrap,
    affine,
    as_leaves,
    constant,
    matmul,
    mul,
    relu,
    sigmoid,
    silu_grad,
    tmean,
    tsum,
)


def silu(x: Tensor) -> Tensor:
    x = _wrap(x)
    sig = sigmoid(x.data)

    def _backward(grad: np.ndarray) -> None:
        x._accumulate(silu_grad(grad, x.data, sig))

    return Tensor(x.data * sig, _parents=(x,), _backward=_backward, op="silu")


def softmax(x: Tensor) -> Tensor:
    """Row-wise softmax over the last axis."""
    x = _wrap(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True, dtype=np.float64).astype(x.dtype)

    def _backward(grad: np.ndarray) -> None:
        inner = (grad * p).sum(axis=-1, keepdims=True, dtype=np.float64).astype(x.dtype)
        x._accumulate(p * (grad - inner))

    return Tensor(p, _parents=(x,), _backward=_backward, op="softmax")


def log_softmax(x: Tensor) -> Tensor:
    x = _wrap(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True, dtype=np.float64)).astype(x.dtype)
    y = shifted - lse

    def _backward(grad: np.ndarray) -> None:
        p = np.exp(y)
        gsum = grad.sum(axis=-1, keepdims=True, dtype=np.float64).astype(x.dtype)
        x._accumulate(grad - p * gsum)

    return Tensor(y, _parents=(x,), _backward=_backward, op="log_softmax")


def l2_normalize(x: Tensor) -> Tensor:
    """Row-wise projection onto the unit sphere (last axis)."""
    x = _wrap(x)
    sq = (x.data.astype(np.float64) ** 2).sum(axis=-1, keepdims=True)
    if np.any(sq == 0.0):
        raise DegenerateInput("l2_normalize: zero vector has no direction")
    norm = np.sqrt(sq).astype(x.dtype)
    y = x.data / norm

    def _backward(grad: np.ndarray) -> None:
        inner = (grad * y).sum(axis=-1, keepdims=True, dtype=np.float64).astype(x.dtype)
        x._accumulate((grad - y * inner) / norm)

    return Tensor(y, _parents=(x,), _backward=_backward, op="l2_normalize")


def transpose(x: Tensor) -> Tensor:
    """2-d transpose (shape-only companion of matmul)."""
    x = _wrap(x)
    if x.data.ndim != 2:
        raise ShapeMismatch("transpose", x.shape)

    def _backward(grad: np.ndarray) -> None:
        x._accumulate(grad.T)

    return Tensor(x.data.T.copy(), _parents=(x,), _backward=_backward, op="transpose")


def project(params, feats: Tensor) -> Tensor:
    p = as_leaves(params)
    h = relu(affine(feats, p["proj.w1"], p["proj.b1"]))
    return l2_normalize(affine(h, p["proj.w2"], p["proj.b2"]))


def loss_ce(params, x: np.ndarray, y: np.ndarray) -> Tensor:
    p = as_leaves(params)
    n_classes = p["head.b"].data.shape[-1]
    y = _check_labels(y, n_classes, "loss_ce")
    if y.size == 0:
        return constant(0.0)
    lp = log_softmax(logits(p, x))
    onehot = np.zeros((y.size, n_classes), dtype=np.float32)
    onehot[np.arange(y.size), y] = 1.0
    return mul(tmean(tsum(mul(lp, onehot), axis=-1)), -1.0)


def loss_pce(params, x: np.ndarray, y: np.ndarray) -> Tensor:
    if y is None or np.asarray(y).size == 0:
        return constant(0.0)
    return loss_ce(params, x, y)


def loss_scl(params, x: np.ndarray, y: np.ndarray, tau: float = 0.07) -> Tensor:
    y = np.asarray(y, dtype=np.int64)
    weights, diag_penalty, _ = supcon_masks(y)
    p = as_leaves(params)
    z = project(p, features(p, x))
    sims = mul(matmul(z, transpose(z)), 1.0 / tau)
    masked = sims + constant(diag_penalty)
    logp = log_softmax(masked)
    return mul(tsum(mul(logp, constant(weights))), -1.0)


def loss_kd(params, teacher: ParamSet, x: np.ndarray, temperature: float = 1.0,
            direction: str = "teacher_ref") -> Tensor:
    x = np.asarray(x)
    if x.size == 0:
        return constant(0.0)
    t_logits = logits(teacher, x).data / np.float32(temperature)
    t_shift = t_logits - t_logits.max(axis=-1, keepdims=True)
    t_prob = np.exp(t_shift) / np.exp(t_shift).sum(axis=-1, keepdims=True)
    p = as_leaves(params)
    s_lp = log_softmax(mul(logits(p, x), 1.0 / temperature))
    if direction == "teacher_ref":
        t_entropy = float(np.mean((t_prob * np.log(np.maximum(t_prob, 1e-30))).sum(axis=-1)))
        cross = tmean(tsum(mul(s_lp, constant(t_prob)), axis=-1))
        return constant(t_entropy) - cross
    s_p = softmax(mul(logits(p, x), 1.0 / temperature))
    t_lp = np.log(np.maximum(t_prob, 1e-30)).astype(np.float32)
    inner = tsum(mul(s_p, s_lp - constant(t_lp)), axis=-1)
    return tmean(inner)
