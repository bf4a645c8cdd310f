"""Graph forms that hand-written nodes replaced, kept as bit-exact references.

Every model computation in `dddr` is one tensor-engine node with a
hand-written backward: the noise-prediction loss (`diffusion.ldm_loss`),
the denoiser pass the sampler shares with it, and the client loss terms.
This module keeps what those nodes replaced, as graphs of small kernels
exactly as they were, and no `dddr` code reaches it:
- the kernels matmul, affine, relu, square, sum, mean, concat, reshape,
  silu, softmax, log_softmax, l2_normalize and transpose, and `sub`, the
  form `a - b` had on tensors;
- the classifier's `features`, `logits` and `project`;
- the denoiser, the condition rows and the noise-prediction loss;
- the four client loss terms;
- the sampler as it ran before it stacked classes and drew its noise on
  a helper thread: one class per call, every draw in line.
The tests compare every node's value and leaf gradients, and the
sampler's latents, with these bit for bit.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from dddr import diffusion
from dddr.classifier import _check_labels, _input_rows, supcon_masks
from dddr.diffusion import DENOISER_NAMES, ConditionVector, NoiseSchedule, forward_diffuse
from dddr.params import ParamSet
from dddr.tensor import (
    DegenerateInput,
    ShapeMismatch,
    Tensor,
    _wrap,
    add,
    as_leaves,
    constant,
    mul,
    sigmoid,
    silu_grad,
)


def sub(a: Tensor, b) -> Tensor:
    """a - b, as the Tensor operator built it: a plus b times -1.0."""
    return add(a, mul(b, -1.0) if isinstance(b, Tensor) else -np.asarray(b))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatch("matmul", a.shape, b.shape)

    def _backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ grad)

    return Tensor(a.data @ b.data, _parents=(a, b), _backward=_backward, op="matmul")


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b, the basic dense layer."""
    return add(matmul(x, w), b)


def relu(x: Tensor) -> Tensor:
    x = _wrap(x)

    def _backward(grad: np.ndarray) -> None:
        x._accumulate(grad * (x.data > 0))

    return Tensor(np.maximum(x.data, 0), _parents=(x,), _backward=_backward, op="relu")


def square(x: Tensor) -> Tensor:
    x = _wrap(x)

    def _backward(grad: np.ndarray) -> None:
        x._accumulate(grad * (2.0 * x.data))

    return Tensor(x.data * x.data, _parents=(x,), _backward=_backward, op="square")


def _reduce(x: Tensor, axis, keepdims: bool, op: str, scale_to_mean: bool) -> Tensor:
    x = _wrap(x)
    acc = x.data.sum(axis=axis, keepdims=keepdims, dtype=np.float64)
    if axis is None:
        count = x.data.size
    else:
        count = int(np.prod([x.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]))
    if count == 0:
        raise ShapeMismatch(op, x.shape)
    if scale_to_mean:
        acc = acc / count

    def _backward(grad: np.ndarray) -> None:
        g = np.asarray(grad)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        g = np.broadcast_to(g, x.shape)
        if scale_to_mean:
            g = g / count
        x._accumulate(g.astype(x.dtype))

    return Tensor(acc.astype(x.dtype), _parents=(x,), _backward=_backward, op=op)


def tsum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    return _reduce(x, axis, keepdims, "sum", scale_to_mean=False)


def tmean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    return _reduce(x, axis, keepdims, "mean", scale_to_mean=True)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    if not tensors:
        raise ShapeMismatch("concat", ())
    ref = tensors[0].shape
    for t in tensors[1:]:
        if len(t.shape) != len(ref) or any(
            d != r for i, (d, r) in enumerate(zip(t.shape, ref)) if i != axis % len(ref)
        ):
            raise ShapeMismatch("concat", *[t.shape for t in tensors])
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def _backward(grad: np.ndarray) -> None:
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(lo, hi)
                t._accumulate(grad[tuple(index)])

    data = np.concatenate([t.data for t in tensors], axis=axis)
    return Tensor(data, _parents=tuple(tensors), _backward=_backward, op="concat")


def reshape(x: Tensor, shape: Iterable[int]) -> Tensor:
    x = _wrap(x)
    shape = tuple(shape)

    def _backward(grad: np.ndarray) -> None:
        x._accumulate(grad.reshape(x.shape))

    return Tensor(x.data.reshape(shape), _parents=(x,), _backward=_backward, op="reshape")


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


def _wrap_input(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return constant(_input_rows(x))


def features(params, x) -> Tensor:
    p = as_leaves(params)
    h = relu(affine(_wrap_input(x), p["fe.w1"], p["fe.b1"]))
    return relu(affine(h, p["fe.w2"], p["fe.b2"]))


def logits(params, x) -> Tensor:
    p = as_leaves(params)
    return affine(features(p, x), p["head.w"], p["head.b"])


# -- the denoiser and the noise-prediction loss ------------------------------

def where_silu(x):
    """The two-np.where silu kernel that the silu kernel used to be."""
    x = _wrap(x)
    pos = x.data >= 0
    e = np.exp(np.where(pos, -x.data, x.data))
    sig = np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e)).astype(x.dtype)
    out = Tensor(x.data * sig, _parents=(x,), op="silu")

    def _backward(grad):
        x._accumulate(grad * (sig * (1.0 + x.data * (1.0 - sig))))

    out._backward = _backward
    return out


def denoiser_forward(params, z, temb, cond) -> Tensor:
    """The denoiser as the 18-kernel graph of matmul, add and silu nodes it used to be."""
    p = as_leaves(params)
    z = z if isinstance(z, Tensor) else constant(np.asarray(z, dtype=np.float32))
    temb = temb if isinstance(temb, Tensor) else constant(np.asarray(temb, dtype=np.float32))
    cond = cond if isinstance(cond, Tensor) else constant(np.asarray(cond, dtype=np.float32))
    h = add(matmul(z, p["den.w_in"]), p["den.b_in"])
    h = where_silu(add(add(h, matmul(temb, p["den.w_time"])), matmul(cond, p["den.w_cond"])))
    h2 = affine(h, p["den.w_h"], p["den.b_h"])
    h2 = where_silu(add(add(h2, matmul(temb, p["den.w_time2"])), matmul(cond, p["den.w_cond2"])))
    return add(affine(h2, p["den.w_out"], p["den.b_out"]), matmul(z, p["den.w_skip"]))


def condition_rows(prompt: np.ndarray, class_part, batch: int):
    """(B, 2 * d_e) condition rows; keeps the class half differentiable if it is a Tensor."""
    prompt_rows = constant(np.tile(np.asarray(prompt, dtype=np.float32), (batch, 1)))
    if isinstance(class_part, Tensor):
        row = reshape(class_part, (1, class_part.data.size))
        class_rows = matmul(constant(np.ones((batch, 1), dtype=np.float32)), row)
    else:
        class_rows = constant(np.tile(np.asarray(class_part, dtype=np.float32), (batch, 1)))
    return concat([prompt_rows, class_rows], axis=1)


def pretraining_condition(prompt: np.ndarray, table, slots: np.ndarray) -> Tensor:
    """Pretraining's condition rows: the tiled prompt beside onehot(slots) @ table."""
    onehot = np.zeros((slots.size, table.shape[0]), dtype=np.float32)
    onehot[np.arange(slots.size), slots] = 1.0
    class_rows = matmul(constant(onehot), table)
    prompt_rows = constant(np.tile(prompt, (slots.size, 1)))
    return concat([prompt_rows, class_rows], axis=1)


def ldm_loss_over_rows(params, z0: np.ndarray, cond_rows, sched: NoiseSchedule, t: np.ndarray, eps: np.ndarray,
                       temb_table: np.ndarray) -> Tensor:
    """Noise-prediction objective: mean over the batch of ||eps - eps_hat||^2."""
    z0 = np.asarray(z0, dtype=np.float32)
    if z0.ndim != 2 or z0.shape[0] == 0:
        raise ValueError("ldm_loss: z0 must be a non-empty (B, D) batch")
    z_t = forward_diffuse(z0, t, eps, sched)
    pred = denoiser_forward(params, z_t, temb_table[np.asarray(t)], cond_rows)
    diff = sub(pred, constant(eps))
    return tmean(tsum(square(diff), axis=-1))


def ldm_loss(params, z0, prompt, table, slots, sched, t, eps, temb_table) -> Tensor:
    """`diffusion.ldm_loss`'s signature over the graph forms.

    A 1-d table is inversion's vector and goes through `condition_rows`, a
    2-d one through `pretraining_condition`, as each caller built its rows.
    """
    if np.ndim(table.data if isinstance(table, Tensor) else table) == 1:
        cond = condition_rows(prompt, table, len(slots))
    else:
        cond = pretraining_condition(prompt, _wrap(table), np.asarray(slots))
    return ldm_loss_over_rows(params, z0, cond, sched, t, eps, temb_table)


# -- the sampler, one class per call ------------------------------------------

def sample_one_class(params: ParamSet, cond: ConditionVector, n: int, sched: NoiseSchedule,
                     rng: np.random.Generator, temb_table: np.ndarray,
                     clamp: tuple[float, float] = (0.0, 1.0)) -> np.ndarray:
    """Ancestral sampling of one class, each step's noise drawn in line: the loop `diffusion.sample` ran."""
    if n < 1:
        raise ValueError("sample: n must be >= 1")
    latent_dim = params["den.b_out"].shape[0]
    leaves = as_leaves(params)
    weights = {name: leaves[name].data for name in DENOISER_NAMES}
    cond_rows = np.tile(cond.combined(), (n, 1))
    z = rng.standard_normal((n, latent_dim)).astype(np.float32)
    for t in range(sched.T, 0, -1):
        beta = sched.beta(t)
        ab = sched.alpha_bar(t)
        temb = np.tile(temb_table[t], (n, 1))
        eps_hat = diffusion._denoise(weights, z, temb, cond_rows)[0]
        z = (z - (beta / np.sqrt(1.0 - ab)) * eps_hat) / np.sqrt(1.0 - beta)
        if t > 1:
            z = z + np.sqrt(beta) * rng.standard_normal((n, latent_dim))
        z = z.astype(np.float32)
    return np.clip(z, clamp[0], clamp[1]).astype(np.float32)


# -- the client loss terms ----------------------------------------------------

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
    masked = add(sims, constant(diag_penalty))
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
        return sub(constant(t_entropy), cross)
    s_p = softmax(mul(logits(p, x), 1.0 / temperature))
    t_lp = np.log(np.maximum(t_prob, 1e-30)).astype(np.float32)
    inner = tsum(mul(s_p, sub(s_lp, constant(t_lp))), axis=-1)
    return tmean(inner)
