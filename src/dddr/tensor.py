"""Dense tensors with reverse-mode gradients, for a few hand-written nodes.

Every model computation the simulator differentiates is one node with a
hand-written backward over numpy arrays: the noise-prediction loss
(`diffusion.ldm_loss`, whose denoiser pass `diffusion.sample` shares), the
client loss terms (`classifier.loss_ce`, `loss_pce`, `loss_scl` and
`loss_kd`) and the EWC penalty (`classifier.ewc_penalty`). This module
holds what they share: the `Tensor` with its tape and reverse sweep,
parameter leaves and constants, `evaluate_with_gradients`, the `add` and
`mul` kernels that `classifier.total_objective` weights and sums the
terms with, and the sigmoid helpers. There is no general graph compiler;
graphs are built eagerly.

Each node hands its backward closure to the `Tensor` constructor, which
keeps it and the parents only when a parent requires a gradient; a graph
built over constants holds nothing but its values.

Values are float32 by default, and float64 leaves pass through the same
nodes (the gradient-check harness relies on it). The constructor
validates that every node's value is finite, and the nodes check their
intermediate sums, so a numeric blow-up is reported where it happens
instead of surfacing as NaN metrics much later.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


class NumericsError(Exception):
    """Base class for tensor-engine failures."""


class ShapeMismatch(NumericsError):
    def __init__(self, kernel: str, *shapes: tuple) -> None:
        super().__init__(f"{kernel}: incompatible shapes {' vs '.join(str(tuple(s)) for s in shapes)}")
        self.kernel = kernel
        self.shapes = shapes


class NonFiniteValue(NumericsError):
    def __init__(self, kernel: str) -> None:
        super().__init__(f"{kernel}: produced a non-finite value")
        self.kernel = kernel


class DegenerateInput(NumericsError):
    """Mathematically invalid input, e.g. a zero feature vector to normalize in loss_scl."""


def check_finite(kernel: str, data: np.ndarray) -> np.ndarray:
    if not np.isfinite(data).all():
        raise NonFiniteValue(kernel)
    return data


def as_array(value, dtype=np.float32) -> np.ndarray:
    arr = np.asarray(value)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(dtype)
    return np.ascontiguousarray(arr)


class Tensor:
    """A node in the computation graph: an ndarray plus backward plumbing."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "op")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
        op: str = "leaf",
    ) -> None:
        self.data = as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None
        self.op = op
        check_finite(op, self.data)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeMismatch("item", self.shape)
        return float(self.data.reshape(()))

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=self.data.dtype)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def backward(self) -> None:
        """Reverse-mode sweep from this scalar node."""
        if self.data.size != 1:
            raise ShapeMismatch("backward", self.shape)
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # `+` adds through the add kernel, as total_objective sums its terms
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self.op}, requires_grad={self.requires_grad})"


def constant(value, dtype=np.float32) -> Tensor:
    return Tensor(as_array(value, dtype))


def _wrap(value, like: Tensor | None = None) -> Tensor:
    if isinstance(value, Tensor):
        return value
    dtype = like.dtype if like is not None else np.float32
    return Tensor(as_array(value, dtype))


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to `shape` (sum over expanded axes, float64 accumulation)."""
    shape = tuple(shape)
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)), dtype=np.float64)
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True, dtype=np.float64)
    return grad.reshape(shape)


def _broadcastable(a: tuple, b: tuple) -> bool:
    for da, db in zip(reversed(a), reversed(b)):
        if da != db and da != 1 and db != 1:
            return False
    return True


def add(a: Tensor, b) -> Tensor:
    a = _wrap(a)
    b = _wrap(b, like=a)
    if not _broadcastable(a.shape, b.shape):
        raise ShapeMismatch("add", a.shape, b.shape)

    def _backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad, a.shape).astype(a.dtype))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad, b.shape).astype(b.dtype))

    return Tensor(a.data + b.data, _parents=(a, b), _backward=_backward, op="add")


def mul(a: Tensor, b) -> Tensor:
    a = _wrap(a)
    b = _wrap(b, like=a)
    if not _broadcastable(a.shape, b.shape):
        raise ShapeMismatch("mul", a.shape, b.shape)

    def _backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * b.data, a.shape).astype(a.dtype))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * a.data, b.shape).astype(b.dtype))

    return Tensor(a.data * b.data, _parents=(a, b), _backward=_backward, op="mul")


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid of an array, in its dtype, without branches or overflow.

    exp is taken only of -|x|, so large |x| cannot overflow; the numerator
    is 1 where x >= 0 and e = exp(x) elsewhere, which gives 1 / (1 + e) and
    e / (1 + e) bit for bit, at +-0, +-inf and on underflow too. NaN maps
    to NaN.
    """
    e = np.exp(-np.abs(x))
    return np.maximum(e, (x >= 0).astype(x.dtype)) / (1.0 + e)


def silu_grad(grad: np.ndarray, x: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """Upstream gradient times d silu(x)/dx, with sig = sigmoid(x)."""
    return grad * (sig * (1.0 + x * (1.0 - sig)))


def param_leaves(params, dtype=None) -> dict[str, Tensor]:
    """Trainable leaf tensors for every entry of a ParamSet-like mapping."""
    leaves = {}
    for name in params:
        arr = params[name] if dtype is None else np.asarray(params[name], dtype=dtype)
        leaves[name] = Tensor(arr, requires_grad=True, op=f"param:{name}")
    return leaves


def as_leaves(params) -> dict[str, Tensor]:
    """Leaves for a graph function: a dict of Tensors as given, else each entry as a constant."""
    if isinstance(params, dict):
        return params
    return {name: constant(params[name]) for name in params}


def evaluate_with_gradients(f, params, *inputs, dtype=None):
    """Evaluate a scalar graph function and return (loss value, gradients).

    `f` is called as f(leaves, *inputs) where `leaves` maps parameter names
    to trainable Tensors; it must build its result from `Tensor` nodes.
    Gradients come back with exactly the names and shapes of
    `params` (zero where the graph never touched a parameter).
    """
    from .params import ParamSet

    leaves = param_leaves(params, dtype=dtype)
    loss = f(leaves, *inputs)
    if not isinstance(loss, Tensor) or loss.data.size != 1:
        raise ShapeMismatch("evaluate_with_gradients", getattr(loss, "shape", ()))
    loss.backward()
    grads = {
        name: (leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data))
        for name, leaf in leaves.items()
    }
    return loss.item(), ParamSet(grads)
