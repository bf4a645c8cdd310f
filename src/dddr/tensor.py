"""Dense tensors with reverse-mode gradients for a closed kernel set.

The engine supports exactly the kernels the rest of the simulator needs:
matmul, add, elementwise mul, affine, relu, mean, sum, square, concat,
plus shape-only reshape and scalar sugar built from those. There is no
general graph compiler; graphs are built eagerly by calling these
functions on `Tensor` values. The model pieces that run many times per
step are single nodes with a hand-written backward built on the same
array operations: the denoiser (`diffusion.denoiser_forward`), the
client loss terms (`classifier.loss_ce`, `loss_pce`, `loss_scl` and
`loss_kd`) and the EWC penalty (`classifier.ewc_penalty`).

Every kernel, and each of those nodes, hands its backward closure to the
`Tensor` constructor, which keeps it and the parents only when a parent
requires a gradient; a graph built over constants holds nothing but its
values.

Values are float32 by default. Reductions accumulate in float64 before
casting back, and every kernel validates that its output is finite, so a
numeric blow-up is reported at the op where it happens instead of
surfacing as NaN metrics much later. Passing float64 leaves through the
same graph functions is supported (the gradient-check harness relies on
it).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

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
    """Mathematically invalid input, e.g. a zero vector to l2_normalize."""


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

    # Operator sugar, all routed through the kernel set below.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(other, -1.0) if isinstance(other, Tensor) else -np.asarray(other))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __matmul__(self, other):
        return matmul(self, other)

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
    to trainable Tensors; it must build its result from the kernel set in
    this module. Gradients come back with exactly the names and shapes of
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
