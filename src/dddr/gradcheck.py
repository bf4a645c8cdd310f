"""Central finite-difference verification of analytic gradients.

Both sides stay in float64. The analytic gradients come from one backward
pass of the graph function over float64 leaves, and each difference
quotient evaluates the same function forward only, on float64 constants,
so the comparison is limited by truncation error rather than float32
rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ParamSet
from .tensor import constant, param_leaves


@dataclass
class GradCheckReport:
    tolerance: float
    max_rel_error: dict[str, float]
    passed: bool

    def worst(self) -> tuple[str, float]:
        name = max(self.max_rel_error, key=self.max_rel_error.get)
        return name, self.max_rel_error[name]


def max_relative_error(a, b, floor: float = 1e-8) -> dict[str, float]:
    """Per-parameter max of |a-b| / max(|a|, |b|, floor)."""
    out = {}
    for name in a:
        x = a[name].astype(np.float64)
        y = b[name].astype(np.float64)
        denom = np.maximum(np.maximum(np.abs(x), np.abs(y)), floor)
        out[name] = float(np.max(np.abs(x - y) / denom)) if x.size else 0.0
    return out


def numeric_gradients(f, params: ParamSet, *inputs, h: float = 1e-3) -> dict[str, np.ndarray]:
    """Central differences of f over every parameter component, as float64 arrays."""
    base = {name: np.array(params[name], dtype=np.float64) for name in params}

    def value() -> float:
        return f({name: constant(arr) for name, arr in base.items()}, *inputs).item()

    grads = {}
    for name, arr in base.items():
        flat = arr.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = value()
            flat[i] = orig - h
            down = value()
            flat[i] = orig
            g[i] = (up - down) / (2.0 * h)
        grads[name] = g.reshape(arr.shape)
    return grads


def finite_difference_check(
    f, params: ParamSet, *inputs, h: float = 1e-3, tolerance: float = 1e-3, floor: float = 1e-2
) -> GradCheckReport:
    """Compare analytic gradients of f against central differences.

    The error for a component is |a - b| / max(|a|, |b|, floor): relative
    at `tolerance` for components above `floor`, absolute at
    `tolerance * floor` below it (the usual gradcheck convention; the
    difference quotient's truncation error is absolute, so a pure ratio
    would flag near-zero components whose gradients are in fact correct).
    """
    leaves = param_leaves(params, dtype=np.float64)
    f(leaves, *inputs).backward()
    analytic = {name: leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data) for name, leaf in leaves.items()}
    numeric = numeric_gradients(f, params, *inputs, h=h)
    errors = max_relative_error(analytic, numeric, floor=floor)
    return GradCheckReport(
        tolerance=tolerance,
        max_rel_error=errors,
        passed=all(e <= tolerance for e in errors.values()),
    )
