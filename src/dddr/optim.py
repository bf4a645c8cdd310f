"""SGD and Adam parameter updates over ParamSets."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .params import ParamSet, _require_same_names


@dataclass
class OptimizerState:
    """Per-worker optimizer state; never shared across clients."""

    kind: str
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")


def sgd(lr: float) -> OptimizerState:
    return OptimizerState(kind="sgd", lr=lr)


def adam(lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> OptimizerState:
    return OptimizerState(kind="adam", lr=lr, beta1=beta1, beta2=beta2, eps=eps)


def make_optimizer(kind: str, lr: float) -> OptimizerState:
    return OptimizerState(kind=kind, lr=lr)


def apply_gradient_step(params: ParamSet, grads: ParamSet, opt: OptimizerState) -> ParamSet:
    """One optimizer step; returns new params and advances `opt` in place."""
    _require_same_names("apply_gradient_step", params, grads)
    for name in params:
        if params[name].shape != grads[name].shape:
            raise ValueError(
                f"apply_gradient_step: shape mismatch for {name!r}: "
                f"{params[name].shape} vs {grads[name].shape}"
            )
    opt.step += 1
    updated: dict[str, np.ndarray] = {}
    if opt.kind == "sgd":
        lr = np.float32(opt.lr)
        for name in params:
            updated[name] = params[name] - lr * grads[name]
        return ParamSet(updated)

    # m = b1*m + (1-b1)*g and v = b2*v + (1-b2)*(g*g), updated in place, then
    # theta - lr*(m/bias1) / (sqrt(v/bias2) + eps); m and v are allocated once
    bias1 = np.float32(1.0 - opt.beta1**opt.step)
    bias2 = np.float32(1.0 - opt.beta2**opt.step)
    for name in params:
        g = grads[name]
        if name not in opt.m:
            opt.m[name] = np.zeros_like(g)
            opt.v[name] = np.zeros_like(g)
        m, v = opt.m[name], opt.v[name]
        tmp = np.multiply(g, 1.0 - opt.beta1)
        m *= opt.beta1
        m += tmp
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - opt.beta2
        v *= opt.beta2
        v += tmp
        step = np.divide(m, bias1)
        step *= np.float32(opt.lr)
        np.divide(v, bias2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += np.float32(opt.eps)
        step /= tmp
        updated[name] = params[name] - step
    return ParamSet(updated)
