"""Client-local classifier training and server-side parameter aggregation.

A client trains on its real shard mixed 1:1 with generated current-task
data (when present), drawing one generated-history batch per step for the
replay cross-entropy and distillation terms. Everything a client does is
a pure function of (broadcast params, shard, replay sets, stream), so
clients may run in any order or in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classifier import (
    AllAnchorsSkipped,
    EwcTerm,
    LossWeights,
    Snapshot,
    ewc_penalty,
    loss_ce,
    loss_kd,
    loss_pce,
    loss_scl,
)
from .optim import apply_gradient_step, make_optimizer
from .params import ParamSet, weighted_mean_params
from .tensor import evaluate_with_gradients, mul


@dataclass
class ClientTrainConfig:
    epochs: int = 5
    batch: int = 32
    lr: float = 1e-3
    optimizer: str = "adam"
    weights: LossWeights = field(default_factory=LossWeights)
    tau: float = 0.07
    kd_temperature: float = 1.0
    kd_direction: str = "teacher_ref"
    use_scl: bool = True
    use_replay_past: bool = True
    use_replay_current: bool = True
    ewc_lambda: float = 0.0


@dataclass
class ClientUpdate:
    client_id: int
    params: ParamSet
    sample_count: int
    loss_means: dict[str, float] = field(default_factory=dict)
    steps: int = 0


class _Cycler:
    """Endless shuffled passes over an index range."""

    def __init__(self, n: int, rng: np.random.Generator) -> None:
        self.n = n
        self.rng = rng
        self.order = rng.permutation(n) if n else np.zeros(0, dtype=np.int64)
        self.pos = 0

    def take(self, count: int) -> np.ndarray:
        out = []
        while count > 0 and self.n:
            if self.pos >= self.n:
                self.order = self.rng.permutation(self.n)
                self.pos = 0
            grab = min(count, self.n - self.pos)
            out.append(self.order[self.pos : self.pos + grab])
            self.pos += grab
            count -= grab
        return np.concatenate(out) if out else np.zeros(0, dtype=np.int64)


def local_train_client(
    client_id: int,
    global_params: ParamSet,
    shard: tuple[np.ndarray, np.ndarray],
    replay_past: tuple[np.ndarray, np.ndarray],
    replay_current: tuple[np.ndarray, np.ndarray],
    snapshot: Snapshot | None,
    ewc: EwcTerm | None,
    cfg: ClientTrainConfig,
    rng: np.random.Generator,
) -> ClientUpdate:
    """Run E local epochs of the combined objective and return the update.

    shard / replay_* are (images, labels) pairs; any of them may be empty,
    but not all of shard and the replay sets together (see
    `has_training_data`). `ewc` is the consolidated penalty of the finished
    tasks; a falsy value means none.
    """
    if not has_training_data(shard, replay_past, replay_current, cfg):
        raise ValueError(f"client {client_id}: nothing to train on (empty shard and replay sets)")
    real_x, real_y = _flatten_pair(shard)
    past_x, past_y = _flatten_pair(replay_past) if cfg.use_replay_past else _empty_pair(real_x)
    cur_x, cur_y = _flatten_pair(replay_current) if cfg.use_replay_current else _empty_pair(real_x)
    n_real, n_cur, n_past = real_y.size, cur_y.size, past_y.size

    params = global_params
    if cfg.epochs == 0:
        return ClientUpdate(client_id=client_id, params=params, sample_count=max(1, n_real))

    distill = snapshot is not None and n_past > 0
    use_ewc = cfg.ewc_lambda > 0 and bool(ewc)
    # the consolidated penalty leaves out a constant; logged values add it back
    ewc_offset = 0.5 * cfg.ewc_lambda * ewc.offset if use_ewc else 0.0
    opt = make_optimizer(cfg.optimizer, cfg.lr)
    term_sums = {"ce": 0.0, "scl": 0.0, "pce": 0.0, "kd": 0.0, "ewc": 0.0, "total": 0.0}
    steps = 0
    last_terms: dict[str, float] = {}

    real_cycle = _Cycler(n_real, rng)
    cur_cycle = _Cycler(n_cur, rng)
    past_cycle = _Cycler(n_past, rng)

    # epochs pace by passes over the real shard, mixed 1:1 with generated
    # current-task data when both exist; a data-less client paces by the
    # shared generated set instead
    half = max(1, cfg.batch // 2)
    if n_real and n_cur:
        steps_per_epoch = max(1, int(np.ceil(n_real / half)))
    elif n_real:
        steps_per_epoch = max(1, int(np.ceil(n_real / cfg.batch)))
    else:
        steps_per_epoch = max(1, int(np.ceil(n_cur / cfg.batch)))

    for _ in range(cfg.epochs):
        for _ in range(steps_per_epoch):
            if n_real and n_cur:
                ri = real_cycle.take(half)
                gi = cur_cycle.take(cfg.batch - half)
                bx = np.concatenate([real_x[ri], cur_x[gi]])
                by = np.concatenate([real_y[ri], cur_y[gi]])
            elif n_real:
                ri = real_cycle.take(min(cfg.batch, n_real))
                bx, by = real_x[ri], real_y[ri]
            else:
                gi = cur_cycle.take(min(cfg.batch, n_cur))
                bx, by = cur_x[gi], cur_y[gi]
            pi = past_cycle.take(min(cfg.batch, n_past)) if n_past else None

            def objective(leaves):
                last_terms.clear()
                total = loss_ce(leaves, bx, by)
                last_terms["ce"] = total.item()
                if cfg.use_scl and cfg.weights.w1 > 0 and by.size >= 2:
                    try:
                        scl = loss_scl(leaves, bx, by, tau=cfg.tau)
                    except AllAnchorsSkipped:
                        scl = None
                    if scl is not None:
                        last_terms["scl"] = scl.item()
                        total = total + mul(scl, cfg.weights.w1)
                if pi is not None and cfg.weights.w2 > 0:
                    pce = loss_pce(leaves, past_x[pi], past_y[pi])
                    last_terms["pce"] = pce.item()
                    total = total + mul(pce, cfg.weights.w2)
                if pi is not None and distill and cfg.weights.w3 > 0:
                    kd = loss_kd(leaves, snapshot.params, past_x[pi], cfg.kd_temperature, cfg.kd_direction)
                    last_terms["kd"] = kd.item()
                    total = total + mul(kd, cfg.weights.w3)
                if use_ewc:
                    pen = ewc_penalty(leaves, ewc.anchor, ewc.fisher, cfg.ewc_lambda)
                    last_terms["ewc"] = pen.item() + ewc_offset
                    total = total + pen
                return total

            total_value, grads = evaluate_with_gradients(objective, params)
            params = apply_gradient_step(params, grads, opt)
            steps += 1
            term_sums["total"] += total_value + ewc_offset
            for key, value in last_terms.items():
                term_sums[key] += value

    means = {k: (v / steps if steps else 0.0) for k, v in term_sums.items()}
    return ClientUpdate(
        client_id=client_id,
        params=params,
        sample_count=max(1, n_real),
        loss_means=means,
        steps=steps,
    )


def has_training_data(
    shard: tuple[np.ndarray, np.ndarray],
    replay_past: tuple[np.ndarray, np.ndarray],
    replay_current: tuple[np.ndarray, np.ndarray],
    cfg: ClientTrainConfig,
) -> bool:
    """Whether a client has any rows to train on: its shard or a replay set it uses."""
    return bool(
        np.asarray(shard[1]).size
        or (cfg.use_replay_past and np.asarray(replay_past[1]).size)
        or (cfg.use_replay_current and np.asarray(replay_current[1]).size)
    )


def aggregate_classifier(updates: list[ClientUpdate]) -> ParamSet:
    """Sample-count-weighted mean of client parameters."""
    if not updates:
        raise ValueError("aggregate_classifier: no updates")
    total = sum(u.sample_count for u in updates)
    if total <= 0:
        raise ValueError("aggregate_classifier: zero total sample count")
    ordered = sorted(updates, key=lambda u: u.client_id)
    return weighted_mean_params([u.params for u in ordered], [float(u.sample_count) for u in ordered])


def _flatten_pair(pair: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    x, y = pair
    x = np.asarray(x, dtype=np.float32)
    y = np.asarray(y, dtype=np.int64)
    if y.size == 0:
        return np.zeros((0, 1), dtype=np.float32), y.reshape(0)
    return x.reshape(x.shape[0], -1), y


def _empty_pair(like: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.zeros((0, like.shape[1] if like.ndim == 2 and like.shape[1] else 1), dtype=np.float32), np.zeros(
        (0,), dtype=np.int64
    )
