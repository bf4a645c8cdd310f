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
    total_objective,
)
from .optim import apply_gradient_step, make_optimizer
from .params import ParamSet, weighted_mean_params
from .tensor import Tensor, evaluate_with_gradients


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
    if not has_training_data(shard, replay_past, replay_current):
        raise ValueError(f"client {client_id}: nothing to train on (empty shard and replay sets)")
    real_x, real_y = _flatten_pair(shard)
    past_x, past_y = _flatten_pair(replay_past)
    cur_x, cur_y = _flatten_pair(replay_current)
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
                # a term that is not computed stays 0.0, which adds no node
                terms = [loss_ce(leaves, bx, by), 0.0, 0.0, 0.0]
                if cfg.weights.w1 > 0 and by.size >= 2:
                    try:
                        terms[1] = loss_scl(leaves, bx, by, tau=cfg.tau)
                    except AllAnchorsSkipped:
                        pass
                if pi is not None and cfg.weights.w2 > 0:
                    terms[2] = loss_pce(leaves, past_x[pi], past_y[pi])
                if distill and cfg.weights.w3 > 0:
                    terms[3] = loss_kd(leaves, snapshot.params, past_x[pi], cfg.kd_temperature, cfg.kd_direction)
                for key, term in zip(("ce", "scl", "pce", "kd"), terms):
                    if isinstance(term, Tensor):
                        term_sums[key] += term.item()
                total = total_objective(terms, cfg.weights)
                if use_ewc:
                    pen = ewc_penalty(leaves, ewc.anchor, ewc.fisher, cfg.ewc_lambda)
                    term_sums["ewc"] += pen.item() + ewc_offset
                    total = total + pen
                return total

            total_value, grads = evaluate_with_gradients(objective, params)
            params = apply_gradient_step(params, grads, opt)
            steps += 1
            term_sums["total"] += total_value + ewc_offset

    means = {k: (v / steps if steps else 0.0) for k, v in term_sums.items()}
    return ClientUpdate(
        client_id=client_id,
        params=params,
        sample_count=max(1, n_real),
        loss_means=means,
        steps=steps,
    )


def has_training_data(*pairs: tuple[np.ndarray, np.ndarray]) -> bool:
    """Whether any of a client's (images, labels) pairs, its shard or a replay set, has a row."""
    return any(np.asarray(labels).size for _, labels in pairs)


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
