"""Federated class inversion: learn a condition embedding per class.

Each client holding images of a class optimizes that class's embedding
against the frozen denoiser (the denoiser itself is never touched; a
checksum guards that). The server averages the uploaded embeddings,
optionally after clients add Gaussian noise for privacy, and broadcasts
the mean for the next round. Once a task's rounds complete, its
embeddings freeze into the class table, a plain `dict[int, ndarray]` of
float32 `(embed_dim,)` vectors and the only per-class state carried
forward. `save_embeddings`/`load_embeddings` own its checkpoint layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffusion import PretrainedDiffusion, condition_rows, draw_timesteps_and_noise, ldm_loss
from .optim import adam, apply_gradient_step
from .params import CheckpointError, ParamSet, load_checkpoint, save_checkpoint
from .rng import stream
from .tensor import as_leaves, evaluate_with_gradients


@dataclass
class InversionConfig:
    rounds: int = 10
    local_steps: int = 50
    lr: float = 1e-2
    batch: int = 16
    sigma_g: float = 0.0
    init_std: float = 0.1


def save_embeddings(path, table: dict[int, np.ndarray], rounds: int, embed_dim: int) -> None:
    """Write the class -> embedding table as one checkpoint entry `class_NNNNN` per class."""
    params = ParamSet({f"class_{c:05d}": table[c] for c in table})
    save_checkpoint(path, params, extra={"rounds": {str(c): rounds for c in table}, "embed_dim": embed_dim})


def load_embeddings(path, embed_dim: int) -> dict[int, np.ndarray]:
    """The class -> embedding table of `save_embeddings`; CheckpointError names the file on a bad entry.

    Only the canonical name `class_NNNNN` is accepted for a class, so no
    class can appear under two entries.
    """
    params, _ = load_checkpoint(path)
    table: dict[int, np.ndarray] = {}
    for name in params:
        digits = name.removeprefix("class_")
        c = int(digits) if digits.isascii() and digits.isdigit() else -1
        if name != f"class_{c:05d}":
            raise CheckpointError(f"{path}: entry {name!r} is not named class_NNNNN")
        vector = params[name]
        if vector.shape != (embed_dim,):
            raise CheckpointError(f"{path}: class {c}: embedding shape {vector.shape} != ({embed_dim},)")
        if not np.all(np.isfinite(vector)):
            raise CheckpointError(f"{path}: class {c}: embedding has non-finite entries")
        table[c] = vector
    return table


def add_gaussian_noise(value, sigma: float, rng: np.random.Generator):
    """value + N(0, sigma^2) element-wise; works on arrays and ParamSets."""
    if sigma < 0:
        raise ValueError(f"noise sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return value
    if isinstance(value, ParamSet):
        return ParamSet({k: v + rng.normal(0.0, sigma, size=v.shape).astype(np.float32) for k, v in value.items()})
    arr = np.asarray(value, dtype=np.float32)
    return arr + rng.normal(0.0, sigma, size=arr.shape).astype(np.float32)


def local_class_inversion(
    shard_images: np.ndarray,
    class_index: int,
    start: np.ndarray,
    steps: int,
    model: PretrainedDiffusion,
    rng: np.random.Generator,
    lr: float = 1e-2,
    batch: int = 16,
    probe_rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, float, float]:
    """Optimize one class embedding on one client's images of that class.

    Returns (embedding, loss_start, loss_end); the losses are evaluated on
    a fixed probe batch so they compare embeddings rather than timestep
    luck, and a caller that re-creates `probe_rng` with the same key every
    round gets traces comparable across rounds. Gradients flow only into
    the embedding; denoiser parameters and the prompt enter the graph as
    constants.
    """
    images = np.asarray(shard_images, dtype=np.float32)
    if images.shape[0] == 0:
        raise ValueError(f"client holds no images of class {class_index}")
    flat = images.reshape(images.shape[0], -1)
    if steps == 0:
        return start.copy(), 0.0, 0.0

    denoiser_consts = as_leaves(model.params)  # wrapped and finite-checked once per call

    probe_source = probe_rng if probe_rng is not None else rng
    probe_idx = probe_source.integers(0, flat.shape[0], size=min(batch, flat.shape[0]))
    probe_t, probe_eps = draw_timesteps_and_noise(probe_source, probe_idx.size, flat.shape[1], model.sched.T)

    def probe_loss(vector: np.ndarray) -> float:
        cond = condition_rows(model.prompt, vector, probe_idx.size)
        value = ldm_loss(denoiser_consts, flat[probe_idx], cond, model.sched, probe_t, probe_eps,
                         model.temb_table)
        return value.item()

    params = ParamSet({"v": start})
    loss_start = probe_loss(params["v"])
    opt = adam(lr)
    for _ in range(steps):
        idx = rng.integers(0, flat.shape[0], size=min(batch, flat.shape[0]))
        t, eps = draw_timesteps_and_noise(rng, idx.size, flat.shape[1], model.sched.T)

        def objective(leaves):
            cond = condition_rows(model.prompt, leaves["v"], idx.size)
            return ldm_loss(denoiser_consts, flat[idx], cond, model.sched, t, eps, model.temb_table)

        _, grads = evaluate_with_gradients(objective, params)
        params = apply_gradient_step(params, grads, opt)
    return params["v"], loss_start, probe_loss(params["v"])


def aggregate_embeddings(uploads: list[np.ndarray]) -> np.ndarray:
    """Unweighted element-wise mean of the uploads that exist this round."""
    if not uploads:
        raise ValueError("aggregate_embeddings: no uploads (class has no data on any client)")
    dim = uploads[0].shape
    for u in uploads[1:]:
        if u.shape != dim:
            raise ValueError(f"aggregate_embeddings: dim mismatch {u.shape} vs {dim}")
    acc = np.zeros(dim, dtype=np.float64)
    for u in uploads:
        acc += u.astype(np.float64)
    return (acc / len(uploads)).astype(np.float32)


def federated_class_inversion(
    task_classes: list[int],
    client_images_by_class: list[dict[int, np.ndarray]],
    model: PretrainedDiffusion,
    cfg: InversionConfig,
    seed: int,
    table: dict[int, np.ndarray],
    task_index: int = 0,
) -> list[dict]:
    """Run the round loop for every class of one task and add the results to `table`.

    client_images_by_class[j][c] is client j's stack of class-c images
    (possibly empty). Clients without data for a class skip it and are
    excluded from that class's average. A class already in `table` was
    inverted by an earlier task and is frozen. Returns the per-round report
    records (one dict per round, class, client).
    """
    checksum_before = model.checksum()
    k = len(client_images_by_class)
    for c in task_classes:
        if c in table:
            raise ValueError(f"class {c} was already inverted in an earlier task")
        total = sum(client_images_by_class[j].get(c, np.zeros((0,))).shape[0] for j in range(k))
        if total == 0:
            raise ValueError(f"class {c} has no samples on any client")

    current = {
        c: stream(seed, "invert-init", c).normal(0.0, cfg.init_std, size=model.dims.embed_dim).astype(np.float32)
        for c in sorted(task_classes)
    }

    report: list[dict] = []
    for rnd in range(1, cfg.rounds + 1):
        for c in sorted(task_classes):
            uploads: list[np.ndarray] = []
            for j in range(k):
                images = client_images_by_class[j].get(c)
                if images is None or images.shape[0] == 0:
                    report.append(
                        {"task": task_index, "round": rnd, "class": c, "client": j,
                         "loss_start": None, "loss_end": None, "participated": False}
                    )
                    continue
                rng = stream(seed, "invert", task_index, rnd, j, c)
                probe_rng = stream(seed, "invert-probe", task_index, j, c)  # round-independent
                local, loss_start, loss_end = local_class_inversion(
                    images, c, current[c], cfg.local_steps, model, rng, lr=cfg.lr, batch=cfg.batch,
                    probe_rng=probe_rng,
                )
                if cfg.sigma_g > 0:
                    noise_rng = stream(seed, "invert-noise", task_index, rnd, j, c)
                    local = add_gaussian_noise(local, cfg.sigma_g, noise_rng)
                uploads.append(local)
                report.append(
                    {"task": task_index, "round": rnd, "class": c, "client": j,
                     "loss_start": loss_start, "loss_end": loss_end, "participated": True}
                )
            current[c] = aggregate_embeddings(uploads)
            if not np.all(np.isfinite(current[c])):
                raise ValueError(f"class {c}: embedding has non-finite entries")
    table.update(current)

    if model.checksum() != checksum_before:
        raise AssertionError("denoiser or prompt changed during inversion (freeze contract violated)")
    return report
