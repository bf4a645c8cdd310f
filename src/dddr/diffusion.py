"""Tiny conditional denoising diffusion model over flattened pixels.

A linear-beta noise schedule, an MLP noise predictor conditioned on a
sinusoidal timestep embedding plus a condition vector, the standard
noise-prediction training objective, and an ancestral sampler. The
condition vector is the concatenation of a frozen "prompt" half (shared
by every class, fixed at pretraining time) and a per-class embedding
half; the embedding half is the only thing later phases are allowed to
optimize.

The autoencoder wrapping the latent space is the identity by default; a
linear (PCA) pair is available when a compressed latent is wanted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus
from .params import ParamSet, load_checkpoint, params_checksum, save_checkpoint
from .optim import adam, apply_gradient_step
from .rng import stream
from .tensor import (
    NonFiniteValue,
    Tensor,
    affine,
    as_leaves,
    concat,
    constant,
    evaluate_with_gradients,
    matmul,
    mul,
    reshape,
    silu,
    square,
    tmean,
    tsum,
)


class ScheduleError(ValueError):
    pass


@dataclass(frozen=True)
class NoiseSchedule:
    """Betas and cumulative signal coefficients, 1-based timestep indexing."""

    T: int
    betas: np.ndarray       # (T,) float64, betas[i] is beta_{i+1}
    alphas_bar: np.ndarray  # (T,) float64, running product of (1 - beta)

    def beta(self, t):
        return self.betas[np.asarray(t) - 1]

    def alpha_bar(self, t):
        return self.alphas_bar[np.asarray(t) - 1]


def build_schedule(T: int, beta_min: float = 1e-4, beta_max: float = 0.02) -> NoiseSchedule:
    if T < 2:
        raise ScheduleError(f"schedule needs at least 2 steps, got T={T}")
    if not (0.0 < beta_min <= beta_max < 1.0):
        raise ScheduleError(f"beta bounds must satisfy 0 < {beta_min} <= {beta_max} < 1")
    betas = np.linspace(beta_min, beta_max, T, dtype=np.float64)
    alphas_bar = np.cumprod(1.0 - betas)
    sched = NoiseSchedule(T=T, betas=betas, alphas_bar=alphas_bar)
    if not np.all(np.diff(alphas_bar) < 0):
        raise ScheduleError("cumulative signal coefficients must be strictly decreasing")
    return sched


def forward_diffuse(z0: np.ndarray, t, eps: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """Noised latent at step t: sqrt(ab_t) * z0 + sqrt(1 - ab_t) * eps."""
    z0 = np.asarray(z0, dtype=np.float32)
    eps = np.asarray(eps, dtype=np.float32)
    if eps.shape != z0.shape:
        raise ValueError(f"forward_diffuse: eps shape {eps.shape} != z0 shape {z0.shape}")
    t_arr = np.asarray(t)
    if np.any(t_arr < 1) or np.any(t_arr > sched.T):
        raise ValueError(f"forward_diffuse: t={t} outside [1, {sched.T}]")
    ab = sched.alpha_bar(t_arr)
    if t_arr.ndim > 0 and z0.ndim > 1:
        ab = ab.reshape((-1,) + (1,) * (z0.ndim - 1))
    return (np.sqrt(ab) * z0 + np.sqrt(1.0 - ab) * eps).astype(np.float32)


@dataclass(frozen=True)
class DiffusionDims:
    latent_dim: int
    embed_dim: int = 16
    time_dim: int = 16
    hidden: int = 128

    @property
    def cond_dim(self) -> int:
        return 2 * self.embed_dim


def time_embedding_table(T: int, dim: int) -> np.ndarray:
    """Sinusoidal embeddings for timesteps 0..T, shape (T+1, dim)."""
    if dim % 2 != 0:
        raise ValueError("time embedding dim must be even")
    half = dim // 2
    t = np.arange(T + 1, dtype=np.float64)[:, None]
    freqs = np.exp(-np.log(10000.0) * np.arange(half, dtype=np.float64) / max(half - 1, 1))
    angles = t * freqs[None, :]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1).astype(np.float32)


def init_denoiser(dims: DiffusionDims, seed: int) -> ParamSet:
    rng = stream(seed, "denoiser-init")

    def normal(fan_in, shape):
        return rng.normal(0.0, np.sqrt(1.0 / fan_in), size=shape).astype(np.float32)

    return ParamSet(
        {
            "den.w_in": normal(dims.latent_dim, (dims.latent_dim, dims.hidden)),
            "den.b_in": np.zeros(dims.hidden, dtype=np.float32),
            "den.w_time": normal(dims.time_dim, (dims.time_dim, dims.hidden)),
            "den.w_cond": normal(dims.cond_dim, (dims.cond_dim, dims.hidden)),
            "den.w_h": normal(dims.hidden, (dims.hidden, dims.hidden)),
            "den.b_h": np.zeros(dims.hidden, dtype=np.float32),
            "den.w_time2": normal(dims.time_dim, (dims.time_dim, dims.hidden)),
            "den.w_cond2": normal(dims.cond_dim, (dims.cond_dim, dims.hidden)),
            "den.w_out": normal(dims.hidden, (dims.hidden, dims.latent_dim)),
            "den.b_out": np.zeros(dims.latent_dim, dtype=np.float32),
            # identity-initialized skip; without it the hidden width would
            # bottleneck the full-rank noise target
            "den.w_skip": np.eye(dims.latent_dim, dtype=np.float32),
        }
    )


def denoiser_forward(params, z, temb, cond) -> Tensor:
    """Predicted noise for a noised latent batch.

    z: (B, D) latent, temb: (B, time_dim) timestep embedding rows,
    cond: (B, 2 * embed_dim) condition rows. Any of them may be graph
    tensors; the condition is the differentiable path during inversion.
    The timestep and condition enter both hidden layers additively, and a
    linear skip from z to the output keeps the map full-rank.
    """
    p = as_leaves(params)
    z = z if isinstance(z, Tensor) else constant(np.asarray(z, dtype=np.float32))
    temb = temb if isinstance(temb, Tensor) else constant(np.asarray(temb, dtype=np.float32))
    cond = cond if isinstance(cond, Tensor) else constant(np.asarray(cond, dtype=np.float32))
    h = matmul(z, p["den.w_in"]) + p["den.b_in"]
    h = silu(h + matmul(temb, p["den.w_time"]) + matmul(cond, p["den.w_cond"]))
    h2 = affine(h, p["den.w_h"], p["den.b_h"])
    h2 = silu(h2 + matmul(temb, p["den.w_time2"]) + matmul(cond, p["den.w_cond2"]))
    return affine(h2, p["den.w_out"], p["den.b_out"]) + matmul(z, p["den.w_skip"])


@dataclass(frozen=True)
class ConditionVector:
    """Frozen prompt half plus class half."""

    prompt: np.ndarray
    class_part: np.ndarray

    def combined(self) -> np.ndarray:
        return np.concatenate([self.prompt, self.class_part]).astype(np.float32)


def condition_rows(prompt: np.ndarray, class_part, batch: int):
    """(B, 2 * d_e) condition rows; keeps the class half differentiable if it is a Tensor."""
    prompt_rows = constant(np.tile(np.asarray(prompt, dtype=np.float32), (batch, 1)))
    if isinstance(class_part, Tensor):
        row = reshape(class_part, (1, class_part.data.size))
        class_rows = matmul(constant(np.ones((batch, 1), dtype=np.float32)), row)
    else:
        class_rows = constant(np.tile(np.asarray(class_part, dtype=np.float32), (batch, 1)))
    return concat([prompt_rows, class_rows], axis=1)


def draw_timesteps_and_noise(rng: np.random.Generator, batch: int, latent_dim: int, T: int):
    t = rng.integers(1, T + 1, size=batch)
    eps = rng.standard_normal((batch, latent_dim)).astype(np.float32)
    return t, eps


def ldm_loss(params, z0: np.ndarray, cond_rows, sched: NoiseSchedule, t: np.ndarray, eps: np.ndarray, temb_table: np.ndarray) -> Tensor:
    """Noise-prediction objective: mean over the batch of ||eps - eps_hat||^2."""
    z0 = np.asarray(z0, dtype=np.float32)
    if z0.ndim != 2 or z0.shape[0] == 0:
        raise ValueError("ldm_loss: z0 must be a non-empty (B, D) batch")
    z_t = forward_diffuse(z0, t, eps, sched)
    pred = denoiser_forward(params, z_t, temb_table[np.asarray(t)], cond_rows)
    diff = pred - constant(eps)
    return tmean(tsum(square(diff), axis=-1))


@dataclass
class PretrainConfig:
    # beta_max well above the textbook 0.02: at T=100 the noising process
    # must actually reach (close to) pure noise or ancestral sampling
    # starts off-distribution and the reverse chain diverges
    T: int = 100
    beta_min: float = 1e-4
    beta_max: float = 0.2
    embed_dim: int = 16
    time_dim: int = 16
    hidden: int = 256
    steps: int = 12000
    batch: int = 128
    lr: float = 1e-3
    seed: int = 0


@dataclass
class PretrainedDiffusion:
    """Everything downstream phases may use; denoiser and prompt are frozen."""

    params: ParamSet
    prompt: np.ndarray
    class_embeddings: dict[int, np.ndarray]
    sched: NoiseSchedule
    dims: DiffusionDims
    temb_table: np.ndarray
    image_shape: tuple[int, int, int] = (1, 16, 16)
    loss_trace: list[float] = field(default_factory=list)
    probe_initial: float = 0.0
    probe_final: float = 0.0

    def checksum(self) -> str:
        frozen = dict(self.params)
        frozen["prompt"] = self.prompt
        return params_checksum(ParamSet(frozen))

    def save(self, path) -> None:
        values = dict(self.params)
        values["prompt"] = self.prompt
        for c, v in self.class_embeddings.items():
            values[f"pretrain_emb_{c:05d}"] = v
        extra = {
            "T": self.sched.T,
            "beta_min": float(self.sched.betas[0]),
            "beta_max": float(self.sched.betas[-1]),
            "embed_dim": self.dims.embed_dim,
            "time_dim": self.dims.time_dim,
            "hidden": self.dims.hidden,
            "latent_dim": self.dims.latent_dim,
            "image_shape": list(self.image_shape),
            "probe_initial": self.probe_initial,
            "probe_final": self.probe_final,
        }
        save_checkpoint(path, ParamSet(values), extra=extra)

    @classmethod
    def load(cls, path) -> "PretrainedDiffusion":
        ps, extra = load_checkpoint(path)
        denoiser, embeddings = {}, {}
        prompt = None
        for name in ps:
            if name.startswith("den."):
                denoiser[name] = ps[name]
            elif name.startswith("pretrain_emb_"):
                embeddings[int(name.rsplit("_", 1)[1])] = ps[name]
            elif name == "prompt":
                prompt = ps[name]
        dims = DiffusionDims(
            latent_dim=int(extra["latent_dim"]),
            embed_dim=int(extra["embed_dim"]),
            time_dim=int(extra["time_dim"]),
            hidden=int(extra["hidden"]),
        )
        sched = build_schedule(int(extra["T"]), float(extra["beta_min"]), float(extra["beta_max"]))
        return cls(
            params=ParamSet(denoiser),
            prompt=prompt,
            class_embeddings=embeddings,
            sched=sched,
            dims=dims,
            temb_table=time_embedding_table(sched.T, dims.time_dim),
            image_shape=tuple(extra["image_shape"]),
            probe_initial=float(extra.get("probe_initial", 0.0)),
            probe_final=float(extra.get("probe_final", 0.0)),
        )


def pretrain_diffusion(corpus: Corpus, cfg: PretrainConfig) -> PretrainedDiffusion:
    """Train the conditional denoiser jointly with one embedding per corpus class.

    After this returns, the denoiser parameters and the prompt half are
    frozen for the life of the experiment; only fresh class embeddings are
    ever optimized against them.
    """
    if len(corpus) == 0:
        raise ValueError("pretrain_diffusion: empty corpus")
    classes = corpus.classes()
    class_to_slot = {c: i for i, c in enumerate(classes)}
    latent_dim = int(np.prod(corpus.image_shape))
    dims = DiffusionDims(latent_dim=latent_dim, embed_dim=cfg.embed_dim, time_dim=cfg.time_dim, hidden=cfg.hidden)
    sched = build_schedule(cfg.T, cfg.beta_min, cfg.beta_max)
    temb_table = time_embedding_table(cfg.T, cfg.time_dim)

    init_rng = stream(cfg.seed, "pretrain-init")
    prompt = (init_rng.standard_normal(cfg.embed_dim) * 0.1).astype(np.float32)
    table = (init_rng.standard_normal((len(classes), cfg.embed_dim)) * 0.1).astype(np.float32)
    train = dict(init_denoiser(dims, cfg.seed))
    train["emb.class"] = table
    params = ParamSet(train)

    flat = corpus.images.reshape(len(corpus), -1)
    slots = np.array([class_to_slot[int(c)] for c in corpus.labels], dtype=np.int64)
    data_rng = stream(cfg.seed, "pretrain")

    probe_rng = stream(cfg.seed, "pretrain-probe")
    probe_idx = probe_rng.permutation(len(corpus))[: min(256, len(corpus))]
    probe_t, probe_eps = draw_timesteps_and_noise(probe_rng, probe_idx.size, latent_dim, cfg.T)

    def objective(leaves, batch_idx, t, eps):
        z0 = flat[batch_idx]
        onehot = np.zeros((batch_idx.size, len(classes)), dtype=np.float32)
        onehot[np.arange(batch_idx.size), slots[batch_idx]] = 1.0
        class_rows = matmul(constant(onehot), leaves["emb.class"])
        prompt_rows = constant(np.tile(prompt, (batch_idx.size, 1)))
        cond = concat([prompt_rows, class_rows], axis=1)
        return ldm_loss(leaves, z0, cond, sched, t, eps, temb_table)

    def probe_loss(ps: ParamSet) -> float:
        value, _ = evaluate_with_gradients(objective, ps, probe_idx, probe_t, probe_eps)
        return value

    probe_initial = probe_loss(params)
    opt = adam(cfg.lr)
    trace: list[float] = []
    for step in range(cfg.steps):
        batch_idx = data_rng.integers(0, len(corpus), size=min(cfg.batch, len(corpus)))
        t, eps = draw_timesteps_and_noise(data_rng, batch_idx.size, latent_dim, cfg.T)
        try:
            loss, grads = evaluate_with_gradients(objective, params, batch_idx, t, eps)
        except NonFiniteValue as exc:
            raise RuntimeError(f"pretraining diverged at step {step}: {exc}") from exc
        params = apply_gradient_step(params, grads, opt)
        trace.append(loss)

    denoiser = ParamSet({k: v for k, v in params.items() if k.startswith("den.")})
    embeddings = {c: params["emb.class"][class_to_slot[c]].copy() for c in classes}
    model = PretrainedDiffusion(
        params=denoiser,
        prompt=prompt,
        class_embeddings=embeddings,
        sched=sched,
        dims=dims,
        temb_table=temb_table,
        image_shape=tuple(corpus.image_shape),
        loss_trace=trace,
        probe_initial=probe_initial,
    )
    model.probe_final = probe_loss(params)
    return model


def sample(
    params: ParamSet,
    cond: ConditionVector,
    n: int,
    sched: NoiseSchedule,
    rng: np.random.Generator,
    temb_table: np.ndarray,
    clamp: tuple[float, float] = (0.0, 1.0),
) -> np.ndarray:
    """Ancestral sampling: n latents from pure noise, clamped at the end."""
    if n < 1:
        raise ValueError("sample: n must be >= 1")
    latent_dim = params["den.b_out"].shape[0]
    cond_rows = np.tile(cond.combined(), (n, 1))
    z = rng.standard_normal((n, latent_dim)).astype(np.float32)
    for t in range(sched.T, 0, -1):
        beta = sched.beta(t)
        ab = sched.alpha_bar(t)
        temb = np.tile(temb_table[t], (n, 1))
        eps_hat = denoiser_forward(params, z, temb, cond_rows).data
        z = (z - (beta / np.sqrt(1.0 - ab)) * eps_hat) / np.sqrt(1.0 - beta)
        if t > 1:
            z = z + np.sqrt(beta) * rng.standard_normal((n, latent_dim))
        z = z.astype(np.float32)
    return np.clip(z, clamp[0], clamp[1]).astype(np.float32)


class AutoencoderPair:
    """Encoder/decoder wrapper around the latent space; identity by default."""

    def __init__(self, mode: str = "identity", mean: np.ndarray | None = None, basis: np.ndarray | None = None,
                 train_mse: float | None = None) -> None:
        if mode not in ("identity", "linear"):
            raise ValueError(f"unknown autoencoder mode {mode!r}")
        self.mode = mode
        self.mean = mean
        self.basis = basis  # (D, latent) orthonormal columns
        self.train_mse = train_mse

    @property
    def latent_dim(self) -> int | None:
        return None if self.mode == "identity" else self.basis.shape[1]

    def encode(self, x: np.ndarray) -> np.ndarray:
        flat = np.asarray(x, dtype=np.float32).reshape(x.shape[0], -1)
        if self.mode == "identity":
            return flat
        return (flat - self.mean) @ self.basis

    def decode(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.float32)
        if self.mode == "identity":
            return z
        if z.shape[-1] != self.basis.shape[1]:
            raise ValueError(f"decode: latent dim {z.shape[-1]} != {self.basis.shape[1]}")
        return z @ self.basis.T + self.mean


def fit_linear_autoencoder(images: np.ndarray, latent_dim: int, mse_bound: float) -> AutoencoderPair:
    """PCA pair; raises if the reconstruction error on its own training set exceeds the bound."""
    flat = np.asarray(images, dtype=np.float32).reshape(images.shape[0], -1)
    mean = flat.mean(axis=0)
    centered = (flat - mean).astype(np.float64)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    basis = np.ascontiguousarray(vt[:latent_dim].T.astype(np.float32))
    pair = AutoencoderPair(mode="linear", mean=mean.astype(np.float32), basis=basis)
    recon = pair.decode(pair.encode(flat))
    mse = float(np.mean((recon - flat) ** 2))
    if mse > mse_bound:
        raise ValueError(f"linear autoencoder reconstruction MSE {mse:.6f} exceeds bound {mse_bound}")
    pair.train_mse = mse
    return pair
