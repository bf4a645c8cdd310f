"""Tiny conditional denoising diffusion model over flattened pixels.

A linear-beta noise schedule, an MLP noise predictor conditioned on a
sinusoidal timestep embedding plus a condition vector, the standard
noise-prediction training objective, and an ancestral sampler. The
condition vector is the concatenation of a frozen "prompt" half (shared
by every class, fixed at pretraining time) and a per-class embedding
half; the embedding half is the only thing later phases are allowed to
optimize.

The model works on flattened pixels directly: the latent is the image.
The denoiser is one tensor-engine node with a hand-written backward, so
pretraining, class inversion and sampling each build a small graph per
call.
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
    NumericsError,
    Tensor,
    as_leaves,
    check_finite,
    concat,
    constant,
    evaluate_with_gradients,
    matmul,
    reshape,
    sigmoid,
    silu_grad,
    square,
    tmean,
    tsum,
)


class ScheduleError(ValueError):
    pass


class PretrainingDiverged(NumericsError):
    """A non-finite value in a pretraining step; names the step and the kernel."""

    def __init__(self, step: int, kernel: str) -> None:
        super().__init__(f"pretraining diverged at step {step}: {kernel} produced a non-finite value")
        self.step = step
        self.kernel = kernel


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


# (input weight, bias, timestep weight, condition weight) of each hidden layer
_HIDDEN_LAYERS = (
    ("den.w_in", "den.b_in", "den.w_time", "den.w_cond"),
    ("den.w_h", "den.b_h", "den.w_time2", "den.w_cond2"),
)
DENOISER_NAMES = (*_HIDDEN_LAYERS[0], *_HIDDEN_LAYERS[1], "den.w_out", "den.b_out", "den.w_skip")


def _sum_of_products(terms, bias: Tensor) -> np.ndarray:
    """x0 @ w0 + bias + x1 @ w1 + ..., added left to right."""
    (x0, w0), *rest = terms
    s = x0.data @ w0.data + bias.data
    for x, w in rest:
        s = s + x.data @ w.data
    return s


def _sum_of_products_backward(terms, bias: Tensor, grad: np.ndarray) -> None:
    """Accumulate the gradients of `_sum_of_products` into the operands that need them.

    The graph form held each product's and each partial sum's gradient in
    that array's dtype. No operand is wider than the sum it feeds, so that
    chain of casts equals one cast of `grad` to the array's dtype.
    """
    for x, w in terms:
        if x.requires_grad or w.requires_grad:
            g = grad.astype(np.result_type(x.data, w.data), copy=False)
            if w.requires_grad:
                w._accumulate(x.data.T @ g)
            if x.requires_grad:
                x._accumulate(g @ w.data.T)
    if bias.requires_grad:
        x0, w0 = terms[0]
        g = grad.astype(np.result_type(x0.data, w0.data, bias.data), copy=False)
        bias._accumulate(g.sum(axis=0, dtype=np.float64).astype(bias.dtype))


def denoiser_forward(params, z, temb, cond) -> Tensor:
    """Predicted noise for a noised latent batch, as one graph node.

    z: (B, D) latent, temb: (B, time_dim) timestep embedding rows,
    cond: (B, 2 * embed_dim) condition rows. Any of them may be graph
    tensors; the condition is the differentiable path during inversion.
    The timestep and condition enter both hidden layers additively, and a
    linear skip from z to the output keeps the map full-rank:

        h  = silu(z @ w_in + b_in + temb @ w_time + cond @ w_cond)
        h2 = silu(h @ w_h + b_h + temb @ w_time2 + cond @ w_cond2)
        out = h2 @ w_out + b_out + z @ w_skip

    The layers run in numpy in the order of the graph of matmul, add and
    silu kernels they replace, and the hand-written backward gives
    gradients only to the parents that require them, so values and
    gradients match that graph bit for bit. Each layer's sum is checked
    for non-finite values (a non-finite product or partial sum stays
    non-finite in it), and the error names the layer.
    """
    p = as_leaves(params)
    z, temb, cond = (x if isinstance(x, Tensor) else constant(np.asarray(x, dtype=np.float32)) for x in (z, temb, cond))
    w = {name: p[name] for name in DENOISER_NAMES}
    hidden = []  # (terms, bias, pre-activation, its sigmoid, activation) per hidden layer
    act = z
    for i, (w_x, b, w_t, w_c) in enumerate(_HIDDEN_LAYERS, start=1):
        terms = ((act, w[w_x]), (temb, w[w_t]), (cond, w[w_c]))
        s = check_finite(f"denoiser.hidden{i}", _sum_of_products(terms, w[b]))
        sig = sigmoid(s)
        needs_grad = w[b].requires_grad or any(x.requires_grad or m.requires_grad for x, m in terms)
        act = Tensor(s * sig, requires_grad=needs_grad, op=f"denoiser.silu{i}")
        hidden.append((terms, w[b], s, sig, act))
    out_terms = ((act, w["den.w_out"]), (z, w["den.w_skip"]))

    def _backward(grad: np.ndarray) -> None:
        _sum_of_products_backward(out_terms, w["den.b_out"], grad)
        for terms, bias, s, sig, act in reversed(hidden):
            if act.grad is not None:
                _sum_of_products_backward(terms, bias, silu_grad(act.grad, s, sig))

    return Tensor(
        _sum_of_products(out_terms, w["den.b_out"]),
        _parents=(z, temb, cond, *w.values()),
        _backward=_backward,
        op="denoiser",
    )


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
        return objective(as_leaves(ps), probe_idx, probe_t, probe_eps).item()

    probe_initial = probe_loss(params)
    opt = adam(cfg.lr)
    trace: list[float] = []
    for step in range(cfg.steps):
        batch_idx = data_rng.integers(0, len(corpus), size=min(cfg.batch, len(corpus)))
        t, eps = draw_timesteps_and_noise(data_rng, batch_idx.size, latent_dim, cfg.T)
        try:
            loss, grads = evaluate_with_gradients(objective, params, batch_idx, t, eps)
        except NonFiniteValue as exc:
            raise PretrainingDiverged(step, exc.kernel) from exc
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
    leaves = as_leaves(params)  # the frozen weights, wrapped and checked once per call
    cond_rows = constant(np.tile(cond.combined(), (n, 1)))
    z = rng.standard_normal((n, latent_dim)).astype(np.float32)
    for t in range(sched.T, 0, -1):
        beta = sched.beta(t)
        ab = sched.alpha_bar(t)
        temb = np.tile(temb_table[t], (n, 1))
        eps_hat = denoiser_forward(leaves, z, temb, cond_rows).data
        z = (z - (beta / np.sqrt(1.0 - ab)) * eps_hat) / np.sqrt(1.0 - beta)
        if t > 1:
            z = z + np.sqrt(beta) * rng.standard_normal((n, latent_dim))
        z = z.astype(np.float32)
    return np.clip(z, clamp[0], clamp[1]).astype(np.float32)
