"""Tiny conditional denoising diffusion model over flattened pixels.

A linear-beta noise schedule, an MLP noise predictor conditioned on a
sinusoidal timestep embedding plus a condition vector, the standard
noise-prediction training objective, and an ancestral sampler. The
condition vector is the concatenation of a frozen "prompt" half (shared
by every class, fixed at pretraining time) and a per-class embedding
half; the embedding half is the only thing later phases are allowed to
optimize.

The model works on flattened pixels directly: the latent is the image.
The denoiser's math is written once, as a numpy forward that keeps a tape
(`_denoise`) and its backward (`_denoise_backward`). The noise-prediction
loss (`ldm_loss`) wraps them, with the condition rows, the noising and
the squared error, in one tensor-engine node, so each pretraining and
each inversion step builds one node over its leaves; the sampler runs the
forward alone, over the stacked rows of several classes in one pass.

Pretraining and the sampler draw their random numbers one step ahead of
their use, on one helper thread (`draws_ahead`), into buffers the caller
owns. The draws come from the same generators in the same order as
drawing them in line would, so the bytes do not depend on the helper.
"""

from __future__ import annotations

import queue
import threading
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
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
    constant,
    evaluate_with_gradients,
    sigmoid,
    silu_grad,
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


def _layer_sum(w, terms, bias: str) -> np.ndarray:
    """x0 @ w[n0] + w[bias] + x1 @ w[n1] + ..., added left to right."""
    (x0, n0), *rest = terms
    s = x0 @ w[n0] + w[bias]
    for x, name in rest:
        s = s + x @ w[name]
    return s


def _layer_backward(leaves: dict[str, Tensor], terms, bias: str, grad: np.ndarray) -> list:
    """Accumulate a `_layer_sum`'s weight and bias gradients; return its inputs' gradients.

    `terms` pairs each input with its weight name and whether the input
    wants a gradient; an input that does not gets None. The graph form
    held each product's and each partial sum's gradient in that array's
    dtype. No operand is wider than the sum it feeds, so that chain of
    casts equals one cast of `grad` to the array's dtype.
    """
    grads = []
    for x, name, wanted in terms:
        w, g_x = leaves[name], None
        if wanted or w.requires_grad:
            g = grad.astype(np.result_type(x, w.data), copy=False)
            if w.requires_grad:
                w._accumulate(x.T @ g)
            if wanted:
                g_x = np.asarray(g @ w.data.T, dtype=x.dtype)
        grads.append(g_x)
    b = leaves[bias]
    if b.requires_grad:
        x0, name0, _ = terms[0]
        g = grad.astype(np.result_type(x0, leaves[name0].data, b.data), copy=False)
        b._accumulate(g.sum(axis=0, dtype=np.float64).astype(b.dtype))
    return grads


def _denoise(w, z: np.ndarray, temb: np.ndarray, cond: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Predicted noise for a noised latent batch, and the tape for `_denoise_backward`.

    w maps `DENOISER_NAMES` to arrays; z: (B, D) latents, temb:
    (B, time_dim) timestep embedding rows, cond: (B, 2 * embed_dim)
    condition rows. The timestep and condition enter both hidden layers
    additively, and a linear skip from z to the output keeps the map
    full-rank:

        h  = silu(z @ w_in + b_in + temb @ w_time + cond @ w_cond)
        h2 = silu(h @ w_h + b_h + temb @ w_time2 + cond @ w_cond2)
        out = h2 @ w_out + b_out + z @ w_skip

    Each layer's sum is checked for non-finite values (a non-finite
    product or partial sum stays non-finite in it), and the error names
    the layer: `denoiser.hidden1`, `denoiser.hidden2`, `denoiser.out`.
    """
    hidden = []  # (layer input, pre-activation, its sigmoid) per hidden layer
    act = z
    for i, (w_x, b, w_t, w_c) in enumerate(_HIDDEN_LAYERS, start=1):
        s = check_finite(f"denoiser.hidden{i}", _layer_sum(w, ((act, w_x), (temb, w_t), (cond, w_c)), b))
        sig = sigmoid(s)
        hidden.append((act, s, sig))
        act = s * sig
    out = check_finite("denoiser.out", _layer_sum(w, ((act, "den.w_out"), (z, "den.w_skip")), "den.b_out"))
    return out, (z, temb, cond, hidden, act)


def _denoise_backward(leaves: dict[str, Tensor], tape: tuple, grad: np.ndarray, cond_grad: bool):
    """Accumulate the weight gradients of a `_denoise` pass, given its output's gradient.

    Returns the condition rows' gradient if `cond_grad`, else None. The
    layers run last first, and the condition's two gradients add in that
    order, as the graph of matmul, add and silu kernels the denoiser once
    was did; only the weights that require a gradient receive one.
    """
    z, temb, cond, hidden, act = tape
    g_act, _ = _layer_backward(leaves, ((act, "den.w_out", True), (z, "den.w_skip", False)), "den.b_out", grad)
    g_cond = None
    for (w_x, b, w_t, w_c), (x, s, sig) in zip(reversed(_HIDDEN_LAYERS), reversed(hidden)):
        # the first layer's input is the noised latent, which takes no gradient
        terms = ((x, w_x, x is not z), (temb, w_t, False), (cond, w_c, cond_grad))
        g_act, _, g_c = _layer_backward(leaves, terms, b, silu_grad(g_act, s, sig))
        if g_c is not None:
            g_cond = g_c if g_cond is None else g_cond + g_c
    return g_cond


@dataclass(frozen=True)
class ConditionVector:
    """Frozen prompt half plus class half."""

    prompt: np.ndarray
    class_part: np.ndarray

    def combined(self) -> np.ndarray:
        return np.concatenate([self.prompt, self.class_part]).astype(np.float32)


def draw_timesteps_and_noise(rng: np.random.Generator, batch: int, latent_dim: int, T: int, out=None):
    """Timesteps in [1, T], then float32 standard-normal noise of shape (batch, latent_dim).

    `out`, a pair of (batch, latent_dim) arrays, float64 and float32,
    receives the float64 draw and the noise in place of new arrays; the
    values are the same either way.
    """
    t = rng.integers(1, T + 1, size=batch)
    if out is None:
        return t, rng.standard_normal((batch, latent_dim)).astype(np.float32)
    normals, eps = out
    rng.standard_normal(out=normals)
    np.copyto(eps, normals)
    return t, eps


@contextmanager
def draws_ahead(draw: Callable, buffers: tuple, steps: int) -> Iterator[Iterator]:
    """Run draw(k, buffers[k % 2]) for k = 0 .. steps - 1 one step ahead of its use, on one helper thread.

    Yields an iterator over the draws' results in step order. While the
    caller works on step k, the helper runs step k + 1's draw into the
    other buffer, so each step must be done with its buffer when it asks
    for the next result, and `draw` must be the only user of its
    generators while the context is open. Random draws depend on nothing
    the caller computes, and numpy's fills release the interpreter lock,
    so the helper overlaps them with the caller's BLAS products. A draw's
    exception is raised in the caller. The helper thread lives as long as
    the context, which waits for a draw in flight before it exits, however
    it exits.
    """
    requests: queue.SimpleQueue = queue.SimpleQueue()
    results: queue.SimpleQueue = queue.SimpleQueue()

    def helper() -> None:
        for k in iter(requests.get, None):
            try:
                results.put((draw(k, buffers[k % 2]), None))
            except BaseException as exc:  # the caller raises it; a lost one would leave it waiting
                results.put((None, exc))

    def in_order():
        if steps > 0:
            requests.put(0)
        for k in range(steps):
            value, exc = results.get()
            if exc is not None:
                raise exc
            if k + 1 < steps:
                requests.put(k + 1)
            yield value

    thread = threading.Thread(target=helper, name="dddr-draws")
    thread.start()
    try:
        yield in_order()
    finally:
        requests.put(None)
        thread.join()


def ldm_loss(params, z0: np.ndarray, prompt: np.ndarray, table, slots: np.ndarray, sched: NoiseSchedule,
             t: np.ndarray, eps: np.ndarray, temb_table: np.ndarray) -> Tensor:
    """Noise-prediction objective, the batch mean of ||eps - eps_hat||^2, as one graph node.

    Row i is conditioned on the prompt beside row `slots[i]` of the class
    `table` (a Tensor or an array; a 1-d table is one row, inversion's
    vector). The node noises z0 with `forward_diffuse`, runs the denoiser
    and takes the squared error in float64. Its parents are the denoiser
    leaves of `params` and the table; the backward repeats the reverse
    sweep of the kernel graph this node replaced (subtract, square, sum,
    mean, the denoiser, concat and the one-hot product), so the value and
    every leaf gradient keep that graph's bits. The table's gradient is
    `onehot.T @ g` of the class half of the condition rows' gradient.
    """
    z0 = np.asarray(z0, dtype=np.float32)
    if z0.ndim != 2 or z0.shape[0] == 0:
        raise ValueError("ldm_loss: z0 must be a non-empty (B, D) batch")
    p = as_leaves(params)
    leaves = {name: p[name] for name in DENOISER_NAMES}
    table = table if isinstance(table, Tensor) else constant(table)
    n = z0.shape[0]
    table_rows = table.data.reshape(-1, table.shape[-1])
    onehot = np.zeros((n, table_rows.shape[0]), dtype=np.float32)
    onehot[np.arange(n), slots] = 1.0
    prompt_rows = np.tile(np.asarray(prompt, dtype=np.float32), (n, 1))
    cond = np.concatenate([prompt_rows, onehot @ table_rows], axis=1)
    z_t = forward_diffuse(z0, t, eps, sched)
    pred, tape = _denoise({name: leaf.data for name, leaf in leaves.items()}, z_t, temb_table[np.asarray(t)], cond)
    diff = pred - np.asarray(eps, dtype=np.float64)  # the squared error runs in float64
    rows = (diff * diff).sum(axis=-1, dtype=np.float64)

    def _backward(grad: np.ndarray) -> None:
        g_rows = np.broadcast_to(grad, (n,)) / n
        g_pred = (np.broadcast_to(g_rows[:, None], diff.shape) * (2.0 * diff)).astype(pred.dtype)
        g_cond = _denoise_backward(leaves, tape, g_pred, table.requires_grad)
        if g_cond is not None:
            g_class = g_cond[:, prompt_rows.shape[1]:].copy()
            table._accumulate((onehot.T @ g_class).reshape(table.shape))

    return Tensor(rows.sum(dtype=np.float64) / n, _parents=(*leaves.values(), table), _backward=_backward,
                  op="ldm_loss")


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
        return ldm_loss(leaves, flat[batch_idx], prompt, leaves["emb.class"], slots[batch_idx], sched, t, eps,
                        temb_table)

    def probe_loss(ps: ParamSet) -> float:
        return objective(as_leaves(ps), probe_idx, probe_t, probe_eps).item()

    probe_initial = probe_loss(params)
    opt = adam(cfg.lr)
    trace: list[float] = []
    batch = min(cfg.batch, len(corpus))

    def draw(_step, out):
        batch_idx = data_rng.integers(0, len(corpus), size=batch)
        return (batch_idx, *draw_timesteps_and_noise(data_rng, batch, latent_dim, cfg.T, out=out))

    # only the helper reads the float64 draw, so both steps' buffers share it
    normals = np.empty((batch, latent_dim))
    buffers = tuple((normals, np.empty((batch, latent_dim), np.float32)) for _ in range(2))
    with draws_ahead(draw, buffers, cfg.steps) as draws:
        for step, (batch_idx, t, eps) in enumerate(draws):
            try:
                loss, grads = evaluate_with_gradients(objective, params, batch_idx, t, eps)
            except NonFiniteValue as exc:
                raise PretrainingDiverged(step, exc.kernel) from exc
            params = apply_gradient_step(params, grads, opt)
            trace.append(loss)

    try:
        probe_final = probe_loss(params)
    except NonFiniteValue as exc:  # the last step's update overflowed the weights
        raise PretrainingDiverged(cfg.steps, exc.kernel) from exc

    denoiser = ParamSet({k: v for k, v in params.items() if k.startswith("den.")})
    embeddings = {c: params["emb.class"][class_to_slot[c]].copy() for c in classes}
    return PretrainedDiffusion(
        params=denoiser,
        prompt=prompt,
        class_embeddings=embeddings,
        sched=sched,
        dims=dims,
        temb_table=temb_table,
        image_shape=tuple(corpus.image_shape),
        loss_trace=trace,
        probe_initial=probe_initial,
        probe_final=probe_final,
    )


def sample(
    params: ParamSet,
    conds: Sequence[ConditionVector],
    n: int,
    sched: NoiseSchedule,
    rngs: Sequence[np.random.Generator],
    temb_table: np.ndarray,
    clamp: tuple[float, float] = (0.0, 1.0),
    counts: Sequence[int] | None = None,
) -> np.ndarray:
    """Ancestral sampling: n latents from pure noise, clamped at the end, for one or more classes in one pass.

    Class i takes the `counts[i]` rows after class i - 1's (all n rows
    when `counts` is None and there is one class), conditioned on
    `conds[i]`. It draws its starting latents and then each step's noise
    from `rngs[i]`, in the order a pass over that class alone would. The
    denoiser's products compute each row from that row alone, and OpenBLAS
    keeps a row's bits when row blocks of 2 or more are stacked, so each
    class's rows equal a pass over it alone, bit for bit, unless it has
    one row: a one-row product takes another path, so a 1-row class is
    sampled alone (tests/test_diffusion.py guards the stacking rule).
    """
    counts = [n] if counts is None else [int(k) for k in counts]
    if n < 1 or min(counts) < 1 or sum(counts) != n:
        raise ValueError(f"sample: class row counts {counts} must be >= 1 and sum to n = {n} >= 1")
    if not len(conds) == len(rngs) == len(counts):
        raise ValueError(f"sample: {len(conds)} conditions, {len(rngs)} streams and {len(counts)} row counts")
    latent_dim = params["den.b_out"].shape[0]
    leaves = as_leaves(params)  # the frozen weights, wrapped and checked once per call
    weights = {name: leaves[name].data for name in DENOISER_NAMES}
    cond_rows = np.concatenate([np.tile(c.combined(), (k, 1)) for c, k in zip(conds, counts)])
    blocks = [slice(end - k, end) for k, end in zip(counts, np.cumsum(counts))]

    def draw(step, out):
        """Step 0 draws the starting latents; step k > 0 the scaled noise of timestep T + 1 - k."""
        for rng, rows in zip(rngs, blocks):
            rng.standard_normal(out=out[rows])
        if step > 0:
            np.multiply(out, np.sqrt(sched.beta(sched.T + 1 - step)), out=out)
        return out

    buffers = (np.empty((n, latent_dim)), np.empty((n, latent_dim)))
    with draws_ahead(draw, buffers, sched.T) as draws:
        z = next(draws).astype(np.float32)
        for t in range(sched.T, 0, -1):
            beta = sched.beta(t)
            ab = sched.alpha_bar(t)
            temb = np.tile(temb_table[t], (n, 1))
            eps_hat = _denoise(weights, z, temb, cond_rows)[0]
            z = (z - (beta / np.sqrt(1.0 - ab)) * eps_hat) / np.sqrt(1.0 - beta)
            if t > 1:
                z = z + next(draws)
            z = z.astype(np.float32)
    return np.clip(z, clamp[0], clamp[1]).astype(np.float32)
