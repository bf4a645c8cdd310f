import numpy as np
import pytest

from dddr import diffusion
from dddr import tensor as T
from dddr.diffusion import (
    DENOISER_NAMES,
    ConditionVector,
    DiffusionDims,
    PretrainConfig,
    PretrainedDiffusion,
    ScheduleError,
    build_schedule,
    condition_rows,
    denoiser_forward,
    draw_timesteps_and_noise,
    forward_diffuse,
    init_denoiser,
    ldm_loss,
    pretrain_diffusion,
    sample,
    time_embedding_table,
)
from dddr.gradcheck import finite_difference_check
from dddr.params import ParamSet
from dddr.rng import stream
from dddr.tensor import NonFiniteValue, evaluate_with_gradients
from tests import graph_forms


@pytest.fixture(scope="module")
def tiny_model(pretrain_corpus):
    cfg = PretrainConfig(steps=300, batch=32, hidden=64, seed=9)
    return pretrain_diffusion(pretrain_corpus, cfg)


def test_schedule_cumulative_product_oracle():
    sched = build_schedule(4, 0.1, 0.4)
    assert np.allclose(sched.betas, [0.1, 0.2, 0.3, 0.4])
    assert np.allclose(sched.alphas_bar, [0.9, 0.72, 0.504, 0.3024])


def test_schedule_strictly_decreasing():
    sched = build_schedule(50, 1e-4, 0.2)
    assert np.all(np.diff(sched.alphas_bar) < 0)


def test_schedule_rejects_t1_and_bad_bounds():
    with pytest.raises(ScheduleError):
        build_schedule(1, 0.1, 0.2)
    with pytest.raises(ScheduleError):
        build_schedule(10, 0.0, 0.2)
    with pytest.raises(ScheduleError):
        build_schedule(10, 0.3, 0.2)


def test_forward_diffuse_zero_noise_limit():
    sched = build_schedule(10, 0.01, 0.1)
    z0 = np.full((2, 4), 0.5, dtype=np.float32)
    out = forward_diffuse(z0, 3, np.zeros_like(z0), sched)
    assert np.allclose(out, np.sqrt(sched.alpha_bar(3)) * z0, atol=1e-6)


def test_forward_diffuse_zero_signal_limit():
    sched = build_schedule(10, 0.01, 0.1)
    eps = stream(1, "fd").standard_normal((3, 5)).astype(np.float32)
    out = forward_diffuse(np.zeros_like(eps), 7, eps, sched)
    assert np.allclose(out, np.sqrt(1 - sched.alpha_bar(7)) * eps, atol=1e-6)


def test_forward_diffuse_rejects_bad_t_and_shape():
    sched = build_schedule(10, 0.01, 0.1)
    z = np.zeros((1, 4), dtype=np.float32)
    with pytest.raises(ValueError):
        forward_diffuse(z, 0, z, sched)
    with pytest.raises(ValueError):
        forward_diffuse(z, 11, z, sched)
    with pytest.raises(ValueError):
        forward_diffuse(z, 2, np.zeros((2, 4), dtype=np.float32), sched)


@pytest.mark.parametrize("t_frac", [1, 50, 100])
def test_forward_diffuse_marginal_variance(t_frac):
    sched = build_schedule(100, 1e-4, 0.2)
    rng = stream(17, "mc", t_frac)
    n = 10_000
    z0 = np.full((n, 1), 0.25, dtype=np.float32)
    eps = rng.standard_normal((n, 1)).astype(np.float32)
    z_t = forward_diffuse(z0, t_frac, eps, sched)
    residual = z_t - np.sqrt(sched.alpha_bar(t_frac)) * z0
    target = 1.0 - sched.alpha_bar(t_frac)
    assert abs(residual.var() - target) <= 0.05 * target


def test_ldm_loss_zero_predictor_close_to_dim(pretrain_corpus):
    # a denoiser that always outputs 0 scores mean ||eps||^2 ~ latent dim
    dims = DiffusionDims(latent_dim=256, hidden=16)
    params = init_denoiser(dims, seed=0)
    zeroed = ParamSet({k: np.zeros_like(v) for k, v in params.items()})
    sched = build_schedule(100, 1e-4, 0.2)
    tt = time_embedding_table(100, dims.time_dim)
    rng = stream(3, "zero-pred")
    flat = pretrain_corpus.images[:512].reshape(-1, 256)
    t, eps = draw_timesteps_and_noise(rng, flat.shape[0], 256, 100)
    cond = np.zeros((flat.shape[0], dims.cond_dim), dtype=np.float32)

    def f(leaves):
        return ldm_loss(leaves, flat, cond, sched, t, eps, tt)

    loss, _ = evaluate_with_gradients(f, zeroed)
    assert abs(loss - 256.0) / 256.0 < 0.1


def test_ldm_loss_gradients_match_finite_differences():
    dims = DiffusionDims(latent_dim=6, embed_dim=3, time_dim=4, hidden=5)
    params = init_denoiser(dims, seed=4)
    sched = build_schedule(5, 0.05, 0.3)
    tt = time_embedding_table(5, dims.time_dim)
    rng = stream(5, "fd-ldm")
    z0 = rng.uniform(0, 1, (4, 6)).astype(np.float32)
    t, eps = draw_timesteps_and_noise(rng, 4, 6, 5)
    cond = rng.normal(0, 0.3, (4, dims.cond_dim)).astype(np.float32)

    def f(leaves):
        return ldm_loss(leaves, z0, cond, sched, t, eps, tt)

    report = finite_difference_check(f, params, tolerance=1e-3)
    assert report.passed, report.worst()


def test_ldm_loss_differentiable_through_condition_only():
    dims = DiffusionDims(latent_dim=6, embed_dim=3, time_dim=4, hidden=5)
    denoiser = init_denoiser(dims, seed=4)
    sched = build_schedule(5, 0.05, 0.3)
    tt = time_embedding_table(5, dims.time_dim)
    rng = stream(6, "inv-grad")
    z0 = rng.uniform(0, 1, (3, 6)).astype(np.float32)
    t, eps = draw_timesteps_and_noise(rng, 3, 6, 5)
    prompt = rng.normal(0, 0.3, 3).astype(np.float32)
    vcfg = ParamSet({"v": rng.normal(0, 0.3, 3).astype(np.float32)})

    def f(leaves):
        cond = condition_rows(prompt, leaves["v"], 3)
        return ldm_loss(denoiser, z0, cond, sched, t, eps, tt)

    report = finite_difference_check(f, vcfg, tolerance=1e-3)
    assert report.passed, report.worst()


def test_pretrain_is_deterministic(pretrain_corpus):
    cfg = PretrainConfig(steps=40, batch=16, hidden=32, seed=13)
    a = pretrain_diffusion(pretrain_corpus, cfg)
    b = pretrain_diffusion(pretrain_corpus, cfg)
    assert a.checksum() == b.checksum()
    assert a.loss_trace == b.loss_trace


def test_pretrain_reduces_probe_loss(tiny_model):
    assert tiny_model.probe_final < tiny_model.probe_initial


def test_sample_deterministic_and_clamped(tiny_model):
    cond = ConditionVector(tiny_model.prompt, tiny_model.class_embeddings[0])
    a = sample(tiny_model.params, cond, 8, tiny_model.sched, stream(2, "s"), tiny_model.temb_table)
    b = sample(tiny_model.params, cond, 8, tiny_model.sched, stream(2, "s"), tiny_model.temb_table)
    assert np.array_equal(a, b)
    assert a.min() >= 0.0 and a.max() <= 1.0


def test_sample_rejects_nonpositive_n(tiny_model):
    cond = ConditionVector(tiny_model.prompt, tiny_model.class_embeddings[0])
    with pytest.raises(ValueError):
        sample(tiny_model.params, cond, 0, tiny_model.sched, stream(2, "s"), tiny_model.temb_table)


def test_diffusion_checkpoint_round_trip(tiny_model, tmp_path):
    path = tmp_path / "diffusion.ckpt"
    tiny_model.save(path)
    loaded = PretrainedDiffusion.load(path)
    assert loaded.checksum() == tiny_model.checksum()
    assert loaded.sched.T == tiny_model.sched.T
    assert sorted(loaded.class_embeddings) == sorted(tiny_model.class_embeddings)
    cond = ConditionVector(tiny_model.prompt, tiny_model.class_embeddings[1])
    a = sample(tiny_model.params, cond, 4, tiny_model.sched, stream(4, "rt"), tiny_model.temb_table)
    b = sample(loaded.params, cond, 4, loaded.sched, stream(4, "rt"), loaded.temb_table)
    assert np.array_equal(a, b)


def test_time_embedding_rows_are_distinct():
    table = time_embedding_table(100, 16)
    assert table.shape == (101, 16)
    diffs = np.linalg.norm(table[1:] - table[:-1], axis=1)
    assert (diffs > 1e-3).all()


# -- the one-node denoiser against the graph it replaced ---------------------

def _where_silu(x):
    """The two-np.where silu kernel that the silu kernel used to be."""
    x = T._wrap(x)
    pos = x.data >= 0
    e = np.exp(np.where(pos, -x.data, x.data))
    sig = np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e)).astype(x.dtype)
    out = T.Tensor(x.data * sig, _parents=(x,), op="silu")

    def _backward(grad):
        x._accumulate(grad * (sig * (1.0 + x.data * (1.0 - sig))))

    out._backward = _backward
    return out


def _graph_denoiser_forward(params, z, temb, cond):
    """The denoiser as the 18-kernel graph of matmul, add and silu nodes it used to be."""
    p = T.as_leaves(params)
    z = z if isinstance(z, T.Tensor) else T.constant(np.asarray(z, dtype=np.float32))
    temb = temb if isinstance(temb, T.Tensor) else T.constant(np.asarray(temb, dtype=np.float32))
    cond = cond if isinstance(cond, T.Tensor) else T.constant(np.asarray(cond, dtype=np.float32))
    h = T.matmul(z, p["den.w_in"]) + p["den.b_in"]
    h = _where_silu(h + T.matmul(temb, p["den.w_time"]) + T.matmul(cond, p["den.w_cond"]))
    h2 = T.affine(h, p["den.w_h"], p["den.b_h"])
    h2 = _where_silu(h2 + T.matmul(temb, p["den.w_time2"]) + T.matmul(cond, p["den.w_cond2"]))
    return T.affine(h2, p["den.w_out"], p["den.b_out"]) + T.matmul(z, p["den.w_skip"])


def _trained_like_denoiser(dims, seed):
    # nonzero biases and a perturbed skip, so every gradient path carries signal
    r = stream(seed, "trained-like")
    return ParamSet({k: v + r.normal(0, 0.05, v.shape).astype(np.float32) for k, v in init_denoiser(dims, seed).items()})


def _value_and_leaf_grads(f, params, dtype):
    """Loss value and each leaf's raw gradient, in the leaves' dtype (ParamSet would cast to float32)."""
    leaves = T.param_leaves(params, dtype=dtype)
    loss = f(leaves)
    loss.backward()
    return loss.data, {name: leaf.grad for name, leaf in leaves.items()}


def _ldm_inputs(dims, batch, seed):
    sched = build_schedule(20, 1e-4, 0.2)
    tt = time_embedding_table(20, dims.time_dim)
    rng = stream(seed, "node-vs-graph")
    z0 = rng.uniform(0, 1, (batch, dims.latent_dim)).astype(np.float32)
    t, eps = draw_timesteps_and_noise(rng, batch, dims.latent_dim, 20)
    cond = rng.normal(0, 0.5, (batch, dims.cond_dim)).astype(np.float32)
    return sched, tt, z0, t, eps, cond


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_denoiser_node_matches_graph_bit_for_bit(monkeypatch, dtype):
    dims = DiffusionDims(latent_dim=24, embed_dim=4, time_dim=8, hidden=32)
    params = _trained_like_denoiser(dims, seed=21)
    sched, tt, z0, t, eps, cond = _ldm_inputs(dims, 16, seed=22)

    def f(leaves):
        return ldm_loss(leaves, z0, cond, sched, t, eps, tt)

    node_loss, node_grads = _value_and_leaf_grads(f, params, dtype)
    node_pred = denoiser_forward(T.param_leaves(params, dtype=dtype), z0, tt[t], cond).data
    monkeypatch.setattr(diffusion, "denoiser_forward", _graph_denoiser_forward)
    graph_loss, graph_grads = _value_and_leaf_grads(f, params, dtype)
    graph_pred = _graph_denoiser_forward(T.param_leaves(params, dtype=dtype), z0, tt[t], cond).data

    assert node_pred.dtype == graph_pred.dtype == dtype
    assert np.array_equal(node_pred, graph_pred)
    assert np.array_equal(node_loss, graph_loss)
    assert sorted(node_grads) == sorted(graph_grads) == sorted(DENOISER_NAMES)
    for name in DENOISER_NAMES:
        assert node_grads[name].dtype == graph_grads[name].dtype == dtype
        assert np.array_equal(node_grads[name], graph_grads[name]), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_denoiser_node_condition_gradient_matches_graph(monkeypatch, dtype):
    # inversion's path: frozen float32 weights, gradient only into the class half
    dims = DiffusionDims(latent_dim=24, embed_dim=4, time_dim=8, hidden=32)
    frozen = _trained_like_denoiser(dims, seed=23)
    sched, tt, z0, t, eps, _ = _ldm_inputs(dims, 16, seed=24)
    prompt = stream(25, "prompt").normal(0, 0.3, 4).astype(np.float32)
    v = ParamSet({"v": stream(26, "v").normal(0, 0.3, 4).astype(np.float32)})

    def f(leaves):
        return ldm_loss(T.as_leaves(frozen), z0, condition_rows(prompt, leaves["v"], 16), sched, t, eps, tt)

    node_loss, node_grads = _value_and_leaf_grads(f, v, dtype)
    monkeypatch.setattr(diffusion, "denoiser_forward", _graph_denoiser_forward)
    graph_loss, graph_grads = _value_and_leaf_grads(f, v, dtype)
    assert np.array_equal(node_loss, graph_loss)
    assert node_grads["v"].dtype == graph_grads["v"].dtype == dtype
    assert np.array_equal(node_grads["v"], graph_grads["v"])


def test_pretraining_steps_match_graph_bit_for_bit(monkeypatch, pretrain_corpus):
    cfg = PretrainConfig(T=20, steps=12, batch=16, hidden=32, seed=27)
    node = pretrain_diffusion(pretrain_corpus, cfg)
    monkeypatch.setattr(diffusion, "denoiser_forward", _graph_denoiser_forward)
    graph = pretrain_diffusion(pretrain_corpus, cfg)
    assert node.loss_trace == graph.loss_trace
    assert node.checksum() == graph.checksum()
    assert (node.probe_initial, node.probe_final) == (graph.probe_initial, graph.probe_final)


def test_sample_matches_graph_bit_for_bit(monkeypatch):
    dims = DiffusionDims(latent_dim=24, embed_dim=4, time_dim=8, hidden=32)
    params = _trained_like_denoiser(dims, seed=28)
    sched = build_schedule(15, 1e-4, 0.2)
    tt = time_embedding_table(15, dims.time_dim)
    r = stream(29, "cond")
    cond = ConditionVector(r.normal(0, 0.3, 4).astype(np.float32), r.normal(0, 0.3, 4).astype(np.float32))
    node = sample(params, cond, 6, sched, stream(30, "s"), tt, clamp=(-np.inf, np.inf))
    monkeypatch.setattr(diffusion, "denoiser_forward", _graph_denoiser_forward)
    graph = sample(params, cond, 6, sched, stream(30, "s"), tt, clamp=(-np.inf, np.inf))
    assert np.array_equal(node, graph)


def test_sigmoid_matches_where_form_at_edges():
    r = stream(31, "silu-edges")
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -1e2, 1e2, -88.0, -104.0, -200.0, 1e-30, -1e-30])
    for dtype in (np.float32, np.float64):
        x = np.concatenate([edges, r.normal(0, 4, 300), r.normal(0, 60, 300)]).astype(dtype).reshape(12, 51)
        with np.errstate(invalid="ignore"):
            new = T.sigmoid(x)
            pos = x >= 0
            e = np.exp(np.where(pos, -x, x))
            old = np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e)).astype(dtype)
        assert new.dtype == dtype
        # NaN stays NaN (its sign bit is not kept, and a NaN never gets past a
        # kernel's finite check); every other entry matches to the bit
        assert np.array_equal(np.isnan(new), np.isnan(old))
        number = ~np.isnan(old)
        assert np.array_equal(new[number].view(np.uint8), old[number].view(np.uint8))
        finite = np.isfinite(x)
        with np.errstate(invalid="ignore"):
            assert np.array_equal((x * new)[finite], (x * old)[finite])
        assert np.array_equal(graph_forms.silu(T.constant(x[finite])).data, _where_silu(T.constant(x[finite])).data)


def test_silu_kernel_gradient_matches_where_form():
    x = stream(32, "silu-grad").normal(0, 3, (8, 16)).astype(np.float32)
    ps = ParamSet({"x": x})
    _, new = evaluate_with_gradients(lambda p: T.tsum(T.square(graph_forms.silu(p["x"]))), ps)
    _, old = evaluate_with_gradients(lambda p: T.tsum(T.square(_where_silu(p["x"]))), ps)
    assert np.array_equal(new["x"], old["x"])


def test_denoiser_overflow_raises_non_finite_naming_the_node():
    dims = DiffusionDims(latent_dim=8, embed_dim=2, time_dim=4, hidden=16)
    params = dict(init_denoiser(dims, seed=33))
    params["den.b_in"] = np.full_like(params["den.b_in"], 100.0)
    params["den.w_h"] = np.full_like(params["den.w_h"], 1e38)  # 100 * 1e38 overflows float32
    z = np.ones((2, 8), dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteValue) as exc:
            denoiser_forward(ParamSet(params), z, np.zeros((2, 4), np.float32), np.zeros((2, 4), np.float32))
    assert exc.value.kernel == "denoiser.hidden2"
