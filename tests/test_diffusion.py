import sys
import threading
import weakref

import numpy as np
import pytest

from dddr import diffusion, inversion
from dddr import tensor as T
from dddr.diffusion import (
    DENOISER_NAMES,
    ConditionVector,
    DiffusionDims,
    PretrainConfig,
    PretrainedDiffusion,
    PretrainingDiverged,
    ScheduleError,
    build_schedule,
    draw_timesteps_and_noise,
    forward_diffuse,
    init_denoiser,
    ldm_loss,
    pretrain_diffusion,
    sample,
    time_embedding_table,
)
from dddr.gradcheck import finite_difference_check
from dddr.inversion import local_class_inversion
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
    prompt, table = np.zeros(dims.embed_dim, np.float32), np.zeros((1, dims.embed_dim), np.float32)

    def f(leaves):
        return ldm_loss(leaves, flat, prompt, table, np.zeros(flat.shape[0], np.int64), sched, t, eps, tt)

    loss, _ = evaluate_with_gradients(f, zeroed)
    assert abs(loss - 256.0) / 256.0 < 0.1


def test_ldm_loss_gradients_match_finite_differences():
    dims = DiffusionDims(latent_dim=6, embed_dim=3, time_dim=4, hidden=5)
    rng = stream(5, "fd-ldm")
    params = ParamSet({**init_denoiser(dims, seed=4), "emb.class": rng.normal(0, 0.3, (3, 3)).astype(np.float32)})
    sched = build_schedule(5, 0.05, 0.3)
    tt = time_embedding_table(5, dims.time_dim)
    z0 = rng.uniform(0, 1, (4, 6)).astype(np.float32)
    t, eps = draw_timesteps_and_noise(rng, 4, 6, 5)
    prompt = rng.normal(0, 0.3, 3).astype(np.float32)
    slots = np.array([0, 2, 1, 2])

    def f(leaves):
        return ldm_loss(leaves, z0, prompt, leaves["emb.class"], slots, sched, t, eps, tt)

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
        return ldm_loss(denoiser, z0, prompt, leaves["v"], np.zeros(3, np.int64), sched, t, eps, tt)

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
    a = sample(tiny_model.params, [cond], 8, tiny_model.sched, [stream(2, "s")], tiny_model.temb_table)
    b = sample(tiny_model.params, [cond], 8, tiny_model.sched, [stream(2, "s")], tiny_model.temb_table)
    assert np.array_equal(a, b)
    assert a.min() >= 0.0 and a.max() <= 1.0


def test_sample_rejects_nonpositive_n(tiny_model):
    cond = ConditionVector(tiny_model.prompt, tiny_model.class_embeddings[0])
    with pytest.raises(ValueError):
        sample(tiny_model.params, [cond], 0, tiny_model.sched, [stream(2, "s")], tiny_model.temb_table)


def test_diffusion_checkpoint_round_trip(tiny_model, tmp_path):
    path = tmp_path / "diffusion.ckpt"
    tiny_model.save(path)
    loaded = PretrainedDiffusion.load(path)
    assert loaded.checksum() == tiny_model.checksum()
    assert loaded.sched.T == tiny_model.sched.T
    assert sorted(loaded.class_embeddings) == sorted(tiny_model.class_embeddings)
    cond = ConditionVector(tiny_model.prompt, tiny_model.class_embeddings[1])
    a = sample(tiny_model.params, [cond], 4, tiny_model.sched, [stream(4, "rt")], tiny_model.temb_table)
    b = sample(loaded.params, [cond], 4, loaded.sched, [stream(4, "rt")], loaded.temb_table)
    assert np.array_equal(a, b)


def test_draw_timesteps_and_noise_into_buffers_matches_new_arrays():
    t, eps = draw_timesteps_and_noise(stream(44, "d"), 6, 10, 50)
    out = (np.empty((6, 10)), np.empty((6, 10), np.float32))
    t_out, eps_out = draw_timesteps_and_noise(stream(44, "d"), 6, 10, 50, out=out)
    assert eps_out is out[1]
    assert np.array_equal(t, t_out)
    assert eps.dtype == eps_out.dtype == np.float32
    assert np.array_equal(eps, eps_out)


def test_pretraining_steps_get_the_draws_made_in_line(monkeypatch, pretrain_corpus):
    # each step's batch indices, timesteps and noise, drawn on the helper thread, are
    # what drawing them in line from the "pretrain" stream gives, in that order
    cfg = PretrainConfig(T=20, steps=12, batch=16, hidden=32, seed=45)
    seen = []
    evaluate = diffusion.evaluate_with_gradients

    def recording(objective, params, batch_idx, t, eps):
        seen.append((batch_idx.copy(), t.copy(), eps.copy()))  # the helper reuses the buffers
        return evaluate(objective, params, batch_idx, t, eps)

    monkeypatch.setattr(diffusion, "evaluate_with_gradients", recording)
    pretrain_diffusion(pretrain_corpus, cfg)
    rng = stream(cfg.seed, "pretrain")
    assert len(seen) == cfg.steps
    for batch_idx, t, eps in seen:
        assert np.array_equal(batch_idx, rng.integers(0, len(pretrain_corpus), size=cfg.batch))
        t_line, eps_line = draw_timesteps_and_noise(rng, cfg.batch, eps.shape[1], cfg.T)
        assert np.array_equal(t, t_line)
        assert eps.dtype == np.float32 and np.array_equal(eps, eps_line)


def test_pretraining_lets_each_steps_gradients_go_before_the_next_backward(monkeypatch, pretrain_corpus):
    # step k's gradient arrays are dead when step k+1's evaluation, and so its backward, begins
    previous: list[weakref.ref] = []
    alive_at_entry = []
    evaluate = diffusion.evaluate_with_gradients

    def watching(*args):
        alive_at_entry.append(sum(ref() is not None for ref in previous))
        loss, grads = evaluate(*args)
        previous[:] = [weakref.ref(g) for g in grads.values()]
        return loss, grads

    monkeypatch.setattr(diffusion, "evaluate_with_gradients", watching)
    pretrain_diffusion(pretrain_corpus, PretrainConfig(T=10, steps=4, batch=8, hidden=16, seed=46))
    assert previous and alive_at_entry == [0, 0, 0, 0]


def test_stacked_row_blocks_keep_product_bits():
    # The sampler stacks classes into one product, which keeps each class's bits only if
    # OpenBLAS computes a row of A @ W the same way whatever rows are stacked around it.
    # That holds for blocks of 2 or more rows (a 1-row product takes another path, see
    # the FOUND line on row stacking in CHANGES.md). K and N cover the denoiser's
    # forward products at the desk dims (16, 32, 256) and the tests' model (64).
    r = stream(46, "stack")
    blocks = (2, 3, 7, 30, 60, 2, 17, 5)
    for k in (16, 32, 64, 128, 256):
        for n in (16, 32, 64, 128, 256):
            w = r.normal(0, 0.2, (k, n)).astype(np.float32)
            parts = [r.normal(0, 1, (m, k)).astype(np.float32) for m in blocks]
            stacked = np.concatenate(parts) @ w
            assert np.array_equal(stacked, np.concatenate([a @ w for a in parts])), (k, n)


def test_draws_ahead_yields_in_order_and_raises_a_draws_error():
    before = threading.active_count()
    with diffusion.draws_ahead(lambda k, buf: (k, buf), ("a", "b"), 5) as draws:
        assert list(draws) == [(0, "a"), (1, "b"), (2, "a"), (3, "b"), (4, "a")]

    def failing(k, buf):
        if k == 2:
            raise ZeroDivisionError("draw 2")
        return k

    with pytest.raises(ZeroDivisionError, match="draw 2"):
        with diffusion.draws_ahead(failing, (None, None), 5) as draws:
            assert list(draws) == [0, 1]
    with diffusion.draws_ahead(failing, (None, None), 5) as draws:
        assert next(draws) == 0  # leaves with draw 1 in flight
    assert threading.active_count() == before


def test_draws_ahead_under_fast_thread_switching_keeps_each_steps_draw():
    # four callers, more than the two vCPUs this suite runs on, each with its own helper,
    # and a thread switch every microsecond: a step's buffer holds the draw made in line
    # until the caller asks for the next step, while the helper fills the other buffer
    def caller(i, steps):
        rng = stream(52, "stress", i)
        buffers = (np.empty((64, 64)), np.empty((64, 64)))
        with diffusion.draws_ahead(lambda k, out: rng.standard_normal(out=out), buffers, 100) as draws:
            for d in draws:
                seen = d.copy()
                np.dot(d, d)  # releases the interpreter lock to the helper
                steps.append((seen, np.array_equal(d, seen)))

    results = [[] for _ in range(4)]
    threads = [threading.Thread(target=caller, args=(i, results[i])) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for i, steps in enumerate(results):
        rng = stream(52, "stress", i)
        assert len(steps) == 100
        for seen, unchanged in steps:
            assert unchanged and np.array_equal(seen, rng.standard_normal((64, 64)))


def test_draw_helper_threads_end_with_sample_and_pretraining(tiny_model, pretrain_corpus):
    before = threading.active_count()
    cond = ConditionVector(tiny_model.prompt, tiny_model.class_embeddings[0])
    sample(tiny_model.params, [cond], 3, tiny_model.sched, [stream(47, "s")], tiny_model.temb_table)
    assert threading.active_count() == before
    pretrain_diffusion(pretrain_corpus, PretrainConfig(T=10, steps=3, batch=8, hidden=16, seed=48))
    assert threading.active_count() == before

    dims = DiffusionDims(latent_dim=8, embed_dim=2, time_dim=4, hidden=16)
    params = dict(init_denoiser(dims, seed=49))
    params["den.b_in"] = np.full_like(params["den.b_in"], 100.0)
    params["den.w_h"] = np.full_like(params["den.w_h"], 1e38)
    zeros = np.zeros(2, np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteValue) as exc:
            sample(ParamSet(params), [ConditionVector(zeros, zeros)] * 2, 4, build_schedule(6, 0.01, 0.1),
                   [stream(50, "a"), stream(50, "b")], time_embedding_table(6, 4), counts=[2, 2])
        assert exc.value.kernel == "denoiser.hidden2"
        assert threading.active_count() == before
        # an Adam step of ~1e30 per weight overflows the next step's forward pass
        with pytest.raises(PretrainingDiverged) as exc:
            pretrain_diffusion(pretrain_corpus, PretrainConfig(T=10, steps=5, batch=8, hidden=16, lr=1e30, seed=51))
    assert exc.value.step == 1
    assert threading.active_count() == before


def test_time_embedding_rows_are_distinct():
    table = time_embedding_table(100, 16)
    assert table.shape == (101, 16)
    diffs = np.linalg.norm(table[1:] - table[:-1], axis=1)
    assert (diffs > 1e-3).all()


# -- the one-node loss and the sampler against the graphs they replaced ------

def _counted(monkeypatch, module, name, reference):
    """Patch module.name with `reference` and return the list its calls append to."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(name)
        return reference(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def _graph_denoise(w, z, temb, cond):
    """`diffusion._denoise` through the graph form of the denoiser (no tape)."""
    return graph_forms.denoiser_forward(w, z, temb, cond).data, None


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
    prompt = rng.normal(0, 0.5, dims.embed_dim).astype(np.float32)
    return sched, tt, z0, t, eps, prompt


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_denoiser_node_matches_graph_bit_for_bit(dtype):
    # pretraining's path: every denoiser weight and a 5-class table are leaves
    dims = DiffusionDims(latent_dim=24, embed_dim=4, time_dim=8, hidden=32)
    params = ParamSet({**_trained_like_denoiser(dims, seed=21),
                       "emb.class": stream(21, "table").normal(0, 0.5, (5, 4)).astype(np.float32)})
    sched, tt, z0, t, eps, prompt = _ldm_inputs(dims, 16, seed=22)
    slots = stream(22, "slots").integers(0, 5, 16)

    def loss(module):
        return lambda leaves: module.ldm_loss(leaves, z0, prompt, leaves["emb.class"], slots, sched, t, eps, tt)

    node_loss, node_grads = _value_and_leaf_grads(loss(diffusion), params, dtype)
    graph_loss, graph_grads = _value_and_leaf_grads(loss(graph_forms), params, dtype)
    leaves = T.param_leaves(params, dtype=dtype)
    cond = graph_forms.pretraining_condition(prompt, leaves["emb.class"], slots).data
    weights = {name: leaves[name].data for name in DENOISER_NAMES}
    node_pred = diffusion._denoise(weights, z0, tt[t], cond)[0]
    graph_pred = graph_forms.denoiser_forward(leaves, z0, tt[t], cond).data

    assert node_pred.dtype == graph_pred.dtype == dtype
    assert np.array_equal(node_pred, graph_pred)
    assert node_loss.dtype == graph_loss.dtype == np.float64
    assert np.array_equal(node_loss, graph_loss)
    assert sorted(node_grads) == sorted(graph_grads) == sorted((*DENOISER_NAMES, "emb.class"))
    for name in node_grads:
        assert node_grads[name].dtype == graph_grads[name].dtype == dtype
        assert np.array_equal(node_grads[name], graph_grads[name]), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_denoiser_node_condition_gradient_matches_graph(dtype):
    # inversion's path: frozen float32 weights, gradient only into the one-row table
    dims = DiffusionDims(latent_dim=24, embed_dim=4, time_dim=8, hidden=32)
    frozen = T.as_leaves(_trained_like_denoiser(dims, seed=23))
    sched, tt, z0, t, eps, prompt = _ldm_inputs(dims, 16, seed=24)
    v = ParamSet({"v": stream(26, "v").normal(0, 0.3, 4).astype(np.float32)})
    slots = np.zeros(16, np.int64)

    def loss(module):
        return lambda leaves: module.ldm_loss(frozen, z0, prompt, leaves["v"], slots, sched, t, eps, tt)

    node_loss, node_grads = _value_and_leaf_grads(loss(diffusion), v, dtype)
    graph_loss, graph_grads = _value_and_leaf_grads(loss(graph_forms), v, dtype)
    assert np.array_equal(node_loss, graph_loss)
    assert node_grads["v"].dtype == graph_grads["v"].dtype == dtype
    assert np.array_equal(node_grads["v"], graph_grads["v"])


def test_pretraining_steps_match_graph_bit_for_bit(monkeypatch, pretrain_corpus):
    cfg = PretrainConfig(T=20, steps=12, batch=16, hidden=32, seed=27)
    node = pretrain_diffusion(pretrain_corpus, cfg)
    calls = _counted(monkeypatch, diffusion, "ldm_loss", graph_forms.ldm_loss)
    graph = pretrain_diffusion(pretrain_corpus, cfg)
    assert len(calls) == cfg.steps + 2  # every step and both probes ran the graph
    assert node.loss_trace == graph.loss_trace
    assert node.checksum() == graph.checksum()
    assert (node.probe_initial, node.probe_final) == (graph.probe_initial, graph.probe_final)


def test_local_class_inversion_matches_graph_bit_for_bit(monkeypatch, tiny_model, pretrain_corpus):
    images = pretrain_corpus.images[pretrain_corpus.labels == 2][:40]
    start = stream(34, "start").normal(0, 0.1, tiny_model.dims.embed_dim).astype(np.float32)

    def invert():
        return local_class_inversion(images, 2, start, 7, tiny_model, stream(35, "inv"), probe_rng=stream(36, "probe"))

    node = invert()
    calls = _counted(monkeypatch, inversion, "ldm_loss", graph_forms.ldm_loss)
    graph = invert()
    assert len(calls) == 7 + 2  # every step and both probes ran the graph
    assert np.array_equal(node[0], graph[0])
    assert node[1:] == graph[1:]
    assert node[1] != node[2]


def test_sample_matches_graph_bit_for_bit(monkeypatch):
    dims = DiffusionDims(latent_dim=24, embed_dim=4, time_dim=8, hidden=32)
    params = _trained_like_denoiser(dims, seed=28)
    sched = build_schedule(15, 1e-4, 0.2)
    tt = time_embedding_table(15, dims.time_dim)
    r = stream(29, "cond")
    cond = ConditionVector(r.normal(0, 0.3, 4).astype(np.float32), r.normal(0, 0.3, 4).astype(np.float32))
    node = sample(params, [cond], 6, sched, [stream(30, "s")], tt, clamp=(-np.inf, np.inf))
    calls = _counted(monkeypatch, diffusion, "_denoise", _graph_denoise)
    graph = sample(params, [cond], 6, sched, [stream(30, "s")], tt, clamp=(-np.inf, np.inf))
    assert len(calls) == sched.T
    assert np.array_equal(node, graph)


def _graph_nodes(root):
    """Nodes reachable from root through `_parents`, as perfbench's tracer counts them."""
    seen, stack = {id(root): root}, [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


def test_pretraining_and_inversion_steps_build_one_node(monkeypatch, pretrain_corpus):
    roots = []
    backward = T.Tensor.backward

    def recording(root):
        roots.append(root)
        backward(root)

    monkeypatch.setattr(T.Tensor, "backward", recording)
    model = pretrain_diffusion(pretrain_corpus, PretrainConfig(T=20, steps=1, batch=16, hidden=32, seed=37))
    images = pretrain_corpus.images[pretrain_corpus.labels == 1][:20]
    local_class_inversion(images, 1, model.class_embeddings[1], 1, model, stream(38, "inv"))
    assert len(roots) == 2
    for root in roots:
        inner = [node for node in _graph_nodes(root) if node._parents]
        assert [node.op for node in inner] == ["ldm_loss"]


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
        finite_x = T.constant(x[finite])
        assert np.array_equal(graph_forms.silu(finite_x).data, graph_forms.where_silu(finite_x).data)


def test_silu_kernel_gradient_matches_where_form():
    x = stream(32, "silu-grad").normal(0, 3, (8, 16)).astype(np.float32)
    ps = ParamSet({"x": x})
    _, new = evaluate_with_gradients(lambda p: graph_forms.tsum(graph_forms.square(graph_forms.silu(p["x"]))), ps)
    _, old = evaluate_with_gradients(lambda p: graph_forms.tsum(graph_forms.square(graph_forms.where_silu(p["x"]))), ps)
    assert np.array_equal(new["x"], old["x"])


def test_denoiser_overflow_raises_non_finite_naming_the_node():
    dims = DiffusionDims(latent_dim=8, embed_dim=2, time_dim=4, hidden=16)
    params = dict(init_denoiser(dims, seed=33))
    params["den.b_in"] = np.full_like(params["den.b_in"], 100.0)
    params["den.w_h"] = np.full_like(params["den.w_h"], 1e38)  # 100 * 1e38 overflows float32
    params = ParamSet(params)
    z = np.ones((2, 8), dtype=np.float32)
    sched, tt = build_schedule(4, 0.01, 0.1), time_embedding_table(4, 4)
    zeros = np.zeros(2, np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteValue) as exc:
            ldm_loss(params, z, zeros, zeros, np.zeros(2, np.int64), sched, np.array([1, 4]), z, tt)
        assert exc.value.kernel == "denoiser.hidden2"
        with pytest.raises(NonFiniteValue) as exc:
            sample(params, [ConditionVector(zeros, zeros)], 2, sched, [stream(39, "s")], tt)
    assert exc.value.kernel == "denoiser.hidden2"


def test_squared_error_overflow_names_the_loss_node():
    # a finite float64 prediction of ~1e200 whose square overflows
    dims = DiffusionDims(latent_dim=8, embed_dim=2, time_dim=4, hidden=16)
    params = {k: v.astype(np.float64) for k, v in init_denoiser(dims, seed=40).items()}
    params["den.b_out"] = np.full(8, 1e200)
    z, zeros = np.ones((2, 8), np.float32), np.zeros(2, np.float32)
    sched, tt = build_schedule(4, 0.01, 0.1), time_embedding_table(4, 4)
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteValue) as exc:
            ldm_loss(T.param_leaves(params, dtype=np.float64), z, zeros, zeros, np.zeros(2, np.int64), sched,
                     np.array([1, 4]), z, tt)
    assert exc.value.kernel == "ldm_loss"
