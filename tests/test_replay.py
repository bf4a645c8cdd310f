import numpy as np
import pytest

from dddr import replay
from dddr.corpus import DataFormatError
from dddr.diffusion import (
    ConditionVector,
    DiffusionDims,
    PretrainConfig,
    PretrainedDiffusion,
    build_schedule,
    init_denoiser,
    pretrain_diffusion,
    sample,
    time_embedding_table,
)
from dddr.params import ParamSet
from dddr.replay import (
    SAMPLE_GROUP_ROWS,
    ReplayCache,
    build_replay_sets,
    generate_samples,
    load_cache,
    sample_groups,
    save_cache,
)
from dddr.rng import stream
from tests import graph_forms


@pytest.fixture(scope="module")
def model(pretrain_corpus):
    return pretrain_diffusion(pretrain_corpus, PretrainConfig(steps=200, batch=32, hidden=64, seed=9))


@pytest.fixture(scope="module")
def store(model):
    return model.class_embeddings


def test_generate_counts_labels_and_determinism(store, model):
    a = generate_samples(store, [(2, 12)], model, seed=5)[0]
    b = generate_samples(store, [(2, 12)], model, seed=5)[0]
    assert a.shape == (12, 1, 16, 16)
    assert np.array_equal(a, b)
    c = generate_samples(store, [(2, 12)], model, seed=6)[0]
    assert not np.array_equal(a, c)


def test_generate_unknown_class_errors(store, model):
    with pytest.raises(KeyError):
        generate_samples(store, [(99, 4)], model, seed=5)


def test_build_replay_sets_task1_boundary(store, model):
    past, current = build_replay_sets(store, [], [0, 1], 10, 7, model, seed=3)
    assert past.counts() == {}
    assert current.counts() == {0: 7, 1: 7}
    x, y = past.as_batch()
    assert x.shape[0] == 0 and y.size == 0


def test_build_replay_sets_counts_and_labels(store, model):
    past, current = build_replay_sets(store, [0, 1, 2, 3], [4, 5], 5, 4, model, seed=3)
    assert past.counts() == {0: 5, 1: 5, 2: 5, 3: 5}
    x, y = past.as_batch()
    assert x.shape[0] == 20
    assert {int(v): int(np.sum(y == v)) for v in np.unique(y)} == {0: 5, 1: 5, 2: 5, 3: 5}


def test_replay_sets_identical_for_every_caller(store, model):
    a_past, a_cur = build_replay_sets(store, [0], [1], 6, 6, model, seed=11)
    b_past, b_cur = build_replay_sets(store, [0], [1], 6, 6, model, seed=11)
    assert a_past.by_class[0].tobytes() == b_past.by_class[0].tobytes()
    assert a_cur.by_class[1].tobytes() == b_cur.by_class[1].tobytes()


def test_sample_groups_cap_rows_and_keep_one_row_classes_alone():
    assert SAMPLE_GROUP_ROWS == 128
    assert sample_groups([30] * 8) == [slice(0, 4), slice(4, 8)]
    assert sample_groups([60] * 10) == [slice(0, 2), slice(2, 4), slice(4, 6), slice(6, 8), slice(8, 10)]
    assert sample_groups([1, 1, 30, 30, 1, 2]) == [slice(0, 1), slice(1, 2), slice(2, 4), slice(4, 5), slice(5, 6)]
    assert sample_groups([50, 200, 64, 64, 1]) == [slice(0, 1), slice(1, 2), slice(2, 4), slice(4, 5)]
    assert sample_groups([]) == []


def _desk_model(T: int, classes: int, seed: int) -> PretrainedDiffusion:
    """An untrained denoiser of the desk config's dims (16x16 images, hidden 256) over a short schedule."""
    dims = DiffusionDims(latent_dim=256, embed_dim=16, time_dim=16, hidden=256)
    r = stream(seed, "desk-like")
    params = {k: v + r.normal(0, 0.05, v.shape).astype(np.float32) for k, v in init_denoiser(dims, seed).items()}
    return PretrainedDiffusion(
        params=ParamSet(params),
        prompt=r.normal(0, 0.3, 16).astype(np.float32),
        class_embeddings={c: r.normal(0, 0.3, 16).astype(np.float32) for c in range(classes)},
        sched=build_schedule(T, 1e-4, 0.2),
        dims=dims,
        temb_table=time_embedding_table(T, 16),
    )


def _one_class_images(model, c, n, seed):
    """Class c's replay images from a one-class sampler pass, before they are snapped to 8 bits."""
    cond = ConditionVector(model.prompt, model.class_embeddings[c])
    flat = graph_forms.sample_one_class(model.params, cond, n, model.sched, stream(seed, "replay-gen", c),
                                        model.temb_table)
    return flat.reshape((n,) + tuple(model.image_shape))


def test_grouped_sampler_matches_per_class_bit_for_bit(model, monkeypatch):
    # the sampler over stacked classes against one call per class with every draw in line
    # (graph_forms.sample_one_class), at the tests' model and at the desk dims
    desk = _desk_model(T=8, classes=10, seed=41)
    for m in (model, desk):
        table = m.class_embeddings
        for counts in ([1], [2, 3, 7], [30, 30, 60], [60, 2, 7, 30, 3]):
            classes = sorted(table)[: len(counts)]
            conds = [ConditionVector(m.prompt, table[c]) for c in classes]
            for clamp in ((0.0, 1.0), (-np.inf, np.inf)):
                grouped = sample(m.params, conds, sum(counts), m.sched, [stream(42, "g", c) for c in classes],
                                 m.temb_table, clamp=clamp, counts=counts)
                alone = [graph_forms.sample_one_class(m.params, cond, n, m.sched, stream(42, "g", c), m.temb_table,
                                                      clamp=clamp) for c, cond, n in zip(classes, conds, counts)]
                assert np.array_equal(grouped, np.concatenate(alone)), (counts, clamp)
    # build_replay_sets at the desk-dddr shape (4 past and 4 current classes of 30), the
    # replay-wide shape (8 past and 2 current of 60), and 1-row past classes beside 30-row
    # ones, compared before the 8-bit snap, which would hide a 1-row class stacked with others
    monkeypatch.setattr(replay, "quantize01", lambda images: images)
    for past, current, n_past, n_current in (
        ([0, 1, 2, 3], [4, 5, 6, 7], 30, 30),
        (list(range(8)), [8, 9], 60, 60),
        ([0, 1], [2, 3, 4], 1, 30),
        ([0, 1, 2], [3, 4], 7, 60),
    ):
        past_cache, current_cache = build_replay_sets(desk.class_embeddings, past, current, n_past, n_current,
                                                      desk, seed=43)
        for cache, classes, n in ((past_cache, past, n_past), (current_cache, current, n_current)):
            assert cache.counts() == {c: n for c in classes}
            for c in classes:
                assert np.array_equal(cache.by_class[c], _one_class_images(desk, c, n, 43))


def test_grouped_sampler_rejects_counts_that_do_not_add_up(model):
    cond = ConditionVector(model.prompt, model.class_embeddings[0])
    args = (model.sched, [stream(1, "a"), stream(1, "b")], model.temb_table)
    with pytest.raises(ValueError):
        sample(model.params, [cond, cond], 5, *args, counts=[2, 2])
    with pytest.raises(ValueError):
        sample(model.params, [cond, cond], 4, *args, counts=[4, 0])
    with pytest.raises(ValueError):
        sample(model.params, [cond], 4, *args, counts=[2, 2])


def test_cache_round_trip_bit_exact(store, model, tmp_path):
    cache = ReplayCache(seed=5)
    cache.by_class[3] = generate_samples(store, [(3, 6)], model, seed=5)[0]
    cache.by_class[0] = generate_samples(store, [(0, 4)], model, seed=5)[0]
    save_cache(cache, tmp_path / "cache")
    back = load_cache(tmp_path / "cache")
    assert back.seed == 5
    assert sorted(back.by_class) == [0, 3]
    for c in (0, 3):
        assert np.array_equal(back.by_class[c], cache.by_class[c])


def test_cache_tampered_label_fails_checksum(store, model, tmp_path):
    cache = ReplayCache(seed=5)
    cache.by_class[2] = generate_samples(store, [(2, 3)], model, seed=5)[0]
    manifest = save_cache(cache, tmp_path / "cache")
    lines = manifest.read_text().splitlines()
    fields = lines[1].split(",")
    fields[1] = "7"  # label column
    lines[1] = ",".join(fields)
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match="checksum"):
        load_cache(tmp_path / "cache")


def test_cache_corrupt_manifest_reports_line(store, model, tmp_path):
    cache = ReplayCache(seed=5)
    cache.by_class[1] = generate_samples(store, [(1, 2)], model, seed=5)[0]
    manifest = save_cache(cache, tmp_path / "cache")
    lines = manifest.read_text().splitlines()
    lines[2] = "too,few"
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match="line 3"):
        load_cache(tmp_path / "cache")


def test_empty_cache_round_trip(tmp_path):
    manifest = save_cache(ReplayCache(seed=1), tmp_path / "cache")
    assert manifest.read_text().splitlines() == ["filename,label,seed,class,checksum"]
    back = load_cache(tmp_path / "cache")
    assert back.by_class == {}
