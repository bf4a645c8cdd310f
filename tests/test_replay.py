import numpy as np
import pytest

from dddr.corpus import DataFormatError
from dddr.diffusion import PretrainConfig, pretrain_diffusion
from dddr.replay import ReplayCache, build_replay_sets, generate_class_samples, load_cache, save_cache


@pytest.fixture(scope="module")
def model(pretrain_corpus):
    return pretrain_diffusion(pretrain_corpus, PretrainConfig(steps=200, batch=32, hidden=64, seed=9))


@pytest.fixture(scope="module")
def store(model):
    return model.class_embeddings


def test_generate_counts_labels_and_determinism(store, model):
    a = generate_class_samples(store, 2, 12, model, seed=5)
    b = generate_class_samples(store, 2, 12, model, seed=5)
    assert a.shape == (12, 1, 16, 16)
    assert np.array_equal(a, b)
    c = generate_class_samples(store, 2, 12, model, seed=6)
    assert not np.array_equal(a, c)


def test_generate_unknown_class_errors(store, model):
    with pytest.raises(KeyError):
        generate_class_samples(store, 99, 4, model, seed=5)


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


def test_cache_round_trip_bit_exact(store, model, tmp_path):
    cache = ReplayCache(seed=5)
    cache.by_class[3] = generate_class_samples(store, 3, 6, model, seed=5)
    cache.by_class[0] = generate_class_samples(store, 0, 4, model, seed=5)
    save_cache(cache, tmp_path / "cache")
    back = load_cache(tmp_path / "cache")
    assert back.seed == 5
    assert sorted(back.by_class) == [0, 3]
    for c in (0, 3):
        assert np.array_equal(back.by_class[c], cache.by_class[c])


def test_cache_tampered_label_fails_checksum(store, model, tmp_path):
    cache = ReplayCache(seed=5)
    cache.by_class[2] = generate_class_samples(store, 2, 3, model, seed=5)
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
    cache.by_class[1] = generate_class_samples(store, 1, 2, model, seed=5)
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
