import numpy as np
import pytest

from dddr.diffusion import PretrainConfig, pretrain_diffusion
from dddr.inversion import (
    InversionConfig,
    add_gaussian_noise,
    aggregate_embeddings,
    federated_class_inversion,
    load_embeddings,
    local_class_inversion,
    save_embeddings,
)
from dddr.params import CheckpointError, ParamSet, load_checkpoint, save_checkpoint
from dddr.rng import stream


@pytest.fixture(scope="module")
def frozen_model(pretrain_corpus):
    return pretrain_diffusion(pretrain_corpus, PretrainConfig(steps=250, batch=32, hidden=64, seed=9))


def emb(vec):
    return np.asarray(vec, dtype=np.float32)


def test_aggregate_hand_mean():
    out = aggregate_embeddings([emb([1.0, 2.0]), emb([3.0, 4.0])])
    assert np.allclose(out, [2.0, 3.0])


def test_aggregate_single_upload_unchanged():
    out = aggregate_embeddings([emb([5.0, -1.0])])
    assert np.allclose(out, [5.0, -1.0])


def test_aggregate_idempotent_on_identical_uploads():
    v = [0.25, -0.75, 1.5]
    out = aggregate_embeddings([emb(v), emb(v), emb(v)])
    assert np.array_equal(out, np.asarray(v, dtype=np.float32))


def test_aggregate_permutation_invariant_and_linear():
    ups = [emb([1.0, 0.0]), emb([0.0, 2.0]), emb([3.0, 3.0])]
    a = aggregate_embeddings(ups)
    b = aggregate_embeddings(list(reversed(ups)))
    assert np.array_equal(a, b)
    scaled = aggregate_embeddings([emb(2.0 * u) for u in ups])
    assert np.allclose(scaled, 2.0 * a, atol=1e-6)


def test_aggregate_empty_errors():
    with pytest.raises(ValueError, match="no uploads"):
        aggregate_embeddings([])


def test_local_inversion_zero_steps_is_identity(frozen_model):
    start = emb(np.full(16, 0.3))
    images = np.zeros((3, 1, 16, 16), dtype=np.float32)
    out, _, _ = local_class_inversion(images, 2, start, 0, frozen_model, stream(1, "li"))
    assert np.array_equal(out, start)


def test_local_inversion_no_data_signal(frozen_model):
    with pytest.raises(ValueError, match="no images of class 1"):
        local_class_inversion(np.zeros((0, 1, 16, 16), dtype=np.float32), 1, emb(np.zeros(16)), 5,
                              frozen_model, stream(1, "li"))


def test_local_inversion_preserves_denoiser(frozen_model, pretrain_corpus):
    before = frozen_model.checksum()
    images = pretrain_corpus.images[pretrain_corpus.indices_of(0)][:6]
    out, loss_start, loss_end = local_class_inversion(
        images, 0, emb(np.zeros(16)), 30, frozen_model, stream(2, "li"), lr=1e-2
    )
    assert frozen_model.checksum() == before
    assert not np.array_equal(out, np.zeros(16, dtype=np.float32))


def test_local_inversion_reduces_loss_on_single_image(frozen_model, pretrain_corpus):
    images = pretrain_corpus.images[pretrain_corpus.indices_of(3)][:1]
    rng = stream(3, "single")
    out, loss_start, loss_end = local_class_inversion(
        images, 3, emb(stream(4, "init").normal(0, 0.1, 16)), 200, frozen_model, rng, lr=1e-2
    )
    assert loss_end < loss_start


def test_gaussian_noise_identity_at_zero():
    x = np.arange(5, dtype=np.float32)
    assert add_gaussian_noise(x, 0.0, stream(1, "n")) is x


def test_gaussian_noise_monte_carlo_std():
    out = add_gaussian_noise(np.zeros(10_000, dtype=np.float32), 0.1, stream(2, "n"))
    assert abs(out.std() - 0.1) <= 0.005


def test_gaussian_noise_on_paramset_and_negative_sigma():
    ps = ParamSet({"a": np.zeros(4, dtype=np.float32)})
    noised = add_gaussian_noise(ps, 0.5, stream(3, "n"))
    assert not np.array_equal(noised["a"], ps["a"])
    with pytest.raises(ValueError):
        add_gaussian_noise(ps, -0.1, stream(3, "n"))


def _client_shards(corpus, classes, sizes):
    shards = []
    offset = 0
    for count in sizes:
        shard = {}
        for c in classes:
            idx = corpus.indices_of(c)[offset : offset + count]
            shard[c] = corpus.images[idx]
        shards.append(shard)
        offset += count
    return shards


def test_federated_inversion_identical_clients_equal_single(frozen_model, pretrain_corpus):
    # all clients hold the same shard; aggregate of their (distinct-stream)
    # runs averaged must equal each run when streams are forced identical
    images = pretrain_corpus.images[pretrain_corpus.indices_of(2)][:8]
    start = emb(stream(5, "init2").normal(0, 0.1, 16))
    rng_key = (11, "same-stream")
    locals_ = [
        local_class_inversion(images, 2, start, 25, frozen_model, stream(*rng_key), lr=1e-2)[0]
        for _ in range(3)
    ]
    agg = aggregate_embeddings(locals_)
    assert np.allclose(agg, locals_[0], atol=1e-6)


def test_federated_rounds_equal_centralized_chunks(frozen_model, pretrain_corpus):
    # with identical shards and identical per-round streams, R rounds of
    # (local steps -> average) equals R chunked local runs in sequence
    images = pretrain_corpus.images[pretrain_corpus.indices_of(1)][:6]
    cls = 1
    rounds, steps = 3, 10
    start = emb(stream(6, "init3").normal(0, 0.1, 16))

    federated = start
    for r in range(rounds):
        uploads = [
            local_class_inversion(images, cls, federated, steps, frozen_model,
                                  stream(7, "round", r), lr=1e-2)[0]
            for _ in range(4)
        ]
        federated = aggregate_embeddings(uploads)

    centralized = start
    for r in range(rounds):
        centralized, _, _ = local_class_inversion(images, cls, centralized, steps, frozen_model,
                                                  stream(7, "round", r), lr=1e-2)

    assert np.allclose(federated, centralized, atol=1e-5)


def test_federated_inversion_loop_and_freeze(frozen_model, pretrain_corpus):
    classes = [0, 1]
    shards = _client_shards(pretrain_corpus, classes, sizes=[6, 6])
    table = {}
    cfg = InversionConfig(rounds=3, local_steps=10, lr=1e-2)
    report = federated_class_inversion(classes, shards, frozen_model, cfg, seed=31, table=table)
    assert sorted(table) == [0, 1]
    r1 = [r["loss_start"] for r in report if r["round"] == 1 and r["participated"]]
    r3 = [r["loss_end"] for r in report if r["round"] == 3 and r["participated"]]
    assert np.mean(r3) < np.mean(r1)
    with pytest.raises(ValueError, match="class 0 was already inverted"):
        federated_class_inversion([0], shards, frozen_model, cfg, seed=31, table=table)


def test_federated_inversion_skips_dataless_client(frozen_model, pretrain_corpus):
    shards = _client_shards(pretrain_corpus, [4], sizes=[6, 6])
    shards[1][4] = np.zeros((0, 1, 16, 16), dtype=np.float32)
    cfg = InversionConfig(rounds=2, local_steps=5, lr=1e-2)
    report = federated_class_inversion([4], shards, frozen_model, cfg, seed=32, table={})
    flags = {(r["client"], r["participated"]) for r in report}
    assert (1, False) in flags and (0, True) in flags


def test_federated_inversion_errors_when_class_has_no_data(frozen_model):
    shards = [{6: np.zeros((0, 1, 16, 16), dtype=np.float32)} for _ in range(2)]
    with pytest.raises(ValueError, match="class 6"):
        federated_class_inversion([6], shards, frozen_model, InversionConfig(rounds=1, local_steps=1),
                                  seed=33, table={})


def test_embeddings_checkpoint_round_trip(tmp_path):
    table = {7: emb([4, 3, 2, 1]), 3: emb([1, 2, 3, 4])}
    path = tmp_path / "embeddings.ckpt"
    save_embeddings(path, table, rounds=10, embed_dim=4)
    params, meta = load_checkpoint(path)
    assert params.names() == ["class_00003", "class_00007"]
    assert meta == {"rounds": {"3": 10, "7": 10}, "embed_dim": 4}
    restored = load_embeddings(path, embed_dim=4)
    assert sorted(restored) == [3, 7]
    assert all(np.array_equal(restored[c], table[c]) for c in table)


@pytest.mark.parametrize(
    "entries, match",
    [
        ({"class_00003": emb([1, 2, 3])}, r"class 3: embedding shape \(3,\) != \(4,\)"),
        ({"class_00003": emb([1, np.nan, 3, 4])}, "class 3: embedding has non-finite entries"),
        ({"class_3": emb([1, 2, 3, 4])}, "'class_3' is not named class_NNNNN"),
    ],
)
def test_load_embeddings_rejects_a_bad_entry_naming_the_file(tmp_path, entries, match):
    path = tmp_path / "embeddings.ckpt"
    save_checkpoint(path, ParamSet(entries))
    with pytest.raises(CheckpointError, match=match) as info:
        load_embeddings(path, embed_dim=4)
    assert str(info.value).startswith(f"{path}: ")
