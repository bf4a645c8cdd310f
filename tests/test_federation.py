import numpy as np
import pytest

from dddr.classifier import ClassifierDims, LossWeights, consolidate_ewc, init_classifier, loss_ce, make_snapshot
from dddr.federation import ClientTrainConfig, ClientUpdate, aggregate_classifier, local_train_client
from dddr.params import ParamSet, params_checksum
from dddr.rng import stream

DIMS = ClassifierDims(input_dim=16, n_classes=4, hidden=8, feature_dim=6, proj_hidden=6, proj_dim=4)


def make_update(cid, value, count):
    return ClientUpdate(
        client_id=cid,
        params=ParamSet({"w": np.full(2, float(value), dtype=np.float32)}),
        sample_count=count,
    )


def shard(seed, n, classes=(0, 1)):
    r = stream(seed, "fed-shard")
    x = r.uniform(0, 1, (n, 1, 4, 4)).astype(np.float32)
    y = r.choice(classes, size=n)
    return x, y


EMPTY = (np.zeros((0, 16), np.float32), np.zeros(0, np.int64))


def test_aggregate_even_mean():
    out = aggregate_classifier([make_update(0, 1, 10), make_update(1, 3, 10)])
    assert np.allclose(out["w"], 2.0)


def test_aggregate_weighted_mean():
    out = aggregate_classifier([make_update(0, 0, 1), make_update(1, 4, 3)])
    assert np.allclose(out["w"], 3.0)


def test_aggregate_single_identity():
    up = make_update(0, 7, 5)
    out = aggregate_classifier([up])
    assert np.array_equal(out["w"], up.params["w"])


def test_aggregate_identical_updates_unchanged():
    ups = [make_update(j, 1.25, 9) for j in range(4)]
    out = aggregate_classifier(ups)
    assert np.allclose(out["w"], 1.25, atol=1e-6)


def test_aggregate_is_affine_in_each_update():
    base = [make_update(0, 1, 1), make_update(1, 5, 3)]
    out0 = aggregate_classifier(base)
    shifted = [make_update(0, 1 + 8, 1), base[1]]
    out1 = aggregate_classifier(shifted)
    assert np.allclose(out1["w"] - out0["w"], 8 * 1 / 4, atol=1e-6)


def test_aggregate_rejects_empty_and_zero_weight():
    with pytest.raises(ValueError):
        aggregate_classifier([])


def test_zero_epochs_returns_global_params():
    params = init_classifier(DIMS, seed=3)
    cfg = ClientTrainConfig(epochs=0)
    x, y = shard(1, 10)
    update = local_train_client(0, params, (x, y), EMPTY, EMPTY, None, [], cfg, stream(1, "t"))
    assert params_checksum(update.params) == params_checksum(params)
    assert update.sample_count == 10


def test_identical_inputs_and_stream_give_identical_updates():
    params = init_classifier(DIMS, seed=3)
    cfg = ClientTrainConfig(epochs=2, batch=8, weights=LossWeights(0, 0, 0))
    x, y = shard(2, 12)
    a = local_train_client(0, params, (x, y), EMPTY, EMPTY, None, [], cfg, stream(9, "same"))
    b = local_train_client(1, params, (x, y), EMPTY, EMPTY, None, [], cfg, stream(9, "same"))
    assert params_checksum(a.params) == params_checksum(b.params)


def test_k_identical_clients_match_centralized():
    params = init_classifier(DIMS, seed=3)
    cfg = ClientTrainConfig(epochs=1, batch=8, weights=LossWeights(0, 0, 0))
    x, y = shard(3, 16)
    updates = [
        local_train_client(j, params, (x, y), EMPTY, EMPTY, None, [], cfg, stream(4, "central"))
        for j in range(3)
    ]
    aggregated = aggregate_classifier(updates)
    centralized = updates[0].params
    for name in aggregated:
        assert np.allclose(aggregated[name], centralized[name], atol=1e-5)


def test_training_reduces_objective():
    params = init_classifier(DIMS, seed=5)
    cfg = ClientTrainConfig(epochs=5, batch=8, lr=3e-3, weights=LossWeights(0, 0, 0))
    x, y = shard(6, 24, classes=(0, 1, 2))
    flat = x.reshape(24, -1)
    before = loss_ce(params, flat, y).item()
    update = local_train_client(0, params, (x, y), EMPTY, EMPTY, None, [], cfg, stream(5, "learn"))
    after = loss_ce(update.params, flat, y).item()
    assert after < before
    assert update.loss_means["ce"] > 0


def test_rejects_all_empty_inputs():
    params = init_classifier(DIMS, seed=3)
    cfg = ClientTrainConfig(epochs=1)
    with pytest.raises(ValueError, match="nothing to train"):
        local_train_client(0, params, (np.zeros((0, 1, 4, 4), np.float32), np.zeros(0, np.int64)),
                           EMPTY, EMPTY, None, [], cfg, stream(1, "e"))


def test_dataless_client_trains_on_generated_current():
    params = init_classifier(DIMS, seed=3)
    cfg = ClientTrainConfig(epochs=1, batch=8, weights=LossWeights(0, 0, 0))
    gen_x, gen_y = shard(7, 12)
    update = local_train_client(
        0, params, (np.zeros((0, 1, 4, 4), np.float32), np.zeros(0, np.int64)),
        EMPTY, (gen_x.reshape(12, -1), gen_y), None, [], cfg, stream(2, "g")
    )
    assert update.sample_count == 1  # floor for weighting
    assert update.steps > 0


def test_replay_terms_engage_with_snapshot():
    params = init_classifier(DIMS, seed=8)
    snapshot = make_snapshot(init_classifier(DIMS, seed=9), task_index=0)
    cfg = ClientTrainConfig(epochs=1, batch=6)
    x, y = shard(10, 8, classes=(2, 3))
    px, py = shard(11, 8, classes=(0, 1))
    cx, cy = shard(12, 8, classes=(2, 3))
    update = local_train_client(
        0, params, (x, y), (px.reshape(8, -1), py), (cx.reshape(8, -1), cy), snapshot, [], cfg,
        stream(3, "full")
    )
    for term in ("ce", "scl", "pce", "kd"):
        assert term in update.loss_means and update.loss_means[term] != 0.0
    assert params_checksum(snapshot.params) == snapshot.checksum  # teacher untouched


def test_logged_total_is_the_weighted_sum_of_logged_terms():
    params = init_classifier(DIMS, seed=8)
    snapshot = make_snapshot(init_classifier(DIMS, seed=9), task_index=0)
    fisher = ParamSet({k: np.abs(v) for k, v in init_classifier(DIMS, seed=13).items()})
    ewc = consolidate_ewc([(init_classifier(DIMS, seed=12), fisher)])
    w = LossWeights(w1=0.8, w2=0.5, w3=2.0)
    cfg = ClientTrainConfig(epochs=2, batch=6, weights=w, ewc_lambda=3.0)
    x, y = shard(10, 8, classes=(2, 3))
    px, py = shard(11, 8, classes=(0, 1))
    cx, cy = shard(12, 8, classes=(2, 3))
    update = local_train_client(
        0, params, (x, y), (px.reshape(8, -1), py), (cx.reshape(8, -1), cy), snapshot, ewc, cfg,
        stream(3, "weighted-sum")
    )
    m = update.loss_means
    assert all(m[term] != 0.0 for term in ("ce", "scl", "pce", "kd", "ewc"))
    expected = m["ce"] + w.w1 * m["scl"] + w.w2 * m["pce"] + w.w3 * m["kd"] + m["ewc"]
    assert m["total"] == pytest.approx(expected, rel=1e-9)
