import json
import struct

import numpy as np
import pytest

from dddr.optim import adam, apply_gradient_step, sgd
from dddr.params import (
    CheckpointError,
    ParamSet,
    load_checkpoint,
    params_checksum,
    save_checkpoint,
    weighted_mean_params,
)


def ps(**kw):
    return ParamSet({k: np.asarray(v, dtype=np.float32) for k, v in kw.items()})


def test_sgd_direct_formula():
    out = apply_gradient_step(ps(p=[1.0]), ps(p=[2.0]), sgd(lr=0.1))
    assert out["p"] == pytest.approx([0.8])


def test_sgd_zero_gradient_is_identity():
    params = ps(a=[1.5, -2.0], b=[[0.5]])
    out = apply_gradient_step(params, ps(a=[0.0, 0.0], b=[[0.0]]), sgd(lr=0.3))
    for name in params:
        assert np.array_equal(out[name], params[name])


def test_adam_first_step_hand_evaluated():
    # m_hat = g, v_hat = g^2 -> step = lr * g / (|g| + eps)
    out = apply_gradient_step(ps(p=[0.0]), ps(p=[1.0]), adam(lr=0.1))
    assert out["p"] == pytest.approx([-0.1], abs=1e-6)


def test_adam_two_steps_match_recurrence():
    # with a constant unit gradient the bias-corrected ratio stays 1, so
    # each step moves by exactly -lr (up to eps)
    opt = adam(lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
    params, grads = ps(p=[0.0]), ps(p=[1.0])
    params = apply_gradient_step(params, grads, opt)
    params = apply_gradient_step(params, grads, opt)
    assert params["p"] == pytest.approx([-0.2], abs=1e-6)
    assert opt.step == 2


def test_mismatched_names_list_symmetric_difference():
    with pytest.raises(KeyError) as exc:
        apply_gradient_step(ps(a=[1.0]), ps(b=[1.0]), sgd(lr=0.1))
    assert "a" in str(exc.value) and "b" in str(exc.value)


def test_paramset_orders_names():
    p = ParamSet({"z": np.zeros(1, np.float32), "a": np.zeros(1, np.float32), "m": np.zeros(1, np.float32)})
    assert p.names() == ["a", "m", "z"]


def test_weighted_mean_matches_hand_example():
    out = weighted_mean_params([ps(x=[0.0]), ps(x=[4.0])], [1.0, 3.0])
    assert out["x"] == pytest.approx([3.0])


def test_checkpoint_round_trip(tmp_path):
    p = ps(alpha=[[1.0, 2.0], [3.0, 4.0]], beta=[5.0])
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, p, extra={"note": "x"})
    loaded, extra = load_checkpoint(path)
    assert extra == {"note": "x"}
    assert loaded.names() == p.names()
    for name in p:
        assert np.array_equal(loaded[name], p[name])
    assert params_checksum(loaded) == params_checksum(p)


def test_checkpoint_magic_is_stable(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, ps(a=[1.0]))
    assert path.read_bytes()[:8] == b"DDDRCKPT"


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_truncated_payload(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, ps(a=[1.0, 2.0, 3.0]))
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_checksum_sensitive_to_values():
    a, b = ps(x=[1.0]), ps(x=[1.0000001])
    assert params_checksum(a) != params_checksum(b)


def write_checkpoint_with_meta(path, meta, payload=b""):
    text = json.dumps(meta).encode("utf-8")
    path.write_bytes(b"DDDRCKPT" + struct.pack("<II", 1, len(text)) + text + payload)


GOOD_META = {"names": ["a"], "shapes": {"a": [2]}, "counts": {"a": 2}, "extra": {}}


@pytest.mark.parametrize(
    "meta",
    [
        {k: v for k, v in GOOD_META.items() if k != "names"},
        {k: v for k, v in GOOD_META.items() if k != "counts"},
        {**GOOD_META, "counts": {"a": "two"}},
        {**GOOD_META, "counts": {"a": 2.5}},
        [GOOD_META],
    ],
    ids=["missing-names", "missing-counts", "string-count", "float-count", "json-list"],
)
def test_checkpoint_malformed_metadata_names_the_file(tmp_path, meta):
    path = tmp_path / "meta.ckpt"
    write_checkpoint_with_meta(path, meta, payload=np.zeros(2, "<f4").tobytes())
    with pytest.raises(CheckpointError, match="meta.ckpt"):
        load_checkpoint(path)


def test_checkpoint_repeated_name_is_rejected_naming_file_and_name(tmp_path):
    path = tmp_path / "twice.ckpt"
    meta = {**GOOD_META, "names": ["a", "a"]}
    write_checkpoint_with_meta(path, meta, payload=np.array([1.0, 2.0, 3.0, 4.0], "<f4").tobytes())
    with pytest.raises(CheckpointError, match=r"twice\.ckpt.*'a' twice"):
        load_checkpoint(path)


def test_checkpoint_hand_written_metadata_loads(tmp_path):
    path = tmp_path / "meta.ckpt"
    write_checkpoint_with_meta(path, GOOD_META, payload=np.array([1.0, 2.0], "<f4").tobytes())
    loaded, extra = load_checkpoint(path)
    assert np.array_equal(loaded["a"], [1.0, 2.0]) and extra == {}


def adam_reference(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Reference: the Adam formula with fresh m, v, m_hat and v_hat arrays every step."""
    state["step"] += 1
    bias1 = 1.0 - beta1 ** state["step"]
    bias2 = 1.0 - beta2 ** state["step"]
    updated = {}
    for name in params:
        g = grads[name]
        m = state["m"].get(name, np.zeros_like(g))
        v = state["v"].get(name, np.zeros_like(g))
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        state["m"][name], state["v"][name] = m, v
        m_hat = m / np.float32(bias1)
        v_hat = v / np.float32(bias2)
        updated[name] = params[name] - np.float32(lr) * m_hat / (np.sqrt(v_hat) + np.float32(eps))
    return ParamSet(updated)


def test_adam_in_place_matches_reference_bit_for_bit():
    r = np.random.default_rng(7)
    shapes = {"w": (5, 3), "b": (3,), "s": ()}
    params = ParamSet({k: r.normal(0, 1, s) for k, s in shapes.items()})
    ref_params, ref_state = params, {"step": 0, "m": {}, "v": {}}
    opt = adam(lr=3e-3)
    for step in range(5):
        grads = ParamSet({k: r.normal(0, 10.0 ** r.integers(-6, 2), s) for k, s in shapes.items()})
        if step == 1:
            grads = ParamSet({**grads, "b": np.array([0.0, -0.0, 1e-30])})
        params = apply_gradient_step(params, grads, opt)
        ref_params = adam_reference(ref_params, grads, ref_state, lr=3e-3)
        for name in shapes:
            assert np.array_equal(params[name], ref_params[name]), (step, name)
            assert np.array_equal(opt.m[name], ref_state["m"][name]), (step, name)
            assert np.array_equal(opt.v[name], ref_state["v"][name]), (step, name)
            assert opt.m[name].dtype == opt.v[name].dtype == np.float32


def test_malloc_thresholds_are_pinned_under_glibc():
    import platform

    import dddr

    if platform.libc_ver()[0] != "glibc":
        pytest.skip("mallopt thresholds exist only in glibc")
    assert dddr.pin_malloc_thresholds()
