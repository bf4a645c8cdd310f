import numpy as np
import pytest

from dddr import gradcheck
from dddr import tensor as T
from dddr.classifier import ClassifierDims, ewc_penalty, init_classifier, loss_ce, loss_kd, loss_pce, loss_scl
from dddr.diffusion import DiffusionDims, build_schedule, init_denoiser, ldm_loss, time_embedding_table
from dddr.gradcheck import finite_difference_check, max_relative_error, numeric_gradients
from dddr.params import ParamSet
from dddr.rng import stream
from dddr.tensor import evaluate_with_gradients
from tests import graph_forms


def test_square_gradient_analytic():
    ps = ParamSet({"w": np.array([3.0], dtype=np.float32)})
    loss, grads = evaluate_with_gradients(lambda p: graph_forms.tsum(graph_forms.square(p["w"])), ps)
    assert loss == pytest.approx(9.0)
    assert grads["w"] == pytest.approx([6.0])


def test_sum_gradient_is_ones():
    ps = ParamSet({"w": np.arange(6, dtype=np.float32).reshape(2, 3)})
    _, grads = evaluate_with_gradients(lambda p: graph_forms.tsum(p["w"]), ps)
    assert np.array_equal(grads["w"], np.ones((2, 3), dtype=np.float32))


def test_two_layer_net_matches_finite_differences():
    r = stream(7, "fd-net")
    ps = ParamSet(
        {
            "w1": r.normal(0, 0.5, (4, 5)).astype(np.float32),
            "b1": r.normal(0, 0.5, 5).astype(np.float32),
            "w2": r.normal(0, 0.5, (5, 3)).astype(np.float32),
            "b2": r.normal(0, 0.5, 3).astype(np.float32),
        }
    )
    x = r.normal(0, 1, (6, 4)).astype(np.float32)
    y = r.normal(0, 1, (6, 3)).astype(np.float32)

    def f(p):
        h = graph_forms.relu(graph_forms.affine(T.constant(x), p["w1"], p["b1"]))
        out = graph_forms.affine(h, p["w2"], p["b2"])
        return graph_forms.tmean(graph_forms.square(graph_forms.sub(out, T.constant(y))))

    report = finite_difference_check(f, ps, h=1e-3, tolerance=1e-3)
    assert report.passed, report.max_rel_error


def test_corrupted_gradient_fails_check():
    ps = ParamSet({"w": np.array([0.7, -0.4], dtype=np.float32)})

    def f(p):
        return graph_forms.tsum(graph_forms.square(p["w"]))

    numeric = numeric_gradients(f, ps)
    _, analytic = evaluate_with_gradients(f, ps)
    corrupted = ParamSet({"w": analytic["w"] + 0.1})
    errors = max_relative_error(corrupted, numeric)
    assert errors["w"] > 1e-3


def test_softmax_sums_to_one_and_matches_scalar_eval():
    x = T.constant(np.array([[1.0, 2.0, 3.0]], dtype=np.float32))
    out = graph_forms.softmax(x).data[0]
    assert abs(out.sum() - 1.0) < 1e-6
    import math

    denom = sum(math.exp(v) for v in [1.0, 2.0, 3.0])
    expected = [math.exp(v) / denom for v in [1.0, 2.0, 3.0]]
    assert np.allclose(out, expected, atol=1e-6)


def test_softmax_symmetry():
    out = graph_forms.softmax(T.constant(np.array([[0.0, 0.0]], dtype=np.float32))).data[0]
    assert out == pytest.approx([0.5, 0.5])


def test_log_softmax_is_log_of_softmax():
    x = np.array([[0.3, -1.2, 2.0, 0.0]], dtype=np.float32)
    ls = graph_forms.log_softmax(T.constant(x)).data
    sm = graph_forms.softmax(T.constant(x)).data
    assert np.allclose(ls, np.log(sm), atol=1e-5)


def test_l2_normalize_three_four_five():
    out = graph_forms.l2_normalize(T.constant(np.array([[3.0, 4.0]], dtype=np.float32))).data[0]
    assert out == pytest.approx([0.6, 0.8])
    assert abs(np.linalg.norm(out) - 1.0) < 1e-6


def test_l2_normalize_rejects_zero_vector():
    with pytest.raises(T.DegenerateInput):
        graph_forms.l2_normalize(T.constant(np.zeros((1, 3), dtype=np.float32)))


def test_shape_mismatch_names_kernel_and_shapes():
    a = T.constant(np.zeros((2, 3), dtype=np.float32))
    b = T.constant(np.zeros((4, 5), dtype=np.float32))
    with pytest.raises(T.ShapeMismatch) as exc:
        graph_forms.matmul(a, b)
    assert "matmul" in str(exc.value)
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)


def test_non_finite_intermediate_names_kernel():
    big = T.constant(np.array([1e38], dtype=np.float32))
    with np.errstate(over="ignore"):
        with pytest.raises(T.NonFiniteValue) as exc:
            T.mul(big, big)
    assert "mul" in str(exc.value)


def test_grads_cover_all_params_with_zeros_for_untouched():
    ps = ParamSet({"used": np.ones(2, dtype=np.float32), "unused": np.ones(3, dtype=np.float32)})
    _, grads = evaluate_with_gradients(lambda p: graph_forms.tsum(p["used"]), ps)
    assert grads.names() == ["unused", "used"]
    assert np.array_equal(grads["unused"], np.zeros(3, dtype=np.float32))


def test_broadcast_add_reduces_gradient():
    ps = ParamSet({"b": np.zeros(3, dtype=np.float32)})
    x = np.ones((4, 3), dtype=np.float32)
    _, grads = evaluate_with_gradients(lambda p: graph_forms.tsum(T.add(T.constant(x), p["b"])), ps)
    assert np.array_equal(grads["b"], np.full(3, 4.0, dtype=np.float32))


def test_concat_splits_gradient():
    ps = ParamSet({"a": np.ones((2, 2), dtype=np.float32), "b": np.ones((2, 3), dtype=np.float32)})

    def f(p):
        joined = graph_forms.concat([p["a"], p["b"]], axis=1)
        weights = np.concatenate([np.full((2, 2), 2.0), np.full((2, 3), 5.0)], axis=1).astype(np.float32)
        return graph_forms.tsum(T.mul(joined, T.constant(weights)))

    _, grads = evaluate_with_gradients(f, ps)
    assert np.array_equal(grads["a"], np.full((2, 2), 2.0, dtype=np.float32))
    assert np.array_equal(grads["b"], np.full((2, 3), 5.0, dtype=np.float32))


def test_kernel_evaluation_is_deterministic():
    r = stream(3, "det")
    x = r.normal(0, 1, (32, 16)).astype(np.float32)
    w = r.normal(0, 1, (16, 8)).astype(np.float32)

    def run():
        return graph_forms.softmax(graph_forms.matmul(T.constant(x), T.constant(w))).data.tobytes()

    assert run() == run()


@pytest.mark.parametrize("kernel", [graph_forms.relu, graph_forms.silu, graph_forms.square])
def test_elementwise_kernels_match_finite_differences(kernel):
    r = stream(11, "fd-elem", kernel.__name__)
    ps = ParamSet({"w": (r.normal(0, 1.0, 12).astype(np.float32) + 0.05)})

    def f(p):
        return graph_forms.tsum(kernel(p["w"]))

    report = finite_difference_check(f, ps, tolerance=1e-3)
    assert report.passed, report.max_rel_error


def test_transpose_matmul_gradient():
    ps = ParamSet({"z": np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)})

    def f(p):
        return graph_forms.tsum(graph_forms.matmul(p["z"], graph_forms.transpose(p["z"])))

    report = finite_difference_check(f, ps, tolerance=1e-3)
    assert report.passed, report.max_rel_error


def test_graphs_over_constants_keep_no_backward_or_parents():
    r = stream(3, "constant-graph")
    a = T.constant(r.normal(0, 1, (3, 4)))
    b = T.constant(r.normal(0, 1, (4, 2)))
    nodes = {
        "add": T.add(a, a),
        "mul": T.mul(a, 2.0),
        "matmul": graph_forms.matmul(a, b),
        "relu": graph_forms.relu(a),
        "silu": graph_forms.silu(a),
        "square": graph_forms.square(a),
        "sum": graph_forms.tsum(a, axis=0),
        "mean": graph_forms.tmean(a),
        "softmax": graph_forms.softmax(a),
        "log_softmax": graph_forms.log_softmax(a),
        "l2_normalize": graph_forms.l2_normalize(a),
        "concat": graph_forms.concat([a, a], axis=1),
        "reshape": graph_forms.reshape(a, (4, 3)),
        "transpose": graph_forms.transpose(a),
    }
    w = ParamSet({"w": r.normal(0, 1, (3, 4)).astype(np.float32)})
    nodes["ewc_penalty"] = ewc_penalty(w, w, w, lam=1.0)
    dims = DiffusionDims(latent_dim=6, embed_dim=2, time_dim=4, hidden=8)
    den = init_denoiser(dims, seed=1)
    zeros = np.zeros((2, 6), np.float32)
    nodes["ldm_loss"] = ldm_loss(den, zeros, np.zeros(2), np.zeros((3, 2)), np.array([0, 2]), build_schedule(4),
                                 np.array([1, 4]), zeros, time_embedding_table(4, 4))
    clf = ParamSet({k: v + r.normal(0, 0.1, v.shape).astype(np.float32)
                    for k, v in init_classifier(ClassifierDims(8, 3, 6, 4, 4, 3), seed=2).items()})
    x, y = r.uniform(0, 1, (4, 8)).astype(np.float32), np.array([0, 0, 1, 2])
    nodes["loss_ce"] = loss_ce(clf, x, y)
    nodes["loss_pce"] = loss_pce(clf, x, y)
    nodes["loss_scl"] = loss_scl(clf, x, y)
    for direction in ("teacher_ref", "student_ref"):
        nodes[f"loss_kd/{direction}"] = loss_kd(clf, clf, x, direction=direction)
    for op, node in nodes.items():
        assert not node.requires_grad, op
        assert node._backward is None and node._parents == (), op


def test_gradcheck_compares_float64_gradients(monkeypatch):
    seen = []

    def recording(a, b, floor=1e-8):
        seen.append(({n: a[n].dtype for n in a}, {n: b[n].dtype for n in b}))
        return max_relative_error(a, b, floor=floor)

    monkeypatch.setattr(gradcheck, "max_relative_error", recording)
    ps = ParamSet({"w": np.array([0.7, -0.4], dtype=np.float32), "b": np.array([[0.1]], dtype=np.float32)})
    report = finite_difference_check(lambda p: graph_forms.tsum(graph_forms.square(T.add(p["w"], p["b"]))), ps)
    assert report.passed
    (analytic, numeric), = seen
    assert analytic == {"b": np.float64, "w": np.float64}
    assert numeric == {"b": np.float64, "w": np.float64}
