import math

import numpy as np
import pytest

from dddr import classifier
from dddr.classifier import (
    AllAnchorsSkipped,
    ClassifierDims,
    LossWeights,
    consolidate_ewc,
    ewc_penalty,
    fisher_estimate,
    init_classifier,
    logits,
    loss_ce,
    loss_kd,
    loss_pce,
    loss_scl,
    make_snapshot,
    predict,
    total_objective,
)
from dddr.gradcheck import finite_difference_check
from dddr.params import ParamSet, params_checksum
from dddr.rng import stream
from dddr.tensor import (
    DegenerateInput,
    NonFiniteValue,
    Tensor,
    as_leaves,
    constant,
    evaluate_with_gradients,
    mul,
    param_leaves,
    square,
    tsum,
)


DIMS = ClassifierDims(input_dim=8, n_classes=5, hidden=6, feature_dim=4, proj_hidden=4, proj_dim=3)


@pytest.fixture()
def params():
    return init_classifier(DIMS, seed=21)


@pytest.fixture()
def fd_params(params):
    # zero-init biases park relu pre-activations exactly on the kink, where
    # one-sided finite differences lie; jitter every tensor off it
    r = stream(50, "fd-jitter")
    return ParamSet({k: v + r.normal(0, 0.3, v.shape).astype(np.float32) for k, v in params.items()})


def batch(seed: int, n: int, labels=None):
    r = stream(seed, "batch")
    x = r.uniform(0, 1, (n, DIMS.input_dim)).astype(np.float32)
    y = np.asarray(labels if labels is not None else r.integers(0, DIMS.n_classes, n), dtype=np.int64)
    return x, y


# independent plain-numpy forward pass used by the scalar oracles
def np_forward(params, x):
    h = np.maximum(x @ params["fe.w1"] + params["fe.b1"], 0.0)
    feats = np.maximum(h @ params["fe.w2"] + params["fe.b2"], 0.0)
    return feats, feats @ params["head.w"] + params["head.b"]


def np_project(params, feats):
    h = np.maximum(feats @ params["proj.w1"] + params["proj.b1"], 0.0)
    z = h @ params["proj.w2"] + params["proj.b2"]
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def scalar_ce(logit_rows, labels):
    total = 0.0
    for row, y in zip(logit_rows, labels):
        m = max(row)
        lse = m + math.log(sum(math.exp(v - m) for v in row))
        total += lse - row[y]
    return total / len(labels)


def scalar_supcon(z, labels, tau):
    n = len(labels)
    anchor_losses = []
    for i in range(n):
        positives = [p for p in range(n) if p != i and labels[p] == labels[i]]
        if not positives:
            continue
        denom = sum(math.exp(float(np.dot(z[i], z[j])) / tau) for j in range(n) if j != i)
        per_pos = [-math.log(math.exp(float(np.dot(z[i], z[p])) / tau) / denom) for p in positives]
        anchor_losses.append(sum(per_pos) / len(per_pos))
    return sum(anchor_losses) / len(anchor_losses)


def scalar_kl(teacher_logits, student_logits):
    total = 0.0
    for trow, srow in zip(teacher_logits, student_logits):
        tm, sm = max(trow), max(srow)
        tz = sum(math.exp(v - tm) for v in trow)
        sz = sum(math.exp(v - sm) for v in srow)
        for tv, sv in zip(trow, srow):
            pt = math.exp(tv - tm) / tz
            total += pt * (math.log(pt) - ((sv - sm) - math.log(sz)))
    return total / len(teacher_logits)


def test_ce_limit_perfect_prediction():
    # crafted head bias puts probability ~1 on class 3 for every input
    confident = init_classifier(DIMS, seed=0)
    bias = np.full(DIMS.n_classes, -40.0, dtype=np.float32)
    bias[3] = 40.0
    confident = ParamSet(
        {k: (bias if k == "head.b" else np.zeros_like(v)) for k, v in confident.items()}
    )
    x, _ = batch(1, 4)
    y = np.full(4, 3, dtype=np.int64)
    assert loss_ce(confident, x, y).item() == pytest.approx(0.0, abs=1e-6)


def test_ce_uniform_logits_is_log_c():
    zeroed = ParamSet({k: np.zeros_like(v) for k, v in init_classifier(DIMS, seed=0).items()})
    x, y = batch(2, 6)
    assert loss_ce(zeroed, x, y).item() == pytest.approx(math.log(DIMS.n_classes), abs=1e-6)


def test_ce_matches_scalar_oracle(params):
    x, y = batch(3, 4)
    _, logit_rows = np_forward(params, x)
    expected = scalar_ce(logit_rows.tolist(), y.tolist())
    assert loss_ce(params, x, y).item() == pytest.approx(expected, abs=1e-5)


def test_ce_rejects_out_of_range_labels(params):
    x, _ = batch(4, 2)
    with pytest.raises(ValueError, match="labels"):
        loss_ce(params, x, np.array([0, DIMS.n_classes]))


def test_pce_empty_batch_is_zero(params):
    out = loss_pce(params, np.zeros((0, DIMS.input_dim), np.float32), np.zeros(0, np.int64))
    assert out.item() == 0.0


def test_pce_matches_scalar_oracle(params):
    x, y = batch(5, 3)
    _, logit_rows = np_forward(params, x)
    assert loss_pce(params, x, y).item() == pytest.approx(scalar_ce(logit_rows.tolist(), y.tolist()), abs=1e-5)


def test_scl_two_identical_samples_zero_loss(params):
    x0 = batch(6, 1)[0]
    x = np.concatenate([x0, x0])
    y = np.array([2, 2])
    assert loss_scl(params, x, y, tau=1.0).item() == pytest.approx(0.0, abs=1e-7)


def test_scl_matches_scalar_oracle(params):
    x, y = batch(7, 4, labels=[0, 0, 1, 1])
    feats, _ = np_forward(params, x)
    z = np_project(params, feats)
    expected = scalar_supcon(z, y.tolist(), tau=0.07)
    assert loss_scl(params, x, y, tau=0.07).item() == pytest.approx(expected, rel=1e-5)


def test_scl_invariant_to_projection_scaling(params):
    x, y = batch(8, 6, labels=[0, 0, 1, 1, 2, 2])
    base = loss_scl(params, x, y, tau=0.07).item()
    scaled = params.replace(
        **{"proj.w2": params["proj.w2"] * 3.7, "proj.b2": params["proj.b2"] * 3.7}
    )
    assert loss_scl(scaled, x, y, tau=0.07).item() == pytest.approx(base, rel=1e-4)


def test_scl_invariant_to_batch_permutation(fd_params):
    x, y = batch(9, 5, labels=[0, 1, 0, 1, 1])
    perm = np.array([3, 0, 4, 1, 2])
    a = loss_scl(fd_params, x, y, tau=0.07).item()
    b = loss_scl(fd_params, x[perm], y[perm], tau=0.07).item()
    assert a == pytest.approx(b, rel=1e-5)


def test_scl_all_distinct_labels_signal(params):
    x, y = batch(10, 3, labels=[0, 1, 2])
    with pytest.raises(AllAnchorsSkipped):
        loss_scl(params, x, y)


def test_scl_anchors_without_positive_are_skipped(params):
    # labels (a, a, b): the lone b sample must not contribute
    x, y = batch(11, 3, labels=[0, 0, 1])
    feats, _ = np_forward(params, x)
    z = np_project(params, feats)
    expected = scalar_supcon(z, y.tolist(), tau=0.07)
    assert loss_scl(params, x, y, tau=0.07).item() == pytest.approx(expected, rel=1e-5)


def test_kd_identical_models_zero(params):
    x, _ = batch(12, 5)
    snap = make_snapshot(params, task_index=0)
    assert loss_kd(params, snap.params, x).item() == pytest.approx(0.0, abs=1e-6)


def test_kd_matches_scalar_oracle(params):
    x, _ = batch(13, 4)
    teacher = init_classifier(DIMS, seed=77)
    _, t_logits = np_forward(teacher, x)
    _, s_logits = np_forward(params, x)
    expected = scalar_kl(t_logits.tolist(), s_logits.tolist())
    assert loss_kd(params, teacher, x).item() == pytest.approx(expected, rel=1e-5)


def test_kd_uniform_teacher_oracle(params):
    x, _ = batch(14, 3)
    uniform_teacher = ParamSet({k: np.zeros_like(v) for k, v in params.items()})
    _, s_logits = np_forward(params, x)
    expected = scalar_kl(np.zeros_like(s_logits).tolist(), s_logits.tolist())
    assert loss_kd(params, uniform_teacher, x).item() == pytest.approx(expected, rel=1e-5)


def test_kd_empty_batch_contributes_zero(params):
    snap = make_snapshot(params, task_index=0)
    out = loss_kd(params, snap.params, np.zeros((0, DIMS.input_dim), np.float32))
    assert out.item() == 0.0


def test_kd_student_ref_direction_nonnegative(params):
    x, _ = batch(15, 4)
    teacher = init_classifier(DIMS, seed=99)
    assert loss_kd(params, teacher, x, direction="student_ref").item() > 0.0
    with pytest.raises(ValueError):
        loss_kd(params, teacher, x, direction="sideways")


def test_total_objective_arithmetic():
    w = LossWeights()
    assert total_objective((1.0, 1.0, 1.0, 1.0), w) == pytest.approx(12.5)
    assert total_objective((0.7, 9.0, 9.0, 9.0), LossWeights(0, 0, 0)) == pytest.approx(0.7)


def test_total_objective_gradient_linearity(fd_params):
    x, y = batch(16, 4, labels=[0, 0, 1, 1])
    px, py = batch(17, 3)
    teacher = init_classifier(DIMS, seed=55)
    w = LossWeights(w1=0.8, w2=0.5, w3=2.0)

    def combined(p):
        return total_objective(
            (loss_ce(p, x, y), loss_scl(p, x, y, tau=0.1), loss_pce(p, px, py), loss_kd(p, teacher, px)), w
        )

    master = fd_params.astype(np.float64)
    _, g_all = evaluate_with_gradients(combined, master, dtype=np.float64)
    parts = []
    for fn, weight in [
        (lambda p: loss_ce(p, x, y), 1.0),
        (lambda p: loss_scl(p, x, y, tau=0.1), w.w1),
        (lambda p: loss_pce(p, px, py), w.w2),
        (lambda p: loss_kd(p, teacher, px), w.w3),
    ]:
        _, g = evaluate_with_gradients(fn, master, dtype=np.float64)
        parts.append((g, weight))
    for name in fd_params:
        linear = sum(weight * g[name].astype(np.float64) for g, weight in parts)
        assert np.allclose(g_all[name], linear, atol=1e-5), name


@pytest.mark.parametrize(
    "loss_name",
    ["ce", "scl", "pce", "kd", "total", "ewc"],
)
def test_losses_match_finite_differences(fd_params, loss_name):
    x, y = batch(18, 4, labels=[0, 0, 1, 2])
    px, py = batch(19, 3)
    teacher = init_classifier(DIMS, seed=42)
    anchor = init_classifier(DIMS, seed=43)
    fisher = ParamSet({k: np.abs(v) for k, v in init_classifier(DIMS, seed=44).items()})
    w = LossWeights(w1=0.5, w2=0.5, w3=1.0)
    fns = {
        "ce": lambda p: loss_ce(p, x, y),
        "scl": lambda p: loss_scl(p, x, y, tau=0.1),
        "pce": lambda p: loss_pce(p, px, py),
        "kd": lambda p: loss_kd(p, teacher, px),
        "total": lambda p: total_objective(
            (loss_ce(p, x, y), loss_scl(p, x, y, tau=0.1), loss_pce(p, px, py), loss_kd(p, teacher, px)), w
        ),
        "ewc": lambda p: ewc_penalty(p, anchor, fisher, lam=2.5),
    }
    report = finite_difference_check(fns[loss_name], fd_params, tolerance=1e-3)
    assert report.passed, (loss_name, report.worst())


def test_ewc_zero_at_anchor(params):
    fisher = ParamSet({k: np.ones_like(v) for k, v in params.items()})
    assert ewc_penalty(params, params, fisher, lam=3.0).item() == pytest.approx(0.0)


def test_ewc_hand_arithmetic():
    p = ParamSet({"w": np.array([2.0], np.float32)})
    anchor = ParamSet({"w": np.array([0.0], np.float32)})
    fisher = ParamSet({"w": np.array([1.0], np.float32)})
    assert ewc_penalty(p, anchor, fisher, lam=1.0).item() == pytest.approx(2.0)


def test_fisher_entries_nonnegative_and_zero_for_untouched(params):
    x, y = batch(20, 5)
    fisher = fisher_estimate(params, x, y)
    for name in fisher:
        assert (fisher[name] >= 0).all()
    # projection parameters never enter the likelihood
    assert np.array_equal(fisher["proj.w1"], np.zeros_like(fisher["proj.w1"]))


def test_fisher_matches_closed_form_mixture(params):
    # for head biases, grad log p(y) = onehot(y) - p, so the model-expected
    # fisher is p_c (1 - p_c); mix the empirical fishers of both labels
    x, _ = batch(21, 1)
    row = logits(params, x).data[0]
    p = np.exp(row - row.max())
    p = p / p.sum()
    mixed = np.zeros(DIMS.n_classes)
    for label in range(DIMS.n_classes):
        f = fisher_estimate(params, x, np.array([label]))
        mixed += p[label] * f["head.b"].astype(np.float64)
    closed = p * (1 - p)
    assert np.allclose(mixed, closed, atol=1e-4)


def test_snapshot_is_immutable_copy(params):
    snap = make_snapshot(params, task_index=1)
    before = snap.checksum
    mutated = params.replace(**{"head.b": params["head.b"] + 1.0})
    assert params_checksum(snap.params) == before
    assert snap.task_index == 1
    assert params_checksum(mutated) != before


def test_predict_ties_break_low_index():
    zeroed = ParamSet({k: np.zeros_like(v) for k, v in init_classifier(DIMS, seed=0).items()})
    x, _ = batch(22, 3)
    assert predict(zeroed, x).tolist() == [0, 0, 0]


def fisher_per_sample(params, images, labels, n_samples):
    """Reference: one graph per row, float32 gradients squared and averaged in float64."""
    count = min(n_samples, labels.size)
    flat = np.asarray(images, np.float32).reshape(images.shape[0], -1)
    acc = {name: np.zeros(params[name].shape) for name in params}
    for i in range(count):
        _, grads = evaluate_with_gradients(lambda p, i=i: loss_ce(p, flat[i : i + 1], labels[i : i + 1]), params)
        for name in params:
            acc[name] += grads[name].astype(np.float64) ** 2
    return {name: acc[name] / count for name in params}


def test_fisher_one_pass_matches_per_sample_loop(fd_params):
    r = stream(51, "fisher-images")
    images = r.uniform(0, 1, (9, 2, 2, 2)).astype(np.float32)
    labels = r.integers(0, DIMS.n_classes, 9)
    fisher = fisher_estimate(fd_params, images, labels, n_samples=6)
    reference = fisher_per_sample(fd_params, images, labels, n_samples=6)
    assert fisher.names() == fd_params.names()
    for name in fisher:
        if name.startswith("proj."):
            assert not fisher[name].any(), name
            continue
        scale = float(reference[name].max())
        assert scale > 0, name
        assert np.allclose(fisher[name], reference[name], rtol=1e-5, atol=1e-6 * scale), name


def test_consolidated_ewc_equals_sum_of_task_penalties(fd_params):
    r = stream(52, "ewc-pairs")
    pairs = []
    for _ in range(3):
        anchor = ParamSet({k: r.normal(0, 0.5, v.shape) for k, v in fd_params.items()})
        fisher = {k: np.abs(r.normal(0, 1.0, v.shape)) for k, v in fd_params.items()}
        fisher["fe.b1"][:2] = 0.0  # entries no task constrains
        pairs.append((anchor, ParamSet(fisher)))
    lam = 2.5
    anchor, fisher, offset = consolidate_ewc(pairs)
    assert not fisher["fe.b1"][:2].any() and not anchor["fe.b1"][:2].any()

    def summed(p):
        total = ewc_penalty(p, pairs[0][0], pairs[0][1], lam)
        for a, f in pairs[1:]:
            total = total + ewc_penalty(p, a, f, lam)
        return total

    value_sum, grads_sum = evaluate_with_gradients(summed, fd_params)
    value_one, grads_one = evaluate_with_gradients(lambda p: ewc_penalty(p, anchor, fisher, lam), fd_params)
    assert value_one + 0.5 * lam * offset == pytest.approx(value_sum, rel=1e-5)
    for name in fd_params:
        scale = float(np.abs(grads_sum[name]).max())
        assert np.allclose(grads_one[name], grads_sum[name], rtol=1e-5, atol=1e-6 * scale), name


def ewc_penalty_graph(params, anchor, fisher, lam):
    """Reference: the penalty built from engine kernels, one sub-graph per parameter name."""
    p = as_leaves(params)
    total = constant(0.0)
    for name in anchor:
        if name not in p:
            continue
        diff = p[name] - constant(anchor[name])
        total = total + tsum(mul(constant(fisher[name]), square(diff)))
    return mul(total, 0.5 * lam)


def value_and_leaf_grads(penalty, params, dtype, with_ce):
    leaves = param_leaves(params, dtype=dtype)
    loss = penalty(leaves)
    if with_ce:
        x, y = batch(54, 6)
        loss = loss_ce(leaves, x, y) + loss
    loss.backward()
    return loss.data, {name: leaf.grad for name, leaf in leaves.items()}


@pytest.mark.parametrize("with_ce", [False, True], ids=["alone", "after-ce"])
@pytest.mark.parametrize("form", ["per-task", "consolidated"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ewc_one_node_matches_graph_form_bit_for_bit(fd_params, dtype, form, with_ce):
    r = stream(53, "ewc-bits")
    # "proj.b2" has a penalty but no leaf; "proj.w2" has a leaf but no penalty
    names = [k for k in fd_params if k != "proj.w2"]
    pairs = [
        (ParamSet({k: r.normal(0, 0.5, fd_params[k].shape) for k in names}),
         ParamSet({k: np.abs(r.normal(0, 1.0, fd_params[k].shape)) for k in names}))
        for _ in range(2)
    ]
    anchor, fisher = pairs[0]
    ref_anchor, ref_fisher = anchor, fisher
    if form == "consolidated":
        anchor, fisher, _ = consolidate_ewc(pairs)
        ref_anchor, ref_fisher = ParamSet(anchor), ParamSet(fisher)
    params = {k: v for k, v in fd_params.items() if k != "proj.b2"}
    if dtype == np.float64:
        # off the float32 grid, like gradcheck's perturbed copies
        params = {k: v + r.normal(0, 1e-3, v.shape) for k, v in params.items()}
    value, grads = value_and_leaf_grads(lambda p: ewc_penalty(p, anchor, fisher, 2.5), params, dtype, with_ce)
    ref_value, ref_grads = value_and_leaf_grads(
        lambda p: ewc_penalty_graph(p, ref_anchor, ref_fisher, 2.5), params, dtype, with_ce
    )
    assert value.dtype == ref_value.dtype == np.float64
    assert np.array_equal(value, ref_value)
    for name in params:
        if ref_grads[name] is None:
            assert grads[name] is None, name
            continue
        assert grads[name].dtype == ref_grads[name].dtype == dtype, name
        assert np.array_equal(grads[name], ref_grads[name]), name


# -- the loss nodes against the kernel graphs they replaced -------------------

def objective(losses, ewc_fn, leaves, batches, teacher, direction, ewc):
    """The client objective as `local_train_client` builds it, from `losses`' four terms."""
    x, y, px, py = batches
    terms = [losses.loss_ce(leaves, x, y), 0.0, 0.0, 0.0]
    try:
        terms[1] = losses.loss_scl(leaves, x, y, tau=0.07)
    except AllAnchorsSkipped:
        pass
    terms[2] = losses.loss_pce(leaves, px, py)
    terms[3] = losses.loss_kd(leaves, teacher, px, 1.0, direction)
    total = total_objective(terms, LossWeights(w1=1.0, w2=0.5, w3=10.0))
    if ewc is not None:
        total = total + ewc_fn(leaves, *ewc)
    return [t for t in terms if isinstance(t, Tensor)], total


def terms_and_leaf_grads(losses, ewc_fn, params, dtype, *args):
    leaves = param_leaves(params, dtype=dtype)
    terms, total = objective(losses, ewc_fn, leaves, *args)
    total.backward()
    return [t.data for t in terms] + [total.data], {name: leaf.grad for name, leaf in leaves.items()}


def assert_same_bits(node, graph):
    (values, grads), (ref_values, ref_grads) = node, graph
    assert len(values) == len(ref_values)
    for value, ref in zip(values, ref_values):
        assert value.dtype == ref.dtype and np.array_equal(value, ref), (value, ref)
    assert sorted(grads) == sorted(ref_grads)
    for name, ref in ref_grads.items():
        if ref is None:
            assert grads[name] is None, name
            continue
        assert grads[name].dtype == ref.dtype, name
        assert np.array_equal(grads[name], ref), name


def trained_like(dims, seed):
    # nonzero biases, so every relu and bias gradient carries signal
    r = stream(seed, "trained-like-classifier")
    return ParamSet({k: v + r.normal(0, 0.05, v.shape).astype(np.float32) for k, v in init_classifier(dims, seed).items()})


WIDE = ClassifierDims(input_dim=64, n_classes=8, hidden=32, feature_dim=16, proj_hidden=16, proj_dim=8)
CASES = {
    "all-terms": dict(labels=[0, 0, 1, 1, 2, 2, 3, 5], past=6),
    "scl-skipped": dict(labels=[0, 1, 2, 3, 4, 5, 6, 7], past=6),
    "empty-pce": dict(labels=[0, 0, 1, 1, 2, 2, 3, 5], past=0),
}


@pytest.mark.parametrize("with_ewc", [False, True], ids=["no-ewc", "ewc"])
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("direction", ["teacher_ref", "student_ref"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_loss_nodes_match_graph_forms_bit_for_bit(dtype, direction, case, with_ewc):
    from tests import graph_forms

    r = stream(60, "node-vs-graph", case)
    params = trained_like(WIDE, seed=61)
    teacher = trained_like(WIDE, seed=62)
    if dtype == np.float64:
        # off the float32 grid, like gradcheck's perturbed copies
        params = {k: v + r.normal(0, 1e-3, v.shape) for k, v in params.items()}
    labels = np.asarray(CASES[case]["labels"])
    x = r.uniform(0, 1, (labels.size, WIDE.input_dim)).astype(np.float32)
    n_past = CASES[case]["past"]
    px = r.uniform(0, 1, (n_past, WIDE.input_dim)).astype(np.float32)
    py = r.integers(0, WIDE.n_classes, n_past)
    ewc = None
    if with_ewc:
        pairs = [(trained_like(WIDE, seed=63 + k), ParamSet({n: np.abs(v) for n, v in trained_like(WIDE, 65 + k).items()}))
                 for k in range(2)]
        ewc = (*consolidate_ewc(pairs)[:2], 2.5)
    args = ((x, labels, px, py), teacher, direction, ewc)
    node = terms_and_leaf_grads(classifier, ewc_penalty, params, dtype, *args)
    graph = terms_and_leaf_grads(graph_forms, ewc_penalty_graph, params, dtype, *args)
    assert len(node[0]) == {"all-terms": 5, "scl-skipped": 4, "empty-pce": 5}[case]
    assert_same_bits(node, graph)


@pytest.mark.parametrize("direction", ["teacher_ref", "student_ref"])
def test_client_training_matches_graph_forms_bit_for_bit(monkeypatch, direction):
    from dddr import federation
    from tests import graph_forms

    dims = ClassifierDims(input_dim=16, n_classes=4, hidden=8, feature_dim=6, proj_hidden=6, proj_dim=4)
    r = stream(66, "client-node-vs-graph")
    params = trained_like(dims, seed=67)
    snapshot = make_snapshot(trained_like(dims, seed=68), task_index=0)
    shard = (r.uniform(0, 1, (20, 1, 4, 4)).astype(np.float32), r.integers(2, 4, 20))
    past = (r.uniform(0, 1, (12, 16)).astype(np.float32), r.integers(0, 2, 12))
    current = (r.uniform(0, 1, (10, 16)).astype(np.float32), r.integers(2, 4, 10))
    ewc = consolidate_ewc([(trained_like(dims, 69), ParamSet({n: np.abs(v) for n, v in trained_like(dims, 70).items()}))])
    cfg = federation.ClientTrainConfig(epochs=2, batch=8, kd_direction=direction, ewc_lambda=3.0)

    def train():
        return federation.local_train_client(0, params, shard, past, current, snapshot, ewc, cfg, stream(71, "steps"))

    node = train()
    for name in ("loss_ce", "loss_scl", "loss_pce", "loss_kd"):
        monkeypatch.setattr(federation, name, getattr(graph_forms, name))
    monkeypatch.setattr(federation, "ewc_penalty", ewc_penalty_graph)
    graph = train()
    assert node.steps == graph.steps > 4
    assert node.loss_means == graph.loss_means
    assert params_checksum(node.params) == params_checksum(graph.params)


def test_ewc_node_under_upstream_gradients_other_than_one_matches_graph_form(fd_params):
    r = stream(72, "ewc-upstream")
    anchor, fisher, _ = consolidate_ewc(
        [(ParamSet({k: r.normal(0, 0.5, v.shape) for k, v in fd_params.items()}),
          ParamSet({k: np.abs(r.normal(0, 1.0, v.shape)) for k, v in fd_params.items()}))]
    )
    for weight in (1.0, 0.3, 0.3, 1.0, 7.25):
        got, ref = [
            value_and_leaf_grads(lambda p, pen=pen: mul(pen(p, anchor, fisher, 2.5), weight), fd_params, np.float32, False)
            for pen in (ewc_penalty, lambda p, a, f, lam: ewc_penalty_graph(p, ParamSet(a), ParamSet(f), lam))
        ]
        assert np.array_equal(got[0], ref[0]), weight
        for name in fd_params:
            assert np.array_equal(got[1][name], ref[1][name]), (weight, name)


def overflowing(params, *names):
    # 100-valued biases times 1e38 weights overflow float32 in the named layers
    out = dict(params)
    for name in names:
        out[name] = np.full_like(out[name], 1e38 if ".w" in name else 100.0)
    return ParamSet(out)


@pytest.mark.parametrize(
    "node, kernel",
    [("loss_ce", "loss_ce.hidden2"), ("loss_pce", "loss_pce.hidden2"), ("loss_scl", "loss_scl.proj2"),
     ("loss_scl-tau", "loss_scl.similarities"), ("loss_kd", "loss_kd.logits"),
     ("loss_kd-teacher", "loss_kd.teacher.hidden2"), ("ewc_penalty", "ewc_penalty")],
)
def test_loss_node_overflow_names_node_and_layer(fd_params, node, kernel):
    params = fd_params
    x, y = batch(73, 4, labels=[0, 0, 1, 1])
    calls = {
        "loss_ce": lambda: loss_ce(overflowing(params, "fe.b1", "fe.w2"), x, y),
        "loss_pce": lambda: loss_pce(overflowing(params, "fe.b1", "fe.w2"), x, y),
        "loss_scl": lambda: loss_scl(overflowing(params, "proj.b1", "proj.w2"), x, y),
        "loss_scl-tau": lambda: loss_scl(params, x, y, tau=1e-320),
        "loss_kd": lambda: loss_kd(overflowing(params, "fe.b2", "head.w"), params, x),
        "loss_kd-teacher": lambda: loss_kd(params, overflowing(params, "fe.b1", "fe.w2"), x),
        "ewc_penalty": lambda: ewc_penalty(
            params, {k: v + 1.0 for k, v in params.items()}, {k: np.full(v.shape, 1e300) for k, v in params.items()}, 1e10
        ),
    }
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        with pytest.raises(NonFiniteValue) as exc:
            calls[node]()
    assert exc.value.kernel == kernel


def test_scl_zero_projected_feature_is_degenerate(fd_params):
    params = fd_params
    x, y = batch(74, 4, labels=[0, 0, 1, 1])
    zeroed = params.replace(**{"proj.w2": np.zeros_like(params["proj.w2"]), "proj.b2": np.zeros_like(params["proj.b2"])})
    with pytest.raises(DegenerateInput, match="loss_scl"):
        loss_scl(zeroed, x, y)
