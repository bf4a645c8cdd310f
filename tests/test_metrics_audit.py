import json
import tracemalloc

import numpy as np
import pytest

from dddr import experiment
from dddr.audit import PSNR_CAP_DB, SSIM_C1, SSIM_C2, PairReport, psnr, similarity_audit, ssim
from dddr.config import parse_config
from dddr.corpus import Corpus, dump_corpus, quantize01
from dddr.classifier import ClassifierDims, init_classifier
from dddr.metrics import (
    AccuracyMatrix,
    MetricsReport,
    accuracy_curve,
    average_accuracy,
    evaluate_global,
    forgetting_measure,
    local_client_eval,
)
from dddr.params import ParamSet
from dddr.replay import ReplayCache, save_cache
from dddr.rng import stream


def constant_predictor(n_classes: int, winner: int, input_dim: int = 16) -> ParamSet:
    dims = ClassifierDims(input_dim=input_dim, n_classes=n_classes, hidden=4, feature_dim=4)
    params = init_classifier(dims, seed=0, include_projection=False)
    bias = np.full(n_classes, -10.0, dtype=np.float32)
    bias[winner] = 10.0
    return ParamSet({k: (bias if k == "head.b" else np.zeros_like(v)) for k, v in params.items()})


def brute_force_metrics(values: np.ndarray) -> tuple[float, float]:
    # direct transcription of the definitions, independent of the library
    n_tasks, n_classes = values.shape
    final = values[-1]
    acc = sum(final) / n_classes
    drops = []
    for c in range(n_classes):
        defined = [values[t, c] for t in range(n_tasks) if np.isfinite(values[t, c])]
        drops.append(max(defined) - final[c])
    return acc, sum(drops) / n_classes


def random_matrix(seed: int, n_tasks: int, n_classes: int) -> AccuracyMatrix:
    r = stream(seed, "matrix")
    intro = {c: int(r.integers(0, n_tasks)) for c in range(n_classes)}
    m = AccuracyMatrix(n_tasks, n_classes)
    for c in range(n_classes):
        for t in range(intro[c], n_tasks):
            m.set(t, c, float(r.uniform(0, 1)))
    return m


def test_metric_oracles_on_random_matrices():
    for seed in range(100):
        m = random_matrix(seed, n_tasks=3, n_classes=6)
        acc, fm = brute_force_metrics(m.values)
        assert average_accuracy(m) == pytest.approx(acc, abs=1e-12)
        assert forgetting_measure(m) == pytest.approx(fm, abs=1e-12)


def test_average_accuracy_hand_values():
    m = AccuracyMatrix(1, 2)
    m.set(0, 0, 0.8)
    m.set(0, 1, 0.4)
    assert average_accuracy(m) == pytest.approx(0.6)


def test_forgetting_hand_values():
    m = AccuracyMatrix(2, 1)
    m.set(0, 0, 0.9)
    m.set(1, 0, 0.5)
    assert forgetting_measure(m) == pytest.approx(0.4)


def test_forgetting_zero_when_monotone():
    m = AccuracyMatrix(3, 2)
    for t, (a, b) in enumerate([(0.2, 0.3), (0.5, 0.6), (0.7, 0.9)]):
        m.set(t, 0, a)
        m.set(t, 1, b)
    assert forgetting_measure(m) == pytest.approx(0.0)


def test_final_task_classes_contribute_zero_forgetting():
    m = AccuracyMatrix(2, 2)
    m.set(0, 0, 1.0)
    m.set(1, 0, 1.0)
    m.set(1, 1, 0.3)  # introduced at the final task: no earlier peak
    assert forgetting_measure(m) == pytest.approx(0.0)


def test_metrics_error_on_incomplete_final_row():
    m = AccuracyMatrix(2, 2)
    m.set(1, 0, 0.5)
    with pytest.raises(ValueError, match="classes \\[1\\]"):
        average_accuracy(m)
    with pytest.raises(ValueError):
        forgetting_measure(m)


def test_evaluate_global_constant_predictor():
    params = constant_predictor(4, winner=0)
    r = stream(1, "eval")
    images = r.uniform(0, 1, (40, 1, 4, 4)).astype(np.float32)
    labels = np.repeat(np.arange(4), 10)
    row = evaluate_global(params, images, labels, seen_classes=[0, 1, 2, 3])
    assert row[0] == 1.0
    assert row[1] == row[2] == row[3] == 0.0


def test_evaluate_global_random_logits_near_chance():
    # pass-through weights turn the first four (i.i.d. uniform) pixels into
    # the logits, so the argmax is uniformly random per sample
    dims = ClassifierDims(input_dim=64, n_classes=4, hidden=8, feature_dim=4)
    base = init_classifier(dims, seed=0, include_projection=False)
    w1 = np.zeros((64, 8), np.float32)
    w1[:4, :4] = np.eye(4)
    w2 = np.zeros((8, 4), np.float32)
    w2[:4, :4] = np.eye(4)
    head = np.eye(4, dtype=np.float32)
    params = ParamSet(
        {
            "fe.w1": w1, "fe.b1": np.zeros(8, np.float32),
            "fe.w2": w2, "fe.b2": np.zeros(4, np.float32),
            "head.w": head, "head.b": np.zeros(4, np.float32),
        }
    )
    assert params.names() == base.names()
    r = stream(2, "eval-mc")
    images = r.uniform(0, 1, (1000, 1, 8, 8)).astype(np.float32)
    labels = r.integers(0, 4, 1000)
    row = evaluate_global(params, images, labels, seen_classes=[0, 1, 2, 3])
    for c in range(4):
        assert abs(row[c] - 0.25) <= 0.05


def test_evaluate_global_missing_class_errors():
    params = constant_predictor(3, winner=1)
    images = np.zeros((2, 1, 4, 4), np.float32)
    with pytest.raises(ValueError, match="class 2"):
        evaluate_global(params, images, np.array([0, 1]), seen_classes=[0, 1, 2])


def test_local_client_eval_degenerate_and_arithmetic():
    params = constant_predictor(2, winner=0)
    r = stream(3, "local")
    imgs = r.uniform(0, 1, (10, 1, 4, 4)).astype(np.float32)
    shard_a = (imgs, np.array([0] * 4 + [1] * 6))  # accuracy 0.4
    shard_b = (imgs, np.array([0] * 6 + [1] * 4))  # accuracy 0.6
    out = local_client_eval(params, [shard_a, shard_b])
    assert out["mean"] == pytest.approx(0.5)
    assert out["std"] == pytest.approx(0.1)
    same = local_client_eval(params, [shard_a, shard_a])
    assert same["std"] == pytest.approx(0.0)


def test_local_client_eval_skips_empty_shard():
    params = constant_predictor(2, winner=0)
    imgs = stream(4, "l2").uniform(0, 1, (4, 1, 4, 4)).astype(np.float32)
    with pytest.warns(UserWarning, match="client 0"):
        out = local_client_eval(params, [(np.zeros((0, 1, 4, 4), np.float32), np.zeros(0, np.int64)),
                                         (imgs, np.zeros(4, np.int64))])
    assert out["skipped"] == [0]


def test_accuracy_curve_over_seen_classes():
    m = AccuracyMatrix(2, 4)
    m.set(0, 0, 1.0)
    m.set(0, 1, 0.5)
    for c, v in enumerate([0.5, 0.5, 1.0, 1.0]):
        m.set(1, c, v)
    assert accuracy_curve(m) == [0.75, 0.75]


def test_metrics_report_json_round_trip():
    report = MetricsReport(
        method="dddr", seed=3, average_accuracy=0.5, forgetting_measure=0.25,
        curve=[0.9, 0.5], matrix_rows=[(0, 0, 0.9), (1, 0, 0.5)], n_tasks=2, n_classes=1,
        local_eval={"mean": 0.5, "std": 0.0, "per_client": [0.5], "skipped": []},
    )
    text = report.to_json()
    back = MetricsReport.from_json(text)
    assert back.to_json() == text
    assert "task,class,accuracy" in report.accuracy_csv()


def test_psnr_identity_and_formula():
    img = stream(5, "psnr").uniform(0, 1, (1, 8, 8)).astype(np.float32)
    assert psnr(img, img) == PSNR_CAP_DB
    a = np.zeros((1, 8, 8), np.float32)
    b = np.full((1, 8, 8), 0.5, np.float32)
    assert psnr(a, b) == pytest.approx(10 * np.log10(1 / 0.25), abs=1e-6)


def test_ssim_identity_is_one():
    img = stream(6, "ssim").uniform(0, 1, (1, 8, 8)).astype(np.float32)
    assert ssim(img, img) == pytest.approx(1.0, abs=1e-9)


def test_similarity_audit_finds_planted_pair():
    r = stream(7, "audit")
    real = r.uniform(0, 1, (5, 1, 8, 8)).astype(np.float32)
    gen = r.uniform(0, 1, (4, 1, 8, 8)).astype(np.float32)
    gen[2] = real[3] + 0.01  # plant a near-duplicate
    reports = similarity_audit([(0, real, np.clip(gen, 0, 1))])
    assert reports[0].psnr_pair == (3, 2)
    assert reports[0].best_psnr > 30
    assert reports[0].ssim_pair == (3, 2)


def test_similarity_audit_shape_mismatch():
    with pytest.raises(ValueError, match="shapes differ"):
        similarity_audit([(0, np.zeros((1, 1, 8, 8), np.float32), np.zeros((1, 1, 4, 4), np.float32))])


def all_classes_audit(real_by_class, generated_by_class) -> list[PairReport]:
    """The audit as it was before it scored one class at a time: every class's images up front."""
    reports = []
    for c in sorted(set(real_by_class) & set(generated_by_class)):
        r = real_by_class[c].reshape(real_by_class[c].shape[0], -1).astype(np.float64)
        g = generated_by_class[c].reshape(generated_by_class[c].shape[0], -1).astype(np.float64)
        cross = r @ g.T / r.shape[1]
        mse = np.maximum(np.mean(r * r, axis=1)[:, None] + np.mean(g * g, axis=1)[None, :] - 2 * cross, 0.0)
        mu_r, mu_g = r.mean(axis=1)[:, None], g.mean(axis=1)[None, :]
        var_r, var_g = r.var(axis=1)[:, None], g.var(axis=1)[None, :]
        ssim_matrix = ((2 * mu_r * mu_g + SSIM_C1) * (2 * (cross - mu_r * mu_g) + SSIM_C2)) / (
            (mu_r**2 + mu_g**2 + SSIM_C1) * (var_r + var_g + SSIM_C2)
        )
        with np.errstate(divide="ignore"):
            psnr_matrix = np.where(mse == 0.0, PSNR_CAP_DB,
                                   np.minimum(PSNR_CAP_DB, 10.0 * np.log10(1.0 / np.maximum(mse, 1e-300))))
        pi = np.unravel_index(np.argmax(psnr_matrix), psnr_matrix.shape)
        si = np.unravel_index(np.argmax(ssim_matrix), ssim_matrix.shape)
        reports.append(PairReport(int(c), float(psnr_matrix[pi]), (int(pi[0]), int(pi[1])),
                                  float(ssim_matrix[si]), (int(si[0]), int(si[1]))))
    return reports


def test_per_class_audit_equals_the_all_classes_form_bit_for_bit():
    r = stream(8, "audit-identity")
    real = {c: quantize01(r.uniform(0, 1, (6 + c, 1, 8, 8))) for c in range(4)}
    gen = {c: quantize01(r.uniform(0, 1, (5, 1, 8, 8))) for c in (0, 1, 3, 7)}
    gen[1][2] = gen[1][4] = real[1][3]  # two exact copies: capped PSNR and SSIM 1 tie on two pairs
    gen[3][:] = gen[3][0]  # five equal images: every row of the matrices ties
    expected = all_classes_audit(real, gen)
    assert [e.class_index for e in expected] == [0, 1, 3]
    assert expected[1].best_psnr == PSNR_CAP_DB and expected[1].psnr_pair == (3, 2)
    got = similarity_audit((c, real[c], gen[c]) for c in sorted(set(real) & set(gen)))
    assert got == expected


def test_stage_audit_holds_one_class_at_a_time(tmp_path, monkeypatch):
    # above what the corpus and the caches take once loaded, the audit's traced
    # peak stays below one full copy of every class's real and generated images
    r = stream(9, "audit-peak")
    n_classes, real_per_class, gen_per_class = 16, 24, 12
    labels = np.repeat(np.arange(n_classes), real_per_class)
    corpus = Corpus(quantize01(r.uniform(0, 1, (labels.size, 1, 16, 16))), labels)
    paths = experiment.RunPaths(root=tmp_path / "run")
    dump_corpus(corpus, paths.client_corpus_dir)
    caches = [ReplayCache({c: quantize01(r.uniform(0, 1, (gen_per_class, 1, 16, 16))) for c in classes}, seed=3)
              for classes in (range(0, 8), range(0, 8), range(8, 16))]
    for (task, which), cache in zip([(0, "current"), (1, "past"), (1, "current")], caches):
        save_cache(cache, paths.replay_dir(task, which))
    copies = corpus.images.nbytes + sum(v.nbytes for cache in caches for v in cache.by_class.values())

    load_cache = experiment.load_cache
    loaded = []

    def loading(directory):
        cache = load_cache(directory)
        loaded.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()  # the peak that counts is the one after the last load
        return cache

    monkeypatch.setattr(experiment, "load_cache", loading)
    corpus.classes()  # numpy imports numpy.ma on the first np.unique; that import is not the audit's
    tracemalloc.start()
    try:
        payload = experiment.stage_audit(parse_config(None, []), paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(loaded) == 3 and peak - loaded[-1] < copies

    real = {c: corpus.images[labels == c] for c in range(n_classes)}
    gen = {c: np.concatenate([cache.by_class[c] for cache in caches if c in cache.by_class]) for c in range(n_classes)}
    expected = [{"class": e.class_index, "best_psnr": e.best_psnr, "psnr_pair": list(e.psnr_pair),
                 "best_ssim": e.best_ssim, "ssim_pair": list(e.ssim_pair)} for e in all_classes_audit(real, gen)]
    assert payload == expected
    assert json.loads(paths.audit_json.read_text()) == expected
