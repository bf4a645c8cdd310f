"""Acceptance suite: one test per criterion, one printed verdict line each.

The expensive artifacts (pretrained generator, desk benchmark runs) are
built once per session and shared. Run with `pytest tests/test_acceptance.py -v -s`
to watch the verdict lines appear.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dddr.classifier import ClassifierDims, LossWeights, ewc_penalty, init_classifier, loss_ce, loss_kd, loss_pce, loss_scl, total_objective
from dddr.config import parse_config
from dddr.corpus import load_corpus
from dddr.diffusion import (
    ConditionVector,
    DiffusionDims,
    PretrainedDiffusion,
    build_schedule,
    draw_timesteps_and_noise,
    forward_diffuse,
    init_denoiser,
    ldm_loss,
    sample,
    time_embedding_table,
)
from dddr.experiment import RunPaths, prepare_run_dir, run_fccl, stage_eval, stage_train
from dddr.federation import ClientTrainConfig, aggregate_classifier, local_train_client
from dddr.gradcheck import finite_difference_check
from dddr.inversion import InversionConfig, aggregate_embeddings, federated_class_inversion
from dddr.metrics import MetricsReport, average_accuracy, forgetting_measure
from dddr.params import ParamSet
from dddr.rng import stream
from dddr.tasks import PartitionSpec, partition_class
from tests.oracle import train_oracle
from tests.test_experiment_cli import tree_bytes

ROOT = Path(__file__).resolve().parent.parent

ACCEPT_SEED = 42

DESK = [
    f"experiment.seed={ACCEPT_SEED}",
    "experiment.n_tasks=2",
    "data.classes=8",
    "federation.clients=3",
    "federation.partition=dirichlet",
    "federation.alpha=0.5",
    "training.rounds=15",
    "training.epochs=2",
]


VERDICT_LINES: list[str] = []


def verdict(criterion: int, ok: bool, detail: str) -> None:
    line = f"[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'}: {detail}"
    VERDICT_LINES.append(line)
    print(line, flush=True)
    assert ok, detail


# ---------------------------------------------------------------------------
# shared artifacts


@pytest.fixture(scope="session")
def desk_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def desk_rerun(desk_dir):
    """Criterion 10's rerun: `dddr run` of the desk DDDR config in a fresh interpreter.

    It starts before the in-process run of `desk_dddr`, so the two runs
    share the CPUs instead of running one after the other. At session end
    it is killed if it is still running, and reaped either way.
    """
    out = desk_dir / "dddr-rerun"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    args = ["run", "--out", str(out)] + [f"--set={s}" for s in DESK + ["experiment.method=dddr"]]
    with open(desk_dir / "dddr-rerun.log", "wb") as log:
        proc = subprocess.Popen([sys.executable, "-m", "dddr.cli", *args], env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            yield proc, out
        finally:
            proc.kill()  # a no-op once the run has ended
            proc.wait()


@pytest.fixture(scope="session")
def desk_dddr(desk_dir, desk_rerun):
    cfg = parse_config(None, DESK + ["experiment.method=dddr"])
    out = desk_dir / "dddr"
    report = run_fccl(cfg, out)
    return cfg, RunPaths(root=out), report


@pytest.fixture(scope="session")
def desk_finetune(desk_dir):
    cfg = parse_config(None, DESK + ["experiment.method=finetune"])
    out = desk_dir / "finetune"
    report = run_fccl(cfg, out)
    return cfg, RunPaths(root=out), report


@pytest.fixture(scope="session")
def desk_fedewc(desk_dir):
    cfg = parse_config(None, DESK + ["experiment.method=fedewc"])
    out = desk_dir / "fedewc"
    report = run_fccl(cfg, out)
    return cfg, RunPaths(root=out), report


@pytest.fixture(scope="session")
def diffusion_model(desk_dddr) -> PretrainedDiffusion:
    _, paths, _ = desk_dddr
    return PretrainedDiffusion.load(paths.diffusion_ckpt)


@pytest.fixture(scope="session")
def corpora(desk_dddr):
    _, paths, _ = desk_dddr
    return load_corpus(paths.client_corpus_dir), load_corpus(paths.pretrain_corpus_dir)


@pytest.fixture(scope="session")
def pretrain_oracle(corpora):
    _, pretrain_corpus = corpora
    return train_oracle(pretrain_corpus, seed=3, epochs=30)


@pytest.fixture(scope="session")
def client_oracle(corpora):
    client_corpus, _ = corpora
    return train_oracle(client_corpus, seed=3, epochs=30)


def run_heldout_inversion(client_corpus, model, sigma_g: float):
    """Criterion 4/9 protocol: 2 held-out classes, 3 clients, R=10 x 50 steps."""
    classes = [0, 5]
    spec = PartitionSpec(mode="dirichlet", alpha=0.5, clients=3, seed=ACCEPT_SEED + 1)
    shards = [dict() for _ in range(3)]
    for c in classes:
        for j, part in enumerate(partition_class(client_corpus.indices_of(c), spec, c)):
            shards[j][c] = client_corpus.images[part]
    table = {}
    cfg = InversionConfig(rounds=10, local_steps=50, lr=1e-2, sigma_g=sigma_g)
    federated_class_inversion(classes, shards, model, cfg, seed=ACCEPT_SEED + 2, table=table)
    return table, classes


def generation_rate(table, classes, model, oracle, per_class: int = 50) -> float:
    hits = total = 0
    for c in classes:
        cond = ConditionVector(model.prompt, table[c])
        flat = sample(model.params, [cond], per_class, model.sched, [stream(ACCEPT_SEED + 3, "gen", c)],
                      model.temb_table)
        images = flat.reshape((per_class,) + tuple(model.image_shape))
        hits += int(np.sum(oracle.classify(images) == c))
        total += per_class
    return hits / total


@pytest.fixture(scope="session")
def heldout_inversion_clean(corpora, diffusion_model, client_oracle):
    client_corpus, _ = corpora
    table, classes = run_heldout_inversion(client_corpus, diffusion_model, sigma_g=0.0)
    return generation_rate(table, classes, diffusion_model, client_oracle)


# ---------------------------------------------------------------------------
# 1. gradient suite


def relu_kink_margin(params: ParamSet, batches) -> float:
    """Smallest |relu pre-activation| across the given input batches.

    Central differences assume the loss is smooth inside the +-h interval;
    a pre-activation within h of the relu kink breaks that precondition,
    so instances are drawn subject to a margin on it (checked before any
    difference is taken).
    """
    margin = np.inf
    for x in batches:
        pre1 = x @ params["fe.w1"] + params["fe.b1"]
        h1 = np.maximum(pre1, 0.0)
        pre2 = h1 @ params["fe.w2"] + params["fe.b2"]
        feats = np.maximum(pre2, 0.0)
        pre3 = feats @ params["proj.w1"] + params["proj.b1"]
        margin = min(margin, np.abs(pre1).min(), np.abs(pre2).min(), np.abs(pre3).min())
    return float(margin)


def test_criterion_01_gradient_suite():
    dims = ClassifierDims(input_dim=8, n_classes=5, hidden=6, feature_dim=4, proj_hidden=4, proj_dim=3)
    ddims = DiffusionDims(latent_dim=6, embed_dim=3, time_dim=4, hidden=5)
    sched = build_schedule(6, 0.05, 0.3)
    temb = time_embedding_table(6, 4)
    weights = LossWeights()
    failures = []
    for seed in range(5):
        r = stream(seed, "accept-grad")
        x = r.uniform(0, 1, (4, 8)).astype(np.float32)
        y = np.array([0, 0, 1, 2])
        px = r.uniform(0, 1, (3, 8)).astype(np.float32)
        py = np.array([3, 4, 3])
        base = init_classifier(dims, seed=seed)
        for attempt in range(50):
            jit = stream(seed, "accept-grad-jitter", attempt)
            params = ParamSet(
                {k: v + jit.normal(0, 0.3, v.shape).astype(np.float32) for k, v in base.items()}
            )
            # a parameter step of h shifts pre-activations by up to roughly
            # h * |activation|, so the margin must exceed that cascade
            if relu_kink_margin(params, (x, px)) > 2e-2:
                break
        else:
            raise RuntimeError(f"seed {seed}: no smooth instance found")
        teacher = init_classifier(dims, seed=seed + 50)
        anchor = init_classifier(dims, seed=seed + 60)
        fisher = ParamSet({k: np.abs(v) for k, v in init_classifier(dims, seed=seed + 70).items()})

        den = init_denoiser(ddims, seed=seed)
        den_jit = ParamSet({k: v + r.normal(0, 0.1, v.shape).astype(np.float32) for k, v in den.items()})
        inv = dict(den_jit)
        inv["v"] = r.normal(0, 0.3, ddims.embed_dim).astype(np.float32)
        inv_params = ParamSet(inv)
        z0 = r.uniform(0, 1, (4, 6)).astype(np.float32)
        t, eps = draw_timesteps_and_noise(r, 4, 6, 6)
        prompt = r.normal(0, 0.3, 3).astype(np.float32)

        def eq1(p):
            den_leaves = {k: p[k] for k in p if k.startswith("den.")}
            return ldm_loss(den_leaves, z0, prompt, p["v"], np.zeros(4, np.int64), sched, t, eps, temb)

        cases = {
            "noise-prediction": (eq1, inv_params),
            "ce": (lambda p: loss_ce(p, x, y), params),
            "scl": (lambda p: loss_scl(p, x, y, tau=0.1), params),
            "pce": (lambda p: loss_pce(p, px, py), params),
            "kd": (lambda p: loss_kd(p, teacher, px), params),
            "total": (
                lambda p: total_objective(
                    (loss_ce(p, x, y), loss_scl(p, x, y, tau=0.1), loss_pce(p, px, py),
                     loss_kd(p, teacher, px)), weights,
                ),
                params,
            ),
            "ewc": (lambda p: ewc_penalty(p, anchor, fisher, lam=2.5), params),
        }
        for name, (fn, ps) in cases.items():
            report = finite_difference_check(fn, ps, h=1e-3, tolerance=1e-3)
            if not report.passed:
                failures.append((seed, name, report.worst()))
    verdict(1, not failures, f"all loss gradients match central differences at 1e-3 ({failures or '7 losses x 5 instances'})")


# ---------------------------------------------------------------------------
# 2. diffusion statistics


def test_criterion_02_forward_variance():
    sched = build_schedule(100, 1e-4, 0.2)
    decreasing = bool(np.all(np.diff(sched.alphas_bar) < 0))
    details, ok = [], decreasing
    for t in (1, 50, 100):
        rng = stream(ACCEPT_SEED, "accept-var", t)
        z0 = np.full((10_000, 1), 0.3, dtype=np.float32)
        eps = rng.standard_normal((10_000, 1)).astype(np.float32)
        z_t = forward_diffuse(z0, t, eps, sched)
        var = float((z_t - np.sqrt(sched.alpha_bar(t)) * z0).var())
        target = float(1.0 - sched.alpha_bar(t))
        rel = abs(var - target) / target
        ok &= rel <= 0.05
        details.append(f"t={t} var={var:.4f} target={target:.4f} rel={rel:.3f}")
    verdict(2, ok, "; ".join(details) + f"; alphas_bar strictly decreasing={decreasing}")


# ---------------------------------------------------------------------------
# 3. conditional generation


def test_criterion_03_conditional_generation(diffusion_model, pretrain_oracle, corpora):
    _, pretrain_corpus = corpora
    assert pretrain_oracle.holdout_accuracy >= 0.95, (
        f"oracle gate not met: {pretrain_oracle.holdout_accuracy:.3f}"
    )
    hits = total = 0
    per_class = 64
    rates = {}
    for c in pretrain_corpus.classes():
        cond = ConditionVector(diffusion_model.prompt, diffusion_model.class_embeddings[c])
        flat = sample(diffusion_model.params, [cond], per_class, diffusion_model.sched,
                      [stream(ACCEPT_SEED, "accept-gen", c)], diffusion_model.temb_table)
        images = flat.reshape((per_class,) + tuple(diffusion_model.image_shape))
        rate = pretrain_oracle.class_rate(images, c)
        rates[c] = round(rate, 3)
        hits += int(rate * per_class)
        total += per_class
    pooled = hits / total
    verdict(3, pooled >= 0.70,
            f"conditioned samples classified to their class at {pooled:.3f} (>= 0.70); per-class {rates}; "
            f"oracle holdout {pretrain_oracle.holdout_accuracy:.3f}")


# ---------------------------------------------------------------------------
# 4. class inversion efficacy


def test_criterion_04_inversion_efficacy(diffusion_model, heldout_inversion_clean):
    checksum = diffusion_model.checksum()
    rate = heldout_inversion_clean
    frozen = diffusion_model.checksum() == checksum
    verdict(4, rate >= 0.60 and frozen,
            f"held-out class generation rate {rate:.3f} (>= 0.60), denoiser frozen={frozen}")


# ---------------------------------------------------------------------------
# 5. federation identities


def test_criterion_05_federation_identities():
    # (a) identical uploads pass through both aggregators unchanged
    vec = np.array([0.5, -1.5, 2.0], dtype=np.float32)
    emb_agg = aggregate_embeddings([vec for _ in range(4)])
    ok_a = bool(np.max(np.abs(emb_agg - vec)) <= 1e-6)

    from dddr.federation import ClientUpdate

    ups = [ClientUpdate(client_id=j, params=ParamSet({"w": vec}), sample_count=7) for j in range(4)]
    clf_agg = aggregate_classifier(ups)
    ok_a &= bool(np.max(np.abs(clf_agg["w"] - vec)) <= 1e-6)

    # (b) identical clients with identical streams == centralized
    dims = ClassifierDims(input_dim=16, n_classes=4, hidden=8, feature_dim=6, proj_hidden=6, proj_dim=4)
    params = init_classifier(dims, seed=3)
    cfg = ClientTrainConfig(epochs=2, batch=8, weights=LossWeights(0, 0, 0))
    r = stream(ACCEPT_SEED, "accept-fed")
    x = r.uniform(0, 1, (16, 1, 4, 4)).astype(np.float32)
    y = r.integers(0, 4, 16)
    empty = (np.zeros((0, 16), np.float32), np.zeros(0, np.int64))
    updates = [
        local_train_client(j, params, (x, y), empty, empty, None, [], cfg, stream(7, "accept-identical"))
        for j in range(3)
    ]
    agg = aggregate_classifier(updates)
    ok_b = all(np.allclose(agg[n], updates[0].params[n], atol=1e-5) for n in agg)

    # (c) hand-computed means
    emb_mean = aggregate_embeddings([np.array([1.0, 2.0], np.float32), np.array([3.0, 4.0], np.float32)])
    ok_c = np.array_equal(emb_mean, np.array([2.0, 3.0], np.float32))
    weighted = aggregate_classifier(
        [ClientUpdate(0, ParamSet({"w": np.array([0.0], np.float32)}), 1),
         ClientUpdate(1, ParamSet({"w": np.array([4.0], np.float32)}), 3)]
    )
    ok_c &= np.array_equal(weighted["w"], np.array([3.0], np.float32))

    verdict(5, ok_a and ok_b and ok_c,
            f"identity={ok_a}, k-identical==centralized={ok_b}, hand examples exact={ok_c}")


# ---------------------------------------------------------------------------
# 6. metric oracles


def test_criterion_06_metric_oracles():
    from tests.test_metrics_audit import brute_force_metrics, random_matrix

    mismatches = 0
    for seed in range(100):
        m = random_matrix(seed, n_tasks=4, n_classes=8)
        acc, fm = brute_force_metrics(m.values)
        if average_accuracy(m) != pytest.approx(acc, abs=1e-12):
            mismatches += 1
        if forgetting_measure(m) != pytest.approx(fm, abs=1e-12):
            mismatches += 1
    verdict(6, mismatches == 0, f"100 random matrices match brute-force recomputation (mismatches={mismatches})")


# ---------------------------------------------------------------------------
# 7. forgetting ordering


def test_criterion_07_forgetting_ordering(desk_dddr, desk_finetune, desk_fedewc):
    _, _, rep_d = desk_dddr
    _, _, rep_f = desk_finetune
    _, _, rep_e = desk_fedewc
    ok = (
        rep_f.forgetting_measure > rep_e.forgetting_measure > rep_d.forgetting_measure
        and rep_d.forgetting_measure <= 0.6 * rep_f.forgetting_measure
        and rep_d.average_accuracy > rep_f.average_accuracy
    )
    verdict(
        7, ok,
        f"FM: finetune {rep_f.forgetting_measure:.3f} > fedewc {rep_e.forgetting_measure:.3f} > "
        f"dddr {rep_d.forgetting_measure:.3f}; ratio {rep_d.forgetting_measure / rep_f.forgetting_measure:.3f} <= 0.6; "
        f"Acc: dddr {rep_d.average_accuracy:.3f} > finetune {rep_f.average_accuracy:.3f}"
    )


# ---------------------------------------------------------------------------
# 8. ablation mirror


def test_criterion_08_ablation(desk_dddr, desk_dir):
    cfg_full, paths_full, rep_full = desk_dddr
    ablated_dir = desk_dir / "dddr-no-history"
    shutil.copytree(paths_full.root, ablated_dir)
    for stale in ("metrics.json", "accuracy.csv"):
        (ablated_dir / stale).unlink()
    cfg = parse_config(None, DESK + ["experiment.method=dddr", "ablation.replay_past=false"])
    paths = prepare_run_dir(cfg, ablated_dir)
    rep_ablated = stage_train(cfg, paths)
    delta = rep_ablated.forgetting_measure - rep_full.forgetting_measure
    verdict(8, delta >= 0.3,
            f"removing replayed history raises FM by {delta:.3f} "
            f"({rep_full.forgetting_measure:.3f} -> {rep_ablated.forgetting_measure:.3f}; >= 0.3 required)")


# ---------------------------------------------------------------------------
# 9. noise robustness


def test_criterion_09_noise_robustness(corpora, diffusion_model, client_oracle, heldout_inversion_clean):
    client_corpus, _ = corpora
    table, classes = run_heldout_inversion(client_corpus, diffusion_model, sigma_g=0.01)
    noisy_rate = generation_rate(table, classes, diffusion_model, client_oracle)
    drop = heldout_inversion_clean - noisy_rate
    verdict(9, drop <= 0.10,
            f"sigma_g=0.01 generation rate {noisy_rate:.3f} vs clean {heldout_inversion_clean:.3f} "
            f"(drop {drop:+.3f} <= 0.10)")


# ---------------------------------------------------------------------------
# supplementary invariant: accuracy-vs-task curves decline as tasks accrue


def test_curve_monotonicity(desk_finetune, desk_dddr):
    _, _, rep_f = desk_finetune
    _, _, rep_d = desk_dddr
    drops = [rep_f.curve[i + 1] - rep_f.curve[i] for i in range(len(rep_f.curve) - 1)]
    assert all(d <= 0.05 for d in drops), f"finetune curve rose beyond noise: {rep_f.curve}"
    # reported, not asserted, for the replay method
    print(f"[curve] finetune {['%.3f' % v for v in rep_f.curve]}, "
          f"dddr {['%.3f' % v for v in rep_d.curve]}", flush=True)


# ---------------------------------------------------------------------------
# 10. determinism and provenance


def test_criterion_10_determinism(desk_dddr, desk_rerun):
    cfg, paths, report = desk_dddr
    proc, rerun_dir = desk_rerun
    rerun_ok = proc.wait(timeout=900) == 0
    same_metrics = rerun_ok and (rerun_dir / "metrics.json").read_bytes() == paths.metrics_json.read_bytes()
    same_csv = rerun_ok and (rerun_dir / "accuracy.csv").read_bytes() == paths.accuracy_csv.read_bytes()
    # every artifact, except what post-processing tests write into the run directory
    same_tree = rerun_ok and tree_bytes(rerun_dir) == tree_bytes(paths.root)

    recomputed = stage_eval(cfg, paths)
    eval_matches = recomputed.to_json() == MetricsReport.from_json(paths.metrics_json.read_text()).to_json()
    guard_clean = report.past_data_reads == 0
    verdict(10, same_metrics and same_csv and same_tree and eval_matches and guard_clean,
            f"fresh-interpreter rerun exit={proc.returncode}, rerun metrics byte-identical={same_metrics}, "
            f"csv identical={same_csv}, every file identical={same_tree}, "
            f"eval reproduces metrics={eval_matches}, past-task raw reads={report.past_data_reads}")
