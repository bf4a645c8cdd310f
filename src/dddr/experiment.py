"""Run orchestration: stages, artifact layout, and the task-sequence loop.

A run directory is built by four stages that communicate only through
files (so the composed `run` command and the individual stage commands
produce identical bytes):

    gen-data   corpora dumps + task/partition plan
    pretrain   frozen diffusion generator checkpoint
    invert     per-class embeddings checkpoint + round log
    train      per-task classifier checkpoints, round log, replay caches,
               metrics.json + accuracy.csv

Raw training data of a finished task is sealed behind an access guard;
any later read trips it, and the violation count (always zero for a
successful run) is part of the metrics report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import write_file, writing
from .classifier import (
    ClassifierDims, EwcTerm, LossWeights, Snapshot, consolidate_ewc, fisher_estimate, init_classifier, make_snapshot,
)
from .config import ExperimentConfig
from .corpus import Corpus, dump_corpus, load_corpus
from .diffusion import PretrainConfig, PretrainedDiffusion, pretrain_diffusion
from .federation import ClientTrainConfig, aggregate_classifier, has_training_data, local_train_client
from .idx import load_idx
from .inversion import InversionConfig, add_gaussian_noise, federated_class_inversion, load_embeddings, save_embeddings
from .metrics import AccuracyMatrix, MetricsReport, accuracy_curve, average_accuracy, evaluate_global, forgetting_measure, local_client_eval
from .params import ParamSet, load_checkpoint, params_checksum, save_checkpoint, weighted_mean_params
from .replay import build_replay_sets, load_cache, save_cache
from .rng import stream
from .shapes import DEFAULT_CLASSES, FILLS, SHAPES, CLIENT_STYLE, PRETRAIN_STYLE, ShapeworldSpec, generate_shapeworld
from .tasks import PartitionSpec, TaskSequencePlan, build_plan


class MissingArtifact(Exception):
    def __init__(self, path: Path, hint: str) -> None:
        super().__init__(f"missing artifact {path} (run `{hint}` first)")
        self.path = path


class GuardViolation(AssertionError):
    pass


@dataclass(frozen=True)
class RunPaths:
    root: Path

    @property
    def config_file(self) -> Path:
        return self.root / "config.effective.yaml"

    @property
    def client_corpus_dir(self) -> Path:
        return self.root / "data" / "client"

    @property
    def pretrain_corpus_dir(self) -> Path:
        return self.root / "data" / "pretrain"

    @property
    def plan_file(self) -> Path:
        return self.root / "data" / "plan.json"

    @property
    def diffusion_ckpt(self) -> Path:
        return self.root / "checkpoints" / "diffusion.ckpt"

    @property
    def embeddings_ckpt(self) -> Path:
        return self.root / "checkpoints" / "embeddings.ckpt"

    def classifier_ckpt(self, task: int) -> Path:
        return self.root / "checkpoints" / f"classifier_task_{task:02d}.ckpt"

    @property
    def pretrain_log(self) -> Path:
        return self.root / "logs" / "pretrain_loss.jsonl"

    @property
    def inversion_log(self) -> Path:
        return self.root / "logs" / "inversion_rounds.jsonl"

    @property
    def training_log(self) -> Path:
        return self.root / "logs" / "training_rounds.jsonl"

    def replay_dir(self, task: int, which: str) -> Path:
        return self.root / "replay" / f"task_{task:02d}" / which

    @property
    def metrics_json(self) -> Path:
        return self.root / "metrics.json"

    @property
    def metrics_eval_json(self) -> Path:
        return self.root / "metrics_eval.json"

    @property
    def accuracy_csv(self) -> Path:
        return self.root / "accuracy.csv"

    @property
    def curve_svg(self) -> Path:
        return self.root / "curve.svg"

    @property
    def audit_json(self) -> Path:
        return self.root / "audit.json"


class DataVault:
    """Guarded access to raw per-task training shards.

    Once a task is sealed (its training finished), reading any of its
    shards raises and is counted; the report asserts the count is zero.
    Test data is not guarded: it belongs to evaluation, not training.
    """

    def __init__(self, corpus: Corpus, plan: TaskSequencePlan) -> None:
        self.corpus = corpus
        self.plan = plan
        self.sealed_through = -1
        self.violations = 0

    def seal_through(self, task: int) -> None:
        self.sealed_through = max(self.sealed_through, task)

    def train_shard(self, task: int, client: int) -> tuple[np.ndarray, np.ndarray]:
        if task <= self.sealed_through:
            self.violations += 1
            raise GuardViolation(
                f"read of task {task} raw training data after that task completed (client {client})"
            )
        idx = self.plan.client_shards[task][client]
        return self.corpus.images[idx], self.corpus.labels[idx]

    def class_images(self, task: int, client: int, label: int) -> np.ndarray:
        x, y = self.train_shard(task, client)
        return x[y == label]


def _write_jsonl(path: Path, records: list[dict]) -> None:
    with writing(path) as f:
        for rec in records:
            f.write((json.dumps(rec, sort_keys=True) + "\n").encode("utf-8"))


def _require(path: Path, hint: str) -> Path:
    if not path.exists():
        raise MissingArtifact(path, hint)
    return path


def shape_class_list(n: int) -> tuple[tuple[str, str], ...]:
    pool = list(DEFAULT_CLASSES) + [(s, f) for s in SHAPES for f in FILLS if (s, f) not in DEFAULT_CLASSES]
    if n > len(pool):
        raise ValueError(f"data.classes: at most {len(pool)} shape classes are available, got {n}")
    return tuple(pool[:n])


def build_corpora(cfg: ExperimentConfig) -> tuple[Corpus, Corpus]:
    """(client corpus, pretraining corpus) per the data section."""
    data = cfg["data"]
    seed = cfg["experiment"]["seed"]
    if data["source"] == "shapes":
        classes = shape_class_list(data["classes"])
        hw = (data["image_size"], data["image_size"])
        client = generate_shapeworld(
            ShapeworldSpec(image_hw=hw, classes=classes, samples_per_class=data["samples_per_class"],
                           style=CLIENT_STYLE, seed=seed)
        )
        pretrain = generate_shapeworld(
            ShapeworldSpec(image_hw=hw, classes=classes, samples_per_class=data["pretrain_samples_per_class"],
                           style=PRETRAIN_STYLE, seed=seed)
        )
        return client, pretrain
    client = load_idx(data["idx_images"], data["idx_labels"])
    # no disjoint pretraining variant exists for ingested data; the
    # generator pretrains on the same corpus
    return client, client


def stage_gen_data(cfg: ExperimentConfig, paths: RunPaths) -> None:
    client, pretrain = build_corpora(cfg)
    spec = PartitionSpec(
        mode=cfg["federation"]["partition"],
        alpha=cfg["federation"]["alpha"],
        clients=cfg["federation"]["clients"],
        seed=cfg["experiment"]["seed"],
    )
    plan = build_plan(
        client, cfg["experiment"]["n_tasks"], spec, cfg["data"]["holdout_fraction"], cfg["experiment"]["seed"]
    )
    # the plan is built and validated first, so a config it rejects writes no corpus
    dump_corpus(client, paths.client_corpus_dir)
    dump_corpus(pretrain, paths.pretrain_corpus_dir)
    write_file(paths.plan_file, json.dumps(plan.to_jsonable(), sort_keys=True))


def stage_pretrain(cfg: ExperimentConfig, paths: RunPaths) -> None:
    _require(paths.pretrain_corpus_dir / "manifest.csv", "dddr gen-data")
    corpus = load_corpus(paths.pretrain_corpus_dir)
    d = cfg["diffusion"]
    pc = PretrainConfig(
        T=d["timesteps"], beta_min=d["beta_min"], beta_max=d["beta_max"], embed_dim=d["embed_dim"],
        time_dim=d["time_dim"], hidden=d["hidden"], steps=d["pretrain_steps"], batch=d["pretrain_batch"],
        lr=d["pretrain_lr"], seed=cfg["experiment"]["seed"],
    )
    model = pretrain_diffusion(corpus, pc)
    model.save(paths.diffusion_ckpt)
    _write_jsonl(
        paths.pretrain_log,
        [{"step": i, "loss": loss} for i, loss in enumerate(model.loss_trace)]
        + [{"probe_initial": model.probe_initial, "probe_final": model.probe_final}],
    )


def stage_invert(cfg: ExperimentConfig, paths: RunPaths) -> None:
    if cfg["experiment"]["method"] != "dddr":
        return
    _require(paths.plan_file, "dddr gen-data")
    _require(paths.diffusion_ckpt, "dddr pretrain")
    corpus = load_corpus(paths.client_corpus_dir)
    plan = TaskSequencePlan.from_jsonable(json.loads(paths.plan_file.read_text()))
    model = PretrainedDiffusion.load(paths.diffusion_ckpt)
    vault = DataVault(corpus, plan)
    seed = cfg["experiment"]["seed"]
    inv = cfg["inversion"]
    icfg = InversionConfig(rounds=inv["rounds"], local_steps=inv["local_steps"], lr=inv["lr"],
                           batch=inv["batch"], sigma_g=cfg["noise"]["sigma_g"])
    table: dict[int, np.ndarray] = {}
    records: list[dict] = []
    k = cfg["federation"]["clients"]
    for t in range(plan.n_tasks):
        shards = [
            {c: vault.class_images(t, j, c) for c in plan.label_sets[t]} for j in range(k)
        ]
        records += federated_class_inversion(plan.label_sets[t], shards, model, icfg, seed, table, task_index=t)
    save_embeddings(paths.embeddings_ckpt, table, icfg.rounds, model.dims.embed_dim)
    _write_jsonl(paths.inversion_log, records)


def _client_train_config(cfg: ExperimentConfig) -> ClientTrainConfig:
    method = cfg["experiment"]["method"]
    tr, lo, ab = cfg["training"], cfg["loss"], cfg["ablation"]
    # the replay ablations act in stage_train, which passes empty replay sets
    if method == "dddr":
        weights = LossWeights(w1=lo["w1"] if ab["scl"] else 0.0, w2=lo["w2"], w3=lo["w3"])
        return ClientTrainConfig(
            epochs=tr["epochs"], batch=tr["batch"], lr=tr["lr"], optimizer=tr["optimizer"],
            weights=weights, tau=lo["tau"], kd_temperature=lo["kd_temperature"],
            kd_direction=lo["kd_direction"], ewc_lambda=0.0,
        )
    lam = cfg["ewc"]["lam"] if method == "fedewc" else 0.0
    return ClientTrainConfig(
        epochs=tr["epochs"], batch=tr["batch"], lr=tr["lr"], optimizer=tr["optimizer"],
        weights=LossWeights(0.0, 0.0, 0.0), ewc_lambda=lam,
    )


def stage_train(cfg: ExperimentConfig, paths: RunPaths) -> MetricsReport:
    _require(paths.plan_file, "dddr gen-data")
    corpus = load_corpus(paths.client_corpus_dir)
    plan = TaskSequencePlan.from_jsonable(json.loads(paths.plan_file.read_text()))
    method = cfg["experiment"]["method"]
    seed = cfg["experiment"]["seed"]
    k = cfg["federation"]["clients"]
    n_classes = len(plan.all_classes())

    model: PretrainedDiffusion | None = None
    table: dict[int, np.ndarray] = {}
    if method == "dddr":
        _require(paths.diffusion_ckpt, "dddr pretrain")
        _require(paths.embeddings_ckpt, "dddr invert")
        model = PretrainedDiffusion.load(paths.diffusion_ckpt)
        table = load_embeddings(paths.embeddings_ckpt, model.dims.embed_dim)

    vault = DataVault(corpus, plan)
    dims = ClassifierDims(input_dim=int(np.prod(corpus.image_shape)), n_classes=n_classes)
    global_params = init_classifier(dims, seed, include_projection=(method == "dddr"))
    ctc = _client_train_config(cfg)
    matrix = AccuracyMatrix(plan.n_tasks, n_classes)
    snapshot: Snapshot | None = None
    ewc_pairs: list[tuple[ParamSet, ParamSet]] = []
    ewc: EwcTerm | None = None
    train_records: list[dict] = []

    test_x = {c: corpus.images[idx] for c, idx in plan.test_by_class.items()}

    generator_checksum = model.checksum() if model is not None else None

    for t in range(plan.n_tasks):
        shards = [vault.train_shard(t, j) for j in range(k)]
        past_pair = (np.zeros((0, 1), dtype=np.float32), np.zeros(0, dtype=np.int64))
        cur_pair = (np.zeros((0, 1), dtype=np.float32), np.zeros(0, dtype=np.int64))
        if method == "dddr":
            past_classes = [c for ys in plan.label_sets[:t] for c in ys]
            past_cache, cur_cache = build_replay_sets(
                table,
                past_classes if cfg["ablation"]["replay_past"] else [],
                plan.label_sets[t] if cfg["ablation"]["replay_current"] else [],
                cfg["replay"]["past_per_class"],
                cfg["replay"]["current_per_class"],
                model,
                seed=stream_seed_for_replay(seed, t),
            )
            save_cache(past_cache, paths.replay_dir(t, "past"))
            save_cache(cur_cache, paths.replay_dir(t, "current"))
            past_pair = past_cache.as_batch()
            cur_pair = cur_cache.as_batch()
            if model.checksum() != generator_checksum:
                raise AssertionError("frozen generator changed during replay generation")

        for rnd in range(1, cfg["training"]["rounds"] + 1):
            global_params = _train_round(
                cfg, t, rnd, global_params, shards, (past_pair, cur_pair), snapshot, ewc, ctc, train_records
            )

        # the consolidated penalty is read only by later tasks, so the last
        # task estimates no Fisher
        if method == "fedewc" and t < plan.n_tasks - 1:
            ewc = None  # superseded: the next term is folded from ewc_pairs
            anchors = global_params.copy()
            fisher = _task_fisher(anchors, shards, cfg["ewc"]["fisher_samples"])
            if fisher is not None:
                ewc_pairs.append((anchors, fisher))
            ewc = consolidate_ewc(ewc_pairs) if ewc_pairs else None
        if snapshot is not None and params_checksum(snapshot.params) != snapshot.checksum:
            raise AssertionError("previous-task snapshot mutated during training")
        snapshot = make_snapshot(global_params, t)
        vault.seal_through(t)

        _set_accuracy_row(matrix, t, global_params, plan, test_x)
        save_checkpoint(paths.classifier_ckpt(t), global_params, extra={"task": t, "method": method})

    _write_jsonl(paths.training_log, train_records)
    report = _build_report(cfg, plan, corpus, matrix, global_params, vault.violations)
    write_file(paths.metrics_json, report.to_json())
    write_file(paths.accuracy_csv, report.accuracy_csv())
    return report


def _train_round(cfg, t, rnd, global_params, shards, replay, snapshot, ewc, ctc, records) -> ParamSet:
    """One FedAvg round of task t: appends each client's record and returns only the aggregate.

    Clients run serially in index order; a client with nothing to train on
    sits the round out and is left out of FedAvg. The round's updates die
    with this call, so none is kept beside the next round or the Fisher pass.
    """
    seed, sigma_c = cfg["experiment"]["seed"], cfg["noise"]["sigma_c"]
    past_pair, cur_pair = replay
    updates = []
    for j, shard in enumerate(shards):
        rec = {"task": t, "round": rnd, "client": j, "samples": 0, "steps": 0}
        if has_training_data(shard, past_pair, cur_pair):
            update = local_train_client(
                j, global_params, shard, past_pair, cur_pair, snapshot, ewc, ctc, stream(seed, "train", t, rnd, j),
            )
            if sigma_c > 0:
                update.params = add_gaussian_noise(update.params, sigma_c, stream(seed, "clf-noise", t, rnd, j))
            updates.append(update)
            rec.update(samples=update.sample_count, steps=update.steps)
            rec.update({f"loss_{k}": v for k, v in sorted(update.loss_means.items())})
        records.append(rec)
    if not updates:
        raise ValueError(f"task {t} round {rnd}: no client has anything to train on")
    return aggregate_classifier(updates)


def _task_fisher(anchors: ParamSet, shards, n_samples: int) -> ParamSet | None:
    """Sample-weighted mean of the clients' Fisher estimates at `anchors`; None if no client has data.

    The per-client estimates die with this call, before consolidation.
    """
    fishers, weights = [], []
    for x, y in shards:
        if y.size:
            fishers.append(fisher_estimate(anchors, x, y, n_samples=n_samples))
            weights.append(float(y.size))
    return weighted_mean_params(fishers, weights) if fishers else None


def _set_accuracy_row(matrix: AccuracyMatrix, t: int, params: ParamSet, plan: TaskSequencePlan, test_x) -> None:
    """Row t of the accuracy matrix: each class seen by task t, on its global test images."""
    seen = plan.seen_classes(t)
    row = evaluate_global(
        params,
        np.concatenate([test_x[c] for c in seen]),
        np.concatenate([np.full(test_x[c].shape[0], c, dtype=np.int64) for c in seen]),
        seen,
    )
    for c, acc in row.items():
        matrix.set(t, c, acc)


def stream_seed_for_replay(seed: int, task: int) -> int:
    # replay sets are per task and shared by all clients; fold the task
    # index into the seed so caches differ across tasks but not clients
    return seed * 1000 + task


def _build_report(cfg, plan, corpus, matrix, final_params, violations) -> MetricsReport:
    local_shards = []
    for j in range(cfg["federation"]["clients"]):
        idx = np.concatenate([plan.client_test_shards[t][j] for t in range(plan.n_tasks)])
        local_shards.append((corpus.images[idx], corpus.labels[idx]))
    local = local_client_eval(final_params, local_shards)
    return MetricsReport(
        method=cfg["experiment"]["method"],
        seed=cfg["experiment"]["seed"],
        average_accuracy=average_accuracy(matrix),
        forgetting_measure=forgetting_measure(matrix),
        curve=accuracy_curve(matrix),
        matrix_rows=matrix.to_rows(),
        n_tasks=matrix.n_tasks,
        n_classes=matrix.n_classes,
        local_eval=local,
        past_data_reads=violations,
    )


def stage_eval(cfg: ExperimentConfig, paths: RunPaths) -> MetricsReport:
    """Recompute the metrics report from stored checkpoints and data dumps."""
    _require(paths.plan_file, "dddr gen-data")
    corpus = load_corpus(paths.client_corpus_dir)
    plan = TaskSequencePlan.from_jsonable(json.loads(paths.plan_file.read_text()))
    n_classes = len(plan.all_classes())
    matrix = AccuracyMatrix(plan.n_tasks, n_classes)
    test_x = {c: corpus.images[idx] for c, idx in plan.test_by_class.items()}
    final_params = None
    for t in range(plan.n_tasks):
        ckpt = _require(paths.classifier_ckpt(t), "dddr train")
        params, _ = load_checkpoint(ckpt)
        final_params = params
        _set_accuracy_row(matrix, t, params, plan, test_x)
    report = _build_report(cfg, plan, corpus, matrix, final_params, 0)
    write_file(paths.metrics_eval_json, report.to_json())
    return report


def stage_audit(cfg: ExperimentConfig, paths: RunPaths) -> list[dict]:
    """PSNR/SSIM audit of the replay caches against the real client corpus."""
    from .audit import similarity_audit

    _require(paths.client_corpus_dir / "manifest.csv", "dddr gen-data")
    corpus = load_corpus(paths.client_corpus_dir)
    generated: dict[int, list[np.ndarray]] = {}
    replay_root = paths.root / "replay"
    if not replay_root.exists():
        raise MissingArtifact(replay_root, "dddr train (method dddr)")
    # a name starting with "." is a cache staged by a run that was killed
    for manifest in sorted(replay_root.glob("task_*/[!.]*/manifest.csv")):
        cache = load_cache(manifest.parent)
        for c, imgs in cache.by_class.items():
            generated.setdefault(c, []).append(imgs)
    if not generated:
        raise MissingArtifact(replay_root / "task_00", "dddr train (method dddr)")
    # each class's real and generated images are built when the audit
    # reaches it, so only one class's copies are alive at a time
    reports = similarity_audit(
        (c, corpus.images[corpus.indices_of(c)], np.concatenate(generated.pop(c)))
        for c in sorted(set(corpus.classes()) & set(generated))
    )
    payload = [
        {"class": r.class_index, "best_psnr": r.best_psnr, "psnr_pair": list(r.psnr_pair),
         "best_ssim": r.best_ssim, "ssim_pair": list(r.ssim_pair)}
        for r in reports
    ]
    write_file(paths.audit_json, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return payload


def run_fccl(cfg: ExperimentConfig, out_dir: str | Path) -> MetricsReport:
    """Full pipeline: all stages in order inside one run directory."""
    paths = prepare_run_dir(cfg, out_dir)
    stage_gen_data(cfg, paths)
    if cfg["experiment"]["method"] == "dddr":
        stage_pretrain(cfg, paths)
        stage_invert(cfg, paths)
    return stage_train(cfg, paths)


def prepare_run_dir(cfg: ExperimentConfig, out_dir: str | Path) -> RunPaths:
    paths = RunPaths(root=Path(out_dir))
    write_file(paths.config_file, cfg.to_yaml())
    return paths
