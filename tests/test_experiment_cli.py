import gc
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from dddr import experiment
from dddr.cli import EXIT_DATA, EXIT_INTERNAL, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from dddr.config import parse_config
from dddr.corpus import Corpus
from dddr.federation import ClientUpdate
from dddr.experiment import (
    DataVault,
    GuardViolation,
    MissingArtifact,
    RunPaths,
    prepare_run_dir,
    run_fccl,
    stage_eval,
    stage_gen_data,
    stage_invert,
    stage_pretrain,
    stage_train,
)
from dddr.metrics import MetricsReport
from dddr.params import ParamSet, load_checkpoint, save_checkpoint
from dddr.tasks import PartitionSpec, build_plan

MICRO = [
    "experiment.seed=5",
    "experiment.n_tasks=2",
    "data.classes=4",
    "data.samples_per_class=30",
    "data.pretrain_samples_per_class=30",
    "federation.clients=2",
    "diffusion.timesteps=25",
    "diffusion.hidden=32",
    "diffusion.pretrain_steps=120",
    "diffusion.pretrain_batch=16",
    "inversion.rounds=2",
    "inversion.local_steps=5",
    "training.rounds=2",
    "training.epochs=1",
    "replay.past_per_class=4",
    "replay.current_per_class=4",
]


def micro_cfg(*extra: str):
    return parse_config(None, MICRO + list(extra))


POST_PROCESSING = {"metrics_eval.json", "curve.svg", "audit.json"}


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name not in POST_PROCESSING
    }


@pytest.fixture(scope="module")
def micro_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("micro") / "run"
    cfg = micro_cfg()
    report = run_fccl(cfg, out)
    return cfg, RunPaths(root=out), report


def test_run_produces_complete_artifact_tree(micro_run):
    _, paths, report = micro_run
    for required in [
        paths.config_file, paths.plan_file, paths.diffusion_ckpt, paths.embeddings_ckpt,
        paths.classifier_ckpt(0), paths.classifier_ckpt(1), paths.inversion_log,
        paths.training_log, paths.metrics_json, paths.accuracy_csv,
    ]:
        assert required.exists(), required
    assert report.past_data_reads == 0
    assert 0.0 <= report.average_accuracy <= 1.0


def test_eval_reproduces_run_metrics(micro_run):
    cfg, paths, report = micro_run
    recomputed = stage_eval(cfg, paths)
    assert recomputed.average_accuracy == report.average_accuracy
    assert recomputed.forgetting_measure == report.forgetting_measure
    assert recomputed.matrix_rows == report.matrix_rows
    stored = MetricsReport.from_json(paths.metrics_json.read_text())
    assert stored.to_json() == recomputed.to_json()


def test_stage_composition_matches_run(micro_run, tmp_path):
    cfg, paths, _ = micro_run
    staged = tmp_path / "staged"
    spaths = prepare_run_dir(cfg, staged)
    stage_gen_data(cfg, spaths)
    stage_pretrain(cfg, spaths)
    stage_invert(cfg, spaths)
    stage_train(cfg, spaths)
    a, b = tree_bytes(paths.root), tree_bytes(staged)
    assert a.keys() == b.keys()
    for name in a:
        assert a[name] == b[name], f"stage-composed artifact differs: {name}"


def test_rerun_is_byte_identical(micro_run, tmp_path):
    cfg, paths, _ = micro_run
    again = tmp_path / "again"
    run_fccl(cfg, again)
    a, b = tree_bytes(paths.root), tree_bytes(again)
    assert a.keys() == b.keys()
    for name in a:
        assert a[name] == b[name], f"rerun artifact differs: {name}"


def test_finetune_runs_without_diffusion_artifacts(tmp_path):
    cfg = micro_cfg("experiment.method=finetune")
    report = run_fccl(cfg, tmp_path / "ft")
    assert not (tmp_path / "ft" / "checkpoints" / "diffusion.ckpt").exists()
    assert report.method == "finetune"


def test_zero_weights_no_replay_degenerates_to_finetune(micro_run, tmp_path):
    # the replay pipeline with every extra switched off is the finetune
    # baseline, identically
    _, _, _ = micro_run
    degenerate = micro_cfg(
        "loss.w1=0", "loss.w2=0", "loss.w3=0",
        "ablation.scl=false", "ablation.replay_past=false", "ablation.replay_current=false",
    )
    rep_degenerate = run_fccl(degenerate, tmp_path / "degenerate")
    rep_finetune = run_fccl(micro_cfg("experiment.method=finetune"), tmp_path / "ft-ref")
    assert rep_degenerate.matrix_rows == rep_finetune.matrix_rows
    assert rep_degenerate.average_accuracy == rep_finetune.average_accuracy
    assert rep_degenerate.forgetting_measure == rep_finetune.forgetting_measure


def test_fedewc_runs_and_records_method(tmp_path):
    cfg = micro_cfg("experiment.method=fedewc", "ewc.fisher_samples=8")
    report = run_fccl(cfg, tmp_path / "ewc")
    assert report.method == "fedewc"


def test_fedewc_estimates_no_fisher_after_the_last_task(tmp_path, monkeypatch):
    # the consolidated penalty of task t is read only by tasks after t
    calls = []
    real = experiment.fisher_estimate

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiment, "fisher_estimate", counting)
    cfg = micro_cfg("experiment.method=fedewc", "ewc.fisher_samples=8", "federation.clients=3")
    run_fccl(cfg, tmp_path / "ewc")
    assert len(calls) == 3 * (2 - 1)


def test_fedewc_consolidates_with_no_client_update_or_client_fisher_alive(tmp_path, monkeypatch):
    # by the time a task's penalty is consolidated, its rounds kept only their
    # aggregate and its Fisher pass only the weighted mean
    updates, fishers, alive = set(), set(), []
    train, fisher, consolidate = experiment.local_train_client, experiment.fisher_estimate, experiment.consolidate_ewc

    def training(*args, **kwargs):
        update = train(*args, **kwargs)
        updates.add(id(update))
        return update

    def estimating(*args, **kwargs):
        estimate = fisher(*args, **kwargs)
        fishers.add(id(estimate))
        return estimate

    def consolidating(pairs):
        live = gc.get_objects()
        alive.append((sum(isinstance(o, ClientUpdate) and id(o) in updates for o in live),
                      sum(isinstance(o, ParamSet) and id(o) in fishers for o in live)))
        return consolidate(pairs)

    monkeypatch.setattr(experiment, "local_train_client", training)
    monkeypatch.setattr(experiment, "fisher_estimate", estimating)
    monkeypatch.setattr(experiment, "consolidate_ewc", consolidating)
    run_fccl(micro_cfg("experiment.method=fedewc", "ewc.fisher_samples=8", "federation.clients=3"), tmp_path / "ewc")
    assert len(fishers) == 3 and alive == [(0, 0)]


def test_invert_requires_pretrain_artifact(tmp_path):
    cfg = micro_cfg()
    paths = prepare_run_dir(cfg, tmp_path / "partial")
    stage_gen_data(cfg, paths)
    with pytest.raises(MissingArtifact, match="diffusion.ckpt"):
        stage_invert(cfg, paths)


def test_train_requires_embeddings(tmp_path):
    cfg = micro_cfg()
    paths = prepare_run_dir(cfg, tmp_path / "partial2")
    stage_gen_data(cfg, paths)
    stage_pretrain(cfg, paths)
    with pytest.raises(MissingArtifact, match="embeddings.ckpt"):
        stage_train(cfg, paths)


def test_temporal_guard_counts_and_raises():
    images = np.zeros((40, 1, 8, 8), np.float32)
    labels = np.repeat(np.arange(4), 10)
    corpus = Corpus(images, labels)
    plan = build_plan(corpus, 2, PartitionSpec(mode="iid", clients=2, seed=0), 0.2, seed=0)
    vault = DataVault(corpus, plan)
    vault.train_shard(0, 0)
    vault.seal_through(0)
    with pytest.raises(GuardViolation, match="task 0"):
        vault.train_shard(0, 1)
    assert vault.violations == 1
    x, y = vault.train_shard(1, 0)  # future task still readable
    assert y.size > 0


def test_cli_run_eval_plot_audit(tmp_path):
    out = tmp_path / "cli-run"
    args = ["run", "--out", str(out)] + [f"--set={s}" for s in MICRO]
    assert main(args) == EXIT_OK
    assert main(["eval", "--out", str(out)]) == EXIT_OK
    stored = json.loads((out / "metrics.json").read_text())
    evaled = json.loads((out / "metrics_eval.json").read_text())
    assert stored["average_accuracy"] == evaled["average_accuracy"]
    assert main(["plot", "--out", str(out)]) == EXIT_OK
    assert (out / "curve.svg").read_text().startswith("<svg")
    assert main(["audit", "--out", str(out)]) == EXIT_OK
    audit = json.loads((out / "audit.json").read_text())
    assert all(entry["best_psnr"] < 99.0 for entry in audit)


def test_cli_exit_codes(tmp_path):
    assert main(["run", "--set=bogus.key=1", "--out", str(tmp_path / "x")]) == EXIT_USAGE
    assert main(["run", "--set=loss.w2=abc", "--out", str(tmp_path / "x")]) == EXIT_USAGE
    out = tmp_path / "stage-order"
    args = ["gen-data", "--out", str(out)] + [f"--set={s}" for s in MICRO]
    assert main(args) == EXIT_OK
    assert main(["invert", "--out", str(out)]) == EXIT_DATA
    assert main(["eval", "--out", str(tmp_path / "missing")]) == EXIT_DATA



def test_cli_gen_data_checks_the_plan_before_writing_any_corpus(tmp_path, capsys):
    from tests.test_data_formats import write_idx_images, write_idx_labels

    labels = np.repeat(np.arange(3), 10)
    write_idx_images(tmp_path / "images.idx", np.zeros((30, 8, 8), dtype=np.uint8))
    write_idx_labels(tmp_path / "labels.idx", labels)
    out = tmp_path / "three-classes"
    args = ["gen-data", "--out", str(out), "--set=data.source=idx", "--set=experiment.n_tasks=2",
            f"--set=data.idx_images={tmp_path / 'images.idx'}", f"--set=data.idx_labels={tmp_path / 'labels.idx'}"]
    assert main(args) == EXIT_DATA
    assert "3 classes cannot be split into 2 even tasks" in capsys.readouterr().err
    assert not (out / "data").exists()

def test_cli_pretraining_divergence_is_a_numeric_error(tmp_path, capsys):
    # an Adam step of ~1e30 per weight overflows the next step's forward pass
    args = ["run", "--out", str(tmp_path / "diverge")]
    args += [f"--set={s}" for s in MICRO + ["diffusion.pretrain_lr=1.0e+30"]]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(args) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "error: numeric: pretraining diverged at step 1: denoiser.hidden" in err


def test_cli_divergence_in_the_final_probe_names_the_last_step(tmp_path, capsys):
    # one step of ~1e30 per weight: only the probe loss after it overflows
    args = ["run", "--out", str(tmp_path / "diverge-last")]
    args += [f"--set={s}" for s in MICRO + ["diffusion.pretrain_steps=1", "diffusion.pretrain_lr=1.0e+30"]]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(args) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "error: numeric: pretraining diverged at step 1: denoiser.hidden1 produced a non-finite value" in err


def test_cli_threads_flag_changes_nothing(tmp_path):
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    base = [f"--set={s}" for s in MICRO]
    assert main(["run", "--out", str(out1)] + base) == EXIT_OK
    assert main(["run", "--out", str(out2), "--threads", "2"] + base) == EXIT_OK
    a = json.loads((out1 / "metrics.json").read_text())
    b = json.loads((out2 / "metrics.json").read_text())
    assert a == b


def test_cli_threads_flag_leaves_every_fedewc_byte(tmp_path):
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    base = [f"--set={s}" for s in MICRO + ["experiment.method=fedewc", "ewc.fisher_samples=8"]]
    assert main(["run", "--out", str(out1)] + base) == EXIT_OK
    assert main(["run", "--out", str(out2), "--threads", "2"] + base) == EXIT_OK
    a = {p.relative_to(out1): p.read_bytes() for p in sorted(out1.rglob("*")) if p.is_file()}
    b = {p.relative_to(out2): p.read_bytes() for p in sorted(out2.rglob("*")) if p.is_file()}
    assert a.keys() == b.keys()
    # the echoed config records the flag itself
    config = Path("config.effective.yaml")
    assert a[config].replace(b"threads: 1\n", b"threads: 2\n") == b[config]
    for name in a.keys() - {config}:
        assert a[name] == b[name], f"--threads 2 changed {name}"


def test_fedewc_skips_client_without_data(tmp_path):
    # Dirichlet(0.5) over 10 clients leaves client 8 without task-0 data at
    # seed 1; that client sits the round out instead of failing the run
    out = tmp_path / "empty-client"
    sets = [
        "experiment.method=fedewc", "experiment.seed=1", "experiment.n_tasks=4", "data.classes=8",
        "federation.clients=10", "federation.partition=dirichlet", "federation.alpha=0.5",
        "training.rounds=1", "training.epochs=1",
    ]
    assert main(["run", "--out", str(out)] + [f"--set={s}" for s in sets]) == EXIT_OK
    plan = json.loads((out / "data" / "plan.json").read_text())
    assert len(plan["client_shards"][0][8]) == 0
    records = [json.loads(line) for line in (out / "logs" / "training_rounds.jsonl").read_text().splitlines()]
    skipped = [r for r in records if r["task"] == 0 and r["client"] == 8]
    assert skipped == [{"task": 0, "round": 1, "client": 8, "samples": 0, "steps": 0}]
    assert all(r["steps"] > 0 for r in records if r["samples"] > 0)


def test_cli_train_on_a_corpus_row_outside_the_dump_is_a_data_error_naming_the_line(tmp_path, capsys):
    out = tmp_path / "outside-row"
    args = ["gen-data", "--out", str(out)] + [f"--set={s}" for s in MICRO + ["experiment.method=finetune"]]
    assert main(args) == EXIT_OK
    manifest = RunPaths(root=out).client_corpus_dir / "manifest.csv"
    (manifest.parent / "img_00001.pgm").rename(out / "outside.pgm")
    manifest.write_text(manifest.read_text().replace("img_00001.pgm", "../outside.pgm"))
    assert main(["train", "--out", str(out)]) == EXIT_DATA
    assert f"error: data: {manifest}: line 3: file name '../outside.pgm' is not a plain name" in capsys.readouterr().err


def test_cli_malformed_checkpoint_metadata_is_a_data_error(tmp_path, capsys):
    out = tmp_path / "bad-meta"
    assert main(["gen-data", "--out", str(out)] + [f"--set={s}" for s in MICRO]) == EXIT_OK
    ckpt = RunPaths(root=out).diffusion_ckpt
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    meta = b"[]"
    ckpt.write_bytes(b"DDDRCKPT" + (1).to_bytes(4, "little") + len(meta).to_bytes(4, "little") + meta)
    assert main(["invert", "--out", str(out)]) == EXIT_DATA
    assert "diffusion.ckpt" in capsys.readouterr().err


def test_cli_eval_on_a_checkpoint_that_repeats_a_name_is_a_data_error(micro_run, tmp_path, capsys):
    _, paths, _ = micro_run
    out = tmp_path / "repeated-name"
    shutil.copytree(paths.root, out)
    ckpt = RunPaths(root=out).classifier_ckpt(0)
    params, extra = load_checkpoint(ckpt)
    # "head.b" listed twice, with a payload for each: sizes add up, so only the name check can refuse it
    names = params.names() + ["head.b"]
    meta = {"names": names, "shapes": {k: list(v.shape) for k, v in params.items()},
            "counts": {k: int(v.size) for k, v in params.items()}, "extra": extra}
    text = json.dumps(meta, sort_keys=True).encode("utf-8")
    payload = b"".join(params[name].astype("<f4").tobytes() for name in names)
    ckpt.write_bytes(b"DDDRCKPT" + (1).to_bytes(4, "little") + len(text).to_bytes(4, "little") + text + payload)
    assert main(["eval", "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"error: data: {ckpt}: " in err and "'head.b' twice" in err


@pytest.mark.parametrize(
    "vector, message",
    [(np.zeros(3, np.float32), r"class 0: embedding shape \(3,\)"),
     (np.full(16, np.nan, np.float32), "class 0: embedding has non-finite entries")],
)
def test_cli_train_on_a_bad_embedding_is_a_data_error_naming_the_file(micro_run, tmp_path, capsys, vector, message):
    _, paths, _ = micro_run
    out = tmp_path / "bad-embedding"
    shutil.copytree(paths.root, out)
    ckpt = RunPaths(root=out).embeddings_ckpt
    params, extra = load_checkpoint(ckpt)
    save_checkpoint(ckpt, params.replace(class_00000=vector), extra=extra)
    assert main(["train", "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"error: data: {ckpt}: " in err and re.search(message, err)


@pytest.mark.parametrize("error", [RuntimeError("unexpected state"), GuardViolation("read of task 0 raw training data")])
def test_cli_internal_error_exits_4_with_traceback(tmp_path, monkeypatch, capsys, error):
    def broken_stage(cfg, paths):
        raise error

    monkeypatch.setattr("dddr.cli.stage_gen_data", broken_stage)
    args = ["gen-data", "--out", str(tmp_path / "bug")] + [f"--set={s}" for s in MICRO]
    assert main(args) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "Traceback (most recent call last)" in err and "broken_stage" in err
    assert f"error: internal: {type(error).__name__}: {error}" in err


def test_cli_scl_ablation_equals_zero_contrastive_weight(tmp_path):
    out1, out2 = tmp_path / "no-scl", tmp_path / "w1-zero"
    assert main(["run", "--out", str(out1)] + [f"--set={s}" for s in MICRO + ["ablation.scl=false"]]) == EXIT_OK
    assert main(["run", "--out", str(out2)] + [f"--set={s}" for s in MICRO + ["loss.w1=0"]]) == EXIT_OK
    a = {p.relative_to(out1): p.read_bytes() for p in sorted(out1.rglob("*")) if p.is_file()}
    b = {p.relative_to(out2): p.read_bytes() for p in sorted(out2.rglob("*")) if p.is_file()}
    assert a.keys() == b.keys()
    config = Path("config.effective.yaml")
    assert a[config] != b[config]
    for name in a.keys() - {config}:
        assert a[name] == b[name], f"ablation.scl=false and loss.w1=0 differ in {name}"
