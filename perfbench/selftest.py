"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs each workload's wiring (same method and stages, tiny sizes) once,
requires every check to pass on the clean run directory, then corrupts a
copy of it in one way at a time and requires the named check to fail.
The traced-run checks (FedAvg recomputation, Fisher entries) are fed a
correct and a corrupted result directly. Takes about a minute; it is not
part of the test suite.
"""

from __future__ import annotations

import json
import shutil
import struct
import sys
import tempfile
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run as bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 7
TINY = {
    "data": {"classes": 4, "samples_per_class": 40, "pretrain_samples_per_class": 40},
    "federation": {"clients": 2},
    "diffusion": {"timesteps": 20, "hidden": 64, "pretrain_steps": 600},
    "inversion": {"rounds": 2, "local_steps": 30},
    "training": {"rounds": 2, "epochs": 2},
    "replay": {"past_per_class": 6, "current_per_class": 6},
    "ewc": {"fisher_samples": 8},
}


# -- corruptions: each edits a run directory in place ----------------------

def flip_checkpoint_byte(run: Path) -> None:
    """Overwrite the top byte of head.b[0] in the first classifier checkpoint with 0x7E.

    The bias becomes about 1e38, so every test image is predicted as class 0.
    """
    path = run / "checkpoints" / "classifier_task_00.ckpt"
    raw = bytearray(path.read_bytes())
    (meta_len,) = struct.unpack_from("<I", raw, 12)
    meta = json.loads(raw[16 : 16 + meta_len])
    offset = 16 + meta_len + 4 * sum(meta["counts"][n] for n in meta["names"][: meta["names"].index("head.b")])
    raw[offset + 3] = 0x7E
    path.write_bytes(bytes(raw))


def edit_accuracy_csv(run: Path) -> None:
    path = run / "accuracy.csv"
    lines = path.read_text().splitlines()
    t, c, a = lines[1].split(",")
    value = 1.0 - float(a) if float(a) != 0.5 else 0.0
    lines[1] = f"{t},{c},{value!r}"
    path.write_text("\n".join(lines) + "\n")


def edit_metrics(**fields):
    """Set report fields in metrics.json and metrics_eval.json; a callable maps the old value."""
    def apply(run: Path) -> None:
        for name in ("metrics.json", "metrics_eval.json"):
            path = run / name
            if path.exists():
                obj = json.loads(path.read_text())
                obj.update({k: v(obj[k]) if callable(v) else v for k, v in fields.items()})
                path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    return apply


def edit_metrics_eval(run: Path) -> None:
    path = run / "metrics_eval.json"
    path.write_text(path.read_text().replace('"past_data_reads": 0', '"past_data_reads": 0 '))


def swap_pretrain_probe(run: Path) -> None:
    path = run / "logs" / "pretrain_loss.jsonl"
    lines = path.read_text().splitlines()
    last = json.loads(lines[-1])
    last["probe_initial"], last["probe_final"] = last["probe_final"], last["probe_initial"]
    path.write_text("\n".join(lines[:-1] + [json.dumps(last, sort_keys=True)]) + "\n")


def raise_last_inversion_round(run: Path) -> None:
    path = run / "logs" / "inversion_rounds.jsonl"
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    last = max(r["round"] for r in recs)
    for r in recs:
        if r["round"] == last and r["participated"] and r["class"] == recs[0]["class"]:
            r["loss_end"] = r["loss_end"] * 10.0
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in recs))


def _current_cache(run: Path) -> Path:
    return run / "replay" / "task_00" / "current"


def drop_replay_image(run: Path) -> None:
    directory = _current_cache(run)
    lines = (directory / "manifest.csv").read_text().splitlines()
    (directory / lines[-1].split(",")[0]).unlink()
    (directory / "manifest.csv").write_text("\n".join(lines[:-1]) + "\n")


def flip_replay_pixel(run: Path) -> None:
    directory = _current_cache(run)
    name = (directory / "manifest.csv").read_text().splitlines()[1].split(",")[0]
    raw = bytearray((directory / name).read_bytes())
    raw[-1] ^= 0x01
    (directory / name).write_bytes(bytes(raw))


def widen_replay_maxval(run: Path) -> None:
    directory = _current_cache(run)
    name = (directory / "manifest.csv").read_text().splitlines()[1].split(",")[0]
    raw = (directory / name).read_bytes()
    (directory / name).write_bytes(raw.replace(b"\n255\n", b"\n254\n", 1))


def cap_audit_psnr(run: Path) -> None:
    path = run / "audit.json"
    recs = json.loads(path.read_text())
    recs[0]["best_psnr"] = checks.PSNR_CAP_DB
    path.write_text(json.dumps(recs))


COMMON = [
    ("checkpoint payload byte flipped", "accuracy", flip_checkpoint_byte),
    ("accuracy.csv value edited", "accuracy", edit_accuracy_csv),
    ("metrics.json avg_acc edited", "accuracy", edit_metrics(average_accuracy=lambda a: a - 0.5 if a > 0.5 else a + 0.5)),
    ("avg_acc at chance", "summary", edit_metrics(average_accuracy=0.01)),
    ("past-task reads recorded", "summary", edit_metrics(past_data_reads=1)),
    ("metrics_eval.json differs", "summary", edit_metrics_eval),
]
DDDR = [
    ("pretraining probe loss rose", "pretrain", swap_pretrain_probe),
    ("inversion probe loss rose", "inversion", raise_last_inversion_round),
    ("replay cache short by one image", "replay", drop_replay_image),
    ("replay pixel byte flipped", "replay", flip_replay_pixel),
    ("replay pixel byte flipped, program reader", "replay_reload", flip_replay_pixel),
    ("replay PGM off the 8-bit grid", "replay", widen_replay_maxval),
    ("audit PSNR at the cap", "audit", cap_audit_psnr),
]


def selftest_traced_checks() -> list[str]:
    import numpy as np
    from dddr.federation import ClientUpdate, aggregate_classifier
    from dddr.params import ParamSet

    rng = np.random.default_rng(0)
    updates = [ClientUpdate(j, ParamSet({"w": rng.normal(size=(3, 4)), "b": rng.normal(size=4)}), n)
               for j, n in enumerate((5, 17, 9))]
    good = aggregate_classifier(updates)
    cases = [
        ("FedAvg result", tracer.check_aggregate, (updates,), good, False),
        ("FedAvg result perturbed", tracer.check_aggregate, (updates,), good.replace(w=good["w"] + np.float32(1e-3)), True),
        ("Fisher entries", tracer.check_fisher, (), ParamSet({"w": np.full((2, 2), 0.5)}), False),
        ("Fisher entry negative", tracer.check_fisher, (), ParamSet({"w": np.full((2, 2), -1.0)}), True),
    ]
    out = []
    for label, check, args, result, should_fail in cases:
        try:
            check(args, {}, result)
            failed = False
        except AssertionError:
            failed = True
        ok = failed == should_fail
        print(f"  {'ok  ' if ok else 'FAIL'} traced check, {label}: {'fails' if failed else 'passes'}")
        if not ok:
            out.append(label)
    return out


def main() -> int:
    problems = []
    (HERE / "runs").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=HERE / "runs"))
    try:
        for name in workloads.WORKLOADS:
            cfg = workloads.build_config(name, SEED)
            for section, values in TINY.items():
                cfg.setdefault(section, {}).update(values)
            cfg["data"]["classes"] = 2 * cfg["experiment"]["n_tasks"]
            work = scratch / name
            work.mkdir(parents=True)
            (work / "config.yaml").write_text(yaml.safe_dump(cfg))
            from dddr.config import parse_config

            full = parse_config(work / "config.yaml").values
            stages = workloads.stages(name)
            runs = [bench.run_round(work, i, work / "config.yaml", stages, traced=(i == 1)) for i in range(2)]
            print(f"{name}:")
            if not all(r["ok"] for r in runs):
                problems.append(f"{name}: tiny run crashed: {[r.get('error') for r in runs]}")
                continue
            clean = {k: v for k, v in checks.check_run(runs[0]["run"], full, stages, workloads.inversion_check(name)).items() if v}
            clean_ok = not clean and not runs[1]["trace_failures"]
            print(f"  {'ok  ' if clean_ok else 'FAIL'} clean run passes every check {clean or ''}")
            if not clean_ok:
                problems.append(f"{name}: clean run fails {clean} {runs[1]['trace_failures']}")
            same = bench.result_digest(runs[0]["run"]) == bench.result_digest(runs[1]["run"])
            print(f"  {'ok  ' if same else 'FAIL'} untraced and traced reruns are byte-identical")
            if not same:
                problems.append(f"{name}: reruns differ")
            cases = COMMON + (DDDR if cfg["experiment"]["method"] == "dddr" else [])
            for i, (label, check, corrupt) in enumerate(cases):
                copy = work / f"corrupt{i}"
                shutil.copytree(runs[0]["run"], copy)
                corrupt(copy)
                fails = checks.check_run(copy, full, stages, workloads.inversion_check(name))
                caught = bool(fails.get(check))
                print(f"  {'ok  ' if caught else 'FAIL'} {label}: check '{check}' "
                      f"{'fails' if caught else 'does not fail'}")
                if not caught:
                    problems.append(f"{name}: {label} not caught by {check}")
                if check == "accuracy" and corrupt is edit_accuracy_csv:
                    caught = bench.result_digest(copy) != bench.result_digest(runs[0]["run"])
                    print(f"  {'ok  ' if caught else 'FAIL'} {label}: rerun determinism check "
                          f"{'fails' if caught else 'does not fail'}")
                    if not caught:
                        problems.append(f"{name}: {label} not caught by the rerun determinism check")
                shutil.rmtree(copy)
        print("traced-run checks:")
        problems += selftest_traced_checks()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest:", "PASS" if not problems else f"FAIL {problems}")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
