"""Output checks of one run directory, made apart from the program.

The checks read the artifacts through their documented byte formats
(checkpoint, binary PGM + manifest, plan.json, JSON logs) with code of
their own, and test either a recomputation or a property the method must
have. No check compares with a stored copy of an earlier output.

Each check returns a list of failure strings; an empty list passes.
"""

from __future__ import annotations

import csv
import json
import math
import struct
import zlib
from pathlib import Path

import numpy as np

PSNR_CAP_DB = 99.0


# -- readers --------------------------------------------------------------

def read_checkpoint(path: Path) -> dict[str, np.ndarray]:
    """magic DDDRCKPT, u32 version, u32 meta length + JSON, float32 payloads in name order."""
    raw = path.read_bytes()
    if raw[:8] != b"DDDRCKPT":
        raise ValueError(f"{path}: bad magic")
    _version, meta_len = struct.unpack_from("<II", raw, 8)
    meta = json.loads(raw[16 : 16 + meta_len])
    offset = 16 + meta_len
    out = {}
    for name in meta["names"]:
        count = int(np.prod(meta["shapes"][name], dtype=np.int64))
        out[name] = np.frombuffer(raw, dtype="<f4", count=count, offset=offset).reshape(meta["shapes"][name])
        offset += 4 * count
    if offset != len(raw):
        raise ValueError(f"{path}: {len(raw) - offset} bytes after the payload")
    return out


def read_pgm_u8(path: Path) -> np.ndarray:
    """Binary P5 with maxval 255 -> (H, W) uint8."""
    raw = path.read_bytes()
    magic, dims, maxval, payload = raw.split(b"\n", 3)
    w, h = (int(v) for v in dims.split())
    if magic != b"P5" or maxval != b"255" or len(payload) != w * h:
        raise ValueError(f"{path}: not a {w}x{h} maxval-255 binary PGM")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w)


def read_manifest(directory: Path) -> list[list[str]]:
    with open(directory / "manifest.csv", newline="") as f:
        return list(csv.reader(f))[1:]


def load_images(directory: Path, files: list[str]) -> np.ndarray:
    """Flattened float32 pixels k/255, as the program's reader produces them."""
    return np.stack([read_pgm_u8(directory / f).reshape(-1) for f in files]).astype(np.float32) / np.float32(255.0)


def mlp_predict(params: dict[str, np.ndarray], x: np.ndarray) -> np.ndarray:
    """relu(relu(x W1 + b1) W2 + b2) Wh + bh, argmax (lowest index on ties)."""
    h = np.maximum(x @ params["fe.w1"] + params["fe.b1"], np.float32(0.0))
    h = np.maximum(h @ params["fe.w2"] + params["fe.b2"], np.float32(0.0))
    return np.argmax(h @ params["head.w"] + params["head.b"], axis=-1)


# -- checks -----------------------------------------------------------------

def check_accuracy(run: Path) -> list[str]:
    """Recompute every accuracy-matrix entry and avg_acc from checkpoints and test images.

    Tolerance: an entry may differ by at most one test image of its class
    (a near-tie whose argmax flips under another summation order).
    """
    fails = []
    plan = json.loads((run / "data" / "plan.json").read_text())
    corpus = run / "data" / "client"
    rows = read_manifest(corpus)
    files = [r[0] for r in rows]
    labels = np.array([int(r[1]) for r in rows])
    test = {int(c): np.asarray(idx, dtype=np.int64) for c, idx in plan["test_by_class"].items()}
    images = load_images(corpus, [files[i] for c in sorted(test) for i in test[c]])
    test_labels = np.concatenate([np.full(test[c].size, c) for c in sorted(test)])
    if not np.array_equal(test_labels, np.concatenate([labels[test[c]] for c in sorted(test)])):
        fails.append("plan.json test split does not match the corpus labels")

    csv_rows = {}
    for line in (run / "accuracy.csv").read_text().splitlines()[1:]:
        t, c, a = line.split(",")
        csv_rows[(int(t), int(c))] = float(a)
    recomputed = {}
    for t in range(plan["n_tasks"]):
        params = read_checkpoint(run / "checkpoints" / f"classifier_task_{t:02d}.ckpt")
        seen = sorted(c for ys in plan["label_sets"][: t + 1] for c in ys)
        mask = np.isin(test_labels, seen)
        pred = mlp_predict(params, images[mask])
        for c in seen:
            recomputed[(t, c)] = float(np.mean(pred[test_labels[mask] == c] == c))
    if set(csv_rows) != set(recomputed):
        fails.append(f"accuracy.csv holds entries {sorted(set(csv_rows) ^ set(recomputed))} it should not, or lacks them")
    for key, acc in recomputed.items():
        if key in csv_rows and abs(csv_rows[key] - acc) > 1.0 / test[key[1]].size + 1e-12:
            fails.append(f"accuracy.csv task {key[0]} class {key[1]}: {csv_rows[key]} but recomputed {acc}")

    metrics = json.loads((run / "metrics.json").read_text())
    last = plan["n_tasks"] - 1
    final = [recomputed[(last, c)] for c in sorted(test)]
    tol = float(np.mean([1.0 / test[c].size for c in sorted(test)])) + 1e-12
    if abs(metrics["average_accuracy"] - float(np.mean(final))) > tol:
        fails.append(f"metrics.json average_accuracy {metrics['average_accuracy']} but recomputed {np.mean(final)}")
    return fails


def check_summary(run: Path) -> list[str]:
    fails = []
    metrics = json.loads((run / "metrics.json").read_text())
    chance = 1.0 / metrics["n_classes"]
    if not metrics["average_accuracy"] > chance:
        fails.append(f"avg_acc {metrics['average_accuracy']} is not above chance {chance}")
    if metrics["past_data_reads"] != 0:
        fails.append(f"past_data_reads is {metrics['past_data_reads']}")
    eval_json = run / "metrics_eval.json"
    if eval_json.exists() and eval_json.read_bytes() != (run / "metrics.json").read_bytes():
        fails.append("metrics_eval.json differs from metrics.json")
    return fails


def check_pretrain(run: Path) -> list[str]:
    last = json.loads((run / "logs" / "pretrain_loss.jsonl").read_text().splitlines()[-1])
    if not last["probe_final"] < last["probe_initial"]:
        return [f"pretraining probe loss did not fall: {last['probe_initial']} -> {last['probe_final']}"]
    return []


def check_inversion(run: Path, scope: str = "every class") -> list[str]:
    """Mean probe loss after the last round < before the first round.

    The probe batch of a (task, client, class) is the same in every round,
    so the losses of different rounds compare embeddings. With scope
    "every class" the inequality must hold for each class; with "all
    classes", for the mean over classes.
    """
    by_class: dict[int, dict[int, list[float]]] = {}
    for line in (run / "logs" / "inversion_rounds.jsonl").read_text().splitlines():
        rec = json.loads(line)
        if rec["participated"]:
            by_class.setdefault(rec["class"], {}).setdefault(rec["round"], []).append(rec)
    pairs = {
        c: (np.mean([r["loss_start"] for r in rounds[min(rounds)]]), np.mean([r["loss_end"] for r in rounds[max(rounds)]]))
        for c, rounds in sorted(by_class.items())
    }
    if scope == "all classes":
        pairs = {"all": tuple(np.mean([p[i] for p in pairs.values()]) for i in (0, 1))}
    return [f"class {c}: inversion probe loss did not fall ({first:.5f} -> {last:.5f})"
            for c, (first, last) in pairs.items() if not last < first]


def check_replay(run: Path, past_per_class: int, current_per_class: int) -> list[str]:
    """Counts per class as configured, 8-bit pixels, CRCs over label + pixels."""
    fails = []
    plan = json.loads((run / "data" / "plan.json").read_text())
    for t, label_set in enumerate(plan["label_sets"]):
        past = sorted(c for ys in plan["label_sets"][:t] for c in ys)
        for which, classes, per_class in (("past", past, past_per_class), ("current", sorted(label_set), current_per_class)):
            directory = run / "replay" / f"task_{t:02d}" / which
            rows = read_manifest(directory)
            counts = {}
            for name, label, _seed, _cls, crc in rows:
                counts[int(label)] = counts.get(int(label), 0) + 1
                pixels = read_pgm_u8(directory / name)
                if zlib.crc32(pixels.tobytes(), zlib.crc32(label.encode("ascii"))) != int(crc):
                    fails.append(f"{directory.name}/{name}: CRC mismatch")
            if counts != {c: per_class for c in classes}:
                fails.append(f"task {t} {which} cache holds {counts}, expected {per_class} of each of {classes}")
    return fails


def check_replay_reload(run: Path) -> list[str]:
    """The program's own reader reloads every cache (verifying CRCs) onto the k/255 grid in [0, 1]."""
    from dddr.corpus import DataFormatError
    from dddr.replay import load_cache

    fails = []
    for manifest in sorted((run / "replay").glob("task_*/*/manifest.csv")):
        try:
            cache = load_cache(manifest.parent)
        except DataFormatError as exc:
            fails.append(f"{manifest.parent}: reload failed: {exc}")
            continue
        for c, imgs in cache.by_class.items():
            k = imgs * np.float32(255.0)
            if imgs.min() < 0 or imgs.max() > 1 or not np.array_equal(k, np.round(k)):
                fails.append(f"{manifest.parent} class {c}: pixels off the k/255 grid or outside [0, 1]")
    return fails


def check_audit(run: Path) -> list[str]:
    fails = []
    for rec in json.loads((run / "audit.json").read_text()):
        p = rec["best_psnr"]
        if not (math.isfinite(p) and p < PSNR_CAP_DB):
            fails.append(f"class {rec['class']}: audit PSNR {p} not finite or not below {PSNR_CAP_DB} dB")
    return fails


def check_run(run: Path, cfg: dict, stages: list[str], inversion_scope: str = "every class") -> dict[str, list[str]]:
    """Every check that applies to this run, by name; an unreadable artifact fails its check."""
    todo = {"accuracy": lambda: check_accuracy(run), "summary": lambda: check_summary(run)}
    if "pretrain" in stages:
        todo["pretrain"] = lambda: check_pretrain(run)
    if "invert" in stages:
        todo["inversion"] = lambda: check_inversion(run, inversion_scope)
    if cfg["experiment"]["method"] == "dddr":
        todo["replay"] = lambda: check_replay(run, cfg["replay"]["past_per_class"], cfg["replay"]["current_per_class"])
        todo["replay_reload"] = lambda: check_replay_reload(run)
    if "audit" in stages:
        todo["audit"] = lambda: check_audit(run)
    results = {}
    for name, check in todo.items():
        try:
            results[name] = check()
        except (OSError, ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
            results[name] = [f"unreadable artifact: {type(exc).__name__}: {exc}"]
    return results
