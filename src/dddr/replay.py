"""Generation and caching of replay data from frozen class embeddings.

Replay sets are generated once per task from (class table, seed, counts) and
served identically to every client; that shared view is what lets the
generated current-task data soften the label skew between clients.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import DataFormatError, image_checksum, quantize01, read_pgm, write_pgm
from .diffusion import ConditionVector, PretrainedDiffusion, sample
from .rng import stream


@dataclass
class ReplayCache:
    by_class: dict[int, np.ndarray] = field(default_factory=dict)  # label -> (n, C, H, W)
    seed: int = 0

    def counts(self) -> dict[int, int]:
        return {c: int(v.shape[0]) for c, v in sorted(self.by_class.items())}

    def as_batch(self, classes: list[int] | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Stacked (images, labels) over the given classes (all by default)."""
        keys = sorted(self.by_class) if classes is None else sorted(classes)
        piles, labels = [], []
        for c in keys:
            imgs = self.by_class[c]
            piles.append(imgs)
            labels.append(np.full(imgs.shape[0], c, dtype=np.int64))
        if not piles:
            return (np.zeros((0, 1, 1, 1), dtype=np.float32), np.zeros((0,), dtype=np.int64))
        return np.concatenate(piles), np.concatenate(labels)


def generate_class_samples(
    table: dict[int, np.ndarray], class_index: int, n: int, model: PretrainedDiffusion, seed: int
) -> np.ndarray:
    """n images of `class_index` from its frozen embedding; deterministic under seed."""
    cond = ConditionVector(model.prompt, table[class_index])  # KeyError when not inverted
    rng = stream(seed, "replay-gen", class_index)
    flat = sample(model.params, cond, n, model.sched, rng, model.temb_table)
    return quantize01(flat.reshape((n,) + tuple(model.image_shape)))


def build_replay_sets(
    table: dict[int, np.ndarray],
    past_classes: list[int],
    current_classes: list[int],
    past_per_class: int,
    current_per_class: int,
    model: PretrainedDiffusion,
    seed: int,
) -> tuple[ReplayCache, ReplayCache]:
    """(history cache, current-task cache); the history cache is empty on the first task."""
    past = ReplayCache(seed=seed)
    for c in sorted(past_classes):
        past.by_class[c] = generate_class_samples(table, c, past_per_class, model, seed)
    current = ReplayCache(seed=seed)
    for c in sorted(current_classes):
        current.by_class[c] = generate_class_samples(table, c, current_per_class, model, seed)
    return past, current


def save_cache(cache: ReplayCache, directory: str | Path) -> Path:
    """PGM files plus manifest.csv (filename,label,seed,class,checksum)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = directory / "manifest.csv"
    with open(manifest, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["filename", "label", "seed", "class", "checksum"])
        for c in sorted(cache.by_class):
            for i, img in enumerate(cache.by_class[c]):
                name = f"cls{c:03d}_{i:04d}.pgm"
                write_pgm(directory / name, img)
                writer.writerow([name, c, cache.seed, c, image_checksum(img, c)])
    return manifest


def load_cache(directory: str | Path) -> ReplayCache:
    directory = Path(directory)
    manifest = directory / "manifest.csv"
    if not manifest.exists():
        raise DataFormatError(f"{manifest}: manifest not found")
    grouped: dict[int, list[np.ndarray]] = {}
    seed = 0
    with open(manifest, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != ["filename", "label", "seed", "class", "checksum"]:
            raise DataFormatError(f"{manifest}: unexpected header {header}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 5:
                raise DataFormatError(f"{manifest}: line {lineno}: expected 5 fields, got {len(row)}")
            try:
                label, seed, checksum = int(row[1]), int(row[2]), int(row[4])
            except ValueError as exc:
                raise DataFormatError(f"{manifest}: line {lineno}: bad integer field: {exc}") from exc
            img = read_pgm(directory / row[0])
            if image_checksum(img, label) != checksum:
                raise DataFormatError(
                    f"{manifest}: line {lineno}: checksum mismatch for {row[0]} (tampered label or pixels?)"
                )
            grouped.setdefault(label, []).append(img)
    cache = ReplayCache(seed=seed)
    for c, imgs in grouped.items():
        cache.by_class[c] = np.stack(imgs)
    return cache
