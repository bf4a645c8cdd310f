"""Generation and caching of replay data from frozen class embeddings.

Replay sets are generated once per task from (class table, seed, counts) and
served identically to every client; that shared view is what lets the
generated current-task data soften the label skew between clients.

Each class draws from its own stream, `stream(seed, "replay-gen", class)`,
and the sampler runs over groups of whole classes at a time, stacked
into one pass of at most `SAMPLE_GROUP_ROWS` rows; a class's images are
the same bytes whichever group it is sampled in.

A saved cache is an image directory (`dddr.corpus`), written whole or not
at all, whose rows carry label, seed, class and a CRC32 over label and pixels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import DataFormatError, image_checksum, quantize01, read_image_dir, write_image_dir
from .diffusion import ConditionVector, PretrainedDiffusion, sample
from .rng import stream

# rows of one sampler pass over stacked classes: larger stacks take fewer
# passes, but every step holds a few arrays of this many latents, so the
# cap bounds the peak resident set
SAMPLE_GROUP_ROWS = 128


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


def generate_samples(
    table: dict[int, np.ndarray], rows: list[tuple[int, int]], model: PretrainedDiffusion, seed: int
) -> list[np.ndarray]:
    """Images of each (class, count) in `rows`, from the classes' frozen embeddings, in one sampler pass.

    Deterministic under seed. A class's images do not depend on the other
    classes of the pass, unless it has one row among others (see
    `diffusion.sample`). A class missing from the table raises KeyError.
    """
    conds = [ConditionVector(model.prompt, table[c]) for c, _ in rows]
    rngs = [stream(seed, "replay-gen", c) for c, _ in rows]
    counts = [n for _, n in rows]
    flat = sample(model.params, conds, sum(counts), model.sched, rngs, model.temb_table, counts=counts)
    images = quantize01(flat.reshape((-1,) + tuple(model.image_shape)))
    return np.split(images, np.cumsum(counts)[:-1])


def sample_groups(counts: list[int]) -> list[slice]:
    """Runs of consecutive classes, given their row counts, that one sampler pass each takes.

    A run holds at most SAMPLE_GROUP_ROWS rows. A 1-row class runs alone,
    and so does a class of more rows than that.
    """
    groups: list[slice] = []
    rows = 0
    for i, n in enumerate(counts):
        if groups and n > 1 and counts[groups[-1].start] > 1 and rows + n <= SAMPLE_GROUP_ROWS:
            groups[-1] = slice(groups[-1].start, i + 1)
            rows += n
        else:
            groups.append(slice(i, i + 1))
            rows = n
    return groups


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
    past, current = ReplayCache(seed=seed), ReplayCache(seed=seed)
    wanted = [(past, c, past_per_class) for c in sorted(past_classes)]
    wanted += [(current, c, current_per_class) for c in sorted(current_classes)]
    for group in sample_groups([n for _, _, n in wanted]):
        images = generate_samples(table, [(c, n) for _, c, n in wanted[group]], model, seed)
        for (cache, c, _), imgs in zip(wanted[group], images):
            cache.by_class[c] = imgs
    return past, current


CACHE_HEADER = ["filename", "label", "seed", "class", "checksum"]


def save_cache(cache: ReplayCache, directory: str | Path) -> Path:
    """PGM files plus manifest.csv (filename,label,seed,class,checksum), whole or not at all."""
    rows = ((f"cls{c:03d}_{i:04d}.pgm", img, c, cache.seed, c, image_checksum(img, c))
            for c in sorted(cache.by_class) for i, img in enumerate(cache.by_class[c]))
    return write_image_dir(directory, CACHE_HEADER, rows)


def load_cache(directory: str | Path) -> ReplayCache:
    """Read a cache, checking each row's checksum, that its class is its label and its seed the first row's."""
    grouped: dict[int, list[np.ndarray]] = {}
    seed = None
    for where, row, img in read_image_dir(directory, CACHE_HEADER):
        try:
            label, row_seed, cls, checksum = (int(v) for v in row[1:])
        except ValueError as exc:
            raise DataFormatError(f"{where}: bad integer field: {exc}") from exc
        if image_checksum(img, label) != checksum:
            raise DataFormatError(f"{where}: checksum mismatch for {row[0]} (tampered label or pixels?)")
        if cls != label:
            raise DataFormatError(f"{where}: class {cls} differs from label {label}")
        if seed is not None and row_seed != seed:
            raise DataFormatError(f"{where}: seed {row_seed} differs from the first row's {seed}")
        seed = row_seed
        grouped.setdefault(label, []).append(img)
    return ReplayCache({c: np.stack(imgs) for c, imgs in grouped.items()}, seed=seed or 0)
