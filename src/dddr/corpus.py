"""Labeled image corpora and image directories (PGM files + CSV manifest).

Pixels are float32 in [0, 1], always quantized to multiples of 1/255, so a
dump to 8-bit PGM and back reproduces them bit-exactly. Corpus dumps and
replay caches (`dddr.replay`) are both image directories: `write_image_dir`
stages one whole, manifest last, and `read_image_dir` streams its rows.
"""

from __future__ import annotations

import csv
import io
import zlib
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .artifacts import staged_dir, write_file


class DataFormatError(Exception):
    """Malformed on-disk data (bad header, truncation, inconsistent counts)."""


class Corpus:
    """A batch of labeled images stored as dense arrays."""

    def __init__(self, images: np.ndarray, labels: np.ndarray) -> None:
        images = np.asarray(images, dtype=np.float32)
        labels = np.asarray(labels, dtype=np.int64)
        if images.ndim != 4:
            raise ValueError(f"images must be (N, C, H, W), got {images.shape}")
        if labels.shape != (images.shape[0],):
            raise ValueError("labels must be one per image")
        if images.size and (images.min() < 0.0 or images.max() > 1.0):
            raise ValueError("pixel values must lie in [0, 1]")
        self.images = images
        self.labels = labels

    def __len__(self) -> int:
        return self.images.shape[0]

    @property
    def image_shape(self) -> tuple:
        return self.images.shape[1:]

    def classes(self) -> list[int]:
        return sorted(int(c) for c in np.unique(self.labels)) if len(self) else []

    def indices_of(self, label: int) -> np.ndarray:
        return np.nonzero(self.labels == label)[0]


def quantize01(images: np.ndarray) -> np.ndarray:
    """Clamp to [0, 1] and snap to the 8-bit grid (k/255)."""
    u8 = np.round(np.clip(images, 0.0, 1.0) * 255.0).astype(np.uint8)
    return (u8.astype(np.float32) / np.float32(255.0)).astype(np.float32)


def to_u8(image: np.ndarray) -> np.ndarray:
    return np.round(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)


def write_pgm(path: str | Path, image: np.ndarray) -> None:
    """Write one grayscale image as binary PGM (P5, maxval 255)."""
    img = np.asarray(image)
    if img.ndim == 3:
        if img.shape[0] != 1:
            raise DataFormatError(f"PGM supports a single channel, got shape {img.shape}")
        img = img[0]
    if img.ndim != 2:
        raise DataFormatError(f"PGM image must be 2-d, got shape {img.shape}")
    h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(to_u8(img).tobytes())


def read_pgm(path: str | Path) -> np.ndarray:
    """Read a binary PGM into a (1, H, W) float32 array in [0, 1]."""
    raw = Path(path).read_bytes()
    try:
        header, rest = raw.split(b"\n", 1)
        dims, rest = rest.split(b"\n", 1)
        maxval, payload = rest.split(b"\n", 1)
        if header != b"P5" or maxval != b"255":
            raise ValueError
        w, h = (int(v) for v in dims.split())
    except ValueError as exc:
        raise DataFormatError(f"{path}: not a maxval-255 binary PGM") from exc
    if len(payload) != w * h:
        raise DataFormatError(f"{path}: expected {w * h} pixel bytes, found {len(payload)}")
    img = np.frombuffer(payload, dtype=np.uint8).reshape(1, h, w)
    return (img.astype(np.float32) / np.float32(255.0)).astype(np.float32)


def image_checksum(pixels: np.ndarray, label: int) -> int:
    """CRC32 over the label and the 8-bit pixel payload."""
    crc = zlib.crc32(str(int(label)).encode("ascii"))
    return zlib.crc32(to_u8(pixels).tobytes(), crc)


def write_image_dir(directory: str | Path, header: list[str], rows: Iterable[tuple]) -> Path:
    """Stage rows (filename, image, *fields) as PGMs plus manifest.csv, written last; returns the manifest."""
    manifest = io.StringIO()
    lines = csv.writer(manifest)
    lines.writerow(header)
    with staged_dir(directory) as stage:
        for name, image, *fields in rows:
            write_pgm(stage / name, image)
            lines.writerow([name, *fields])
        write_file(stage / "manifest.csv", manifest.getvalue())
    return Path(directory) / "manifest.csv"


def read_image_dir(directory: str | Path, header: list[str]) -> Iterator[tuple[str, list[str], np.ndarray]]:
    """(manifest line for errors, fields, image) per row, one row at a time; the header must equal `header`."""
    manifest = Path(directory) / "manifest.csv"
    if not manifest.exists():
        raise DataFormatError(f"{manifest}: manifest not found")
    with open(manifest, newline="") as f:
        reader = csv.reader(f)
        found = next(reader, None)
        if found != header:
            raise DataFormatError(f"{manifest}: unexpected header {found}")
        for lineno, row in enumerate(reader, start=2):
            where = f"{manifest}: line {lineno}"
            if len(row) != len(header):
                raise DataFormatError(f"{where}: expected {len(header)} fields, got {len(row)}")
            yield where, row, read_pgm(manifest.parent / row[0])


def dump_corpus(corpus: Corpus, directory: str | Path) -> Path:
    """Write a corpus as img_%05d.pgm files plus manifest.csv (filename,label)."""
    rows = ((f"img_{i:05d}.pgm", corpus.images[i], int(corpus.labels[i])) for i in range(len(corpus)))
    return write_image_dir(directory, ["filename", "label"], rows)


def load_corpus(directory: str | Path) -> Corpus:
    images, labels = [], []
    for where, row, image in read_image_dir(directory, ["filename", "label"]):
        try:
            labels.append(int(row[1]))
        except ValueError as exc:
            raise DataFormatError(f"{where}: bad label {row[1]!r}") from exc
        images.append(image)
    if not images:
        return Corpus(np.zeros((0, 1, 1, 1), dtype=np.float32), np.zeros((0,), dtype=np.int64))
    return Corpus(np.stack(images), np.asarray(labels))
