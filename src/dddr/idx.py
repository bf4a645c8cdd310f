"""Reader for the IDX binary format used by small-image corpora.

Image files: big-endian magic 0x00000803, then u32 count/rows/cols and a
raw uint8 payload. Label files: magic 0x00000801, u32 count, uint8 labels.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .corpus import Corpus, DataFormatError

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class IdxMagicError(DataFormatError):
    pass


class IdxTruncatedError(DataFormatError):
    pass


class IdxCountMismatchError(DataFormatError):
    pass


def _read_u32s(path: Path, raw: bytes, n: int) -> tuple[int, ...]:
    if len(raw) < 4 * n:
        raise IdxTruncatedError(f"{path}: header needs {4 * n} bytes, file has {len(raw)}")
    return struct.unpack(f">{n}I", raw[: 4 * n])


def read_idx_images(path: str | Path) -> np.ndarray:
    path = Path(path)
    raw = path.read_bytes()
    magic, count, rows, cols = _read_u32s(path, raw, 4)
    if magic != IMAGE_MAGIC:
        raise IdxMagicError(f"{path}: expected image magic {IMAGE_MAGIC:#010x}, found {magic:#010x}")
    expected = count * rows * cols
    payload = raw[16:]
    if len(payload) != expected:
        raise IdxTruncatedError(f"{path}: expected {expected} pixel bytes, found {len(payload)}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(count, rows, cols).copy()


def read_idx_labels(path: str | Path) -> np.ndarray:
    path = Path(path)
    raw = path.read_bytes()
    magic, count = _read_u32s(path, raw, 2)
    if magic != LABEL_MAGIC:
        raise IdxMagicError(f"{path}: expected label magic {LABEL_MAGIC:#010x}, found {magic:#010x}")
    payload = raw[8:]
    if len(payload) != count:
        raise IdxTruncatedError(f"{path}: expected {count} label bytes, found {len(payload)}")
    return np.frombuffer(payload, dtype=np.uint8).copy()


def load_idx(images_path: str | Path, labels_path: str | Path) -> Corpus:
    """Load an image/label file pair into a corpus (pixels scaled by 1/255)."""
    images = read_idx_images(images_path)
    labels = read_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise IdxCountMismatchError(
            f"{images_path} holds {images.shape[0]} images but {labels_path} holds {labels.shape[0]} labels"
        )
    pixels = (images.astype(np.float32) / np.float32(255.0))[:, None, :, :]
    return Corpus(pixels, labels.astype(np.int64))

