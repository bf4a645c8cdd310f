import struct

import numpy as np
import pytest

from dddr.corpus import (
    Corpus,
    DataFormatError,
    dump_corpus,
    load_corpus,
    quantize01,
    read_pgm,
    write_pgm,
)
from dddr.idx import (
    IMAGE_MAGIC,
    LABEL_MAGIC,
    IdxCountMismatchError,
    IdxMagicError,
    IdxTruncatedError,
    load_idx,
)
from dddr.rng import stream


def write_idx_images(path, images: np.ndarray) -> None:
    """Write uint8 images of shape (N, H, W) as an IDX image file."""
    images = np.asarray(images, dtype=np.uint8)
    if images.ndim != 3:
        raise ValueError(f"images must be (N, H, W) uint8, got {images.shape}")
    n, h, w = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">4I", IMAGE_MAGIC, n, h, w))
        f.write(images.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    """Write labels 0..255 as an IDX label file."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.min(initial=0) < 0 or labels.max(initial=0) > 255:
        raise ValueError("labels must be a 1-d array of values 0..255")
    with open(path, "wb") as f:
        f.write(struct.pack(">2I", LABEL_MAGIC, labels.shape[0]))
        f.write(labels.astype(np.uint8).tobytes())


def test_idx_hand_built_file(tmp_path):
    # magic 0x00000803, dims (2, 4, 4), 32 payload bytes -> 2 images (1, 4, 4)
    images_path = tmp_path / "imgs.idx"
    payload = bytes(range(32))
    images_path.write_bytes(struct.pack(">4I", 0x00000803, 2, 4, 4) + payload)
    labels_path = tmp_path / "labels.idx"
    labels_path.write_bytes(struct.pack(">2I", 0x00000801, 2) + bytes([3, 7]))
    corpus = load_idx(images_path, labels_path)
    assert len(corpus) == 2
    assert corpus.image_shape == (1, 4, 4)
    assert list(corpus.labels) == [3, 7]


def test_idx_pixel_scaling_endpoint(tmp_path):
    images_path = tmp_path / "imgs.idx"
    images_path.write_bytes(struct.pack(">4I", 0x00000803, 1, 1, 1) + bytes([255]))
    labels_path = tmp_path / "labels.idx"
    labels_path.write_bytes(struct.pack(">2I", 0x00000801, 1) + bytes([0]))
    corpus = load_idx(images_path, labels_path)
    assert corpus.images[0, 0, 0, 0] == pytest.approx(1.0)


def test_idx_count_mismatch(tmp_path):
    images_path = tmp_path / "imgs.idx"
    images_path.write_bytes(struct.pack(">4I", 0x00000803, 2, 2, 2) + bytes(8))
    labels_path = tmp_path / "labels.idx"
    labels_path.write_bytes(struct.pack(">2I", 0x00000801, 3) + bytes(3))
    with pytest.raises(IdxCountMismatchError):
        load_idx(images_path, labels_path)


def test_idx_bad_magic(tmp_path):
    path = tmp_path / "imgs.idx"
    path.write_bytes(struct.pack(">4I", 0x00000999, 1, 1, 1) + bytes(1))
    with pytest.raises(IdxMagicError):
        load_idx(path, path)


def test_idx_truncated_payload(tmp_path):
    path = tmp_path / "imgs.idx"
    path.write_bytes(struct.pack(">4I", 0x00000803, 2, 2, 2) + bytes(5))
    with pytest.raises(IdxTruncatedError):
        load_idx(path, path)


def test_idx_round_trip_bit_exact(tmp_path):
    rng = stream(5, "idx-roundtrip")
    images = rng.integers(0, 256, size=(7, 6, 5)).astype(np.uint8)
    labels = rng.integers(0, 4, size=7).astype(np.uint8)
    write_idx_images(tmp_path / "i.idx", images)
    write_idx_labels(tmp_path / "l.idx", labels)
    corpus = load_idx(tmp_path / "i.idx", tmp_path / "l.idx")
    restored = np.round(corpus.images[:, 0] * 255).astype(np.uint8)
    assert np.array_equal(restored, images)
    assert np.array_equal(corpus.labels, labels)


def test_pgm_round_trip_bit_exact(tmp_path):
    rng = stream(6, "pgm")
    img = quantize01(rng.uniform(0, 1, size=(1, 9, 11)).astype(np.float32))
    write_pgm(tmp_path / "x.pgm", img)
    back = read_pgm(tmp_path / "x.pgm")
    assert back.shape == (1, 9, 11)
    assert np.array_equal(back, img)


def test_pgm_rejects_multichannel(tmp_path):
    with pytest.raises(DataFormatError):
        write_pgm(tmp_path / "x.pgm", np.zeros((3, 4, 4), dtype=np.float32))


def test_pgm_rejects_garbage(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(DataFormatError):
        read_pgm(path)


def test_corpus_dump_and_load_round_trip(tmp_path):
    rng = stream(7, "corpus")
    images = quantize01(rng.uniform(0, 1, size=(5, 1, 8, 8)).astype(np.float32))
    labels = np.array([0, 1, 0, 2, 1])
    corpus = Corpus(images, labels)
    dump_corpus(corpus, tmp_path / "dump")
    back = load_corpus(tmp_path / "dump")
    assert np.array_equal(back.images, corpus.images)
    assert np.array_equal(back.labels, corpus.labels)


def test_corpus_manifest_errors(tmp_path):
    corpus = Corpus(np.zeros((2, 1, 8, 8), dtype=np.float32), np.array([0, 1]))
    manifest = dump_corpus(corpus, tmp_path / "dump")
    lines = manifest.read_text().splitlines()
    lines[1] = "img_00000.pgm,notanint"
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match="line 2"):
        load_corpus(tmp_path / "dump")


def test_corpus_rejects_out_of_range_pixels():
    with pytest.raises(ValueError):
        Corpus(np.full((1, 1, 4, 4), 1.5, dtype=np.float32), np.array([0]))
