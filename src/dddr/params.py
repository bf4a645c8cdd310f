"""Named parameter collections and the binary checkpoint format.

A ParamSet is an immutable-by-convention mapping from parameter name to a
float32 array. Names are kept in sorted order, so two ParamSets built from
the same architecture always agree on ordering regardless of construction
order; that is what makes cross-client aggregation and the checkpoint
payload layout deterministic.

Checkpoint layout (all integers little-endian):

    magic   8 bytes  b"DDDRCKPT"
    version u32      currently 1
    meta    u32 length + UTF-8 JSON text: names, shapes, counts, extra
    payload raw float32 little-endian arrays, one per name, in name order
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from .artifacts import writing

MAGIC = b"DDDRCKPT"
VERSION = 1


class CheckpointError(Exception):
    """Malformed or truncated checkpoint file."""


class ParamSet(Mapping[str, np.ndarray]):
    """Sorted name -> float32 ndarray mapping."""

    __slots__ = ("_data",)

    def __init__(self, values: Mapping[str, np.ndarray] | None = None) -> None:
        data: dict[str, np.ndarray] = {}
        for name in sorted(values or {}):
            arr = np.ascontiguousarray(values[name], dtype=np.float32)
            data[name] = arr
        self._data = data

    def __getitem__(self, name: str) -> np.ndarray:
        return self._data[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def names(self) -> list[str]:
        return list(self._data)

    def size(self) -> int:
        return sum(v.size for v in self._data.values())

    def replace(self, **updates: np.ndarray) -> "ParamSet":
        merged = dict(self._data)
        for name, arr in updates.items():
            if name not in merged:
                raise KeyError(name)
            merged[name] = arr
        return ParamSet(merged)

    def copy(self) -> "ParamSet":
        return ParamSet({k: v.copy() for k, v in self._data.items()})

    def astype(self, dtype) -> dict[str, np.ndarray]:
        return {k: v.astype(dtype) for k, v in self._data.items()}

    def __repr__(self) -> str:
        return f"ParamSet({len(self)} tensors, {self.size()} values)"


def _require_same_names(kernel: str, a: ParamSet, b: ParamSet) -> None:
    if a.names() != b.names():
        extra_a = sorted(set(a.names()) - set(b.names()))
        extra_b = sorted(set(b.names()) - set(a.names()))
        raise KeyError(f"{kernel}: parameter names differ; only-left={extra_a} only-right={extra_b}")


def weighted_mean_params(sets: list[ParamSet], weights: list[float]) -> ParamSet:
    """Deterministic index-ordered weighted mean with float64 accumulation."""
    if not sets:
        raise ValueError("weighted_mean_params: empty input")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("weighted_mean_params: non-positive total weight")
    for other in sets[1:]:
        _require_same_names("weighted_mean_params", sets[0], other)
    out: dict[str, np.ndarray] = {}
    for name in sets[0]:
        acc = np.zeros(sets[0][name].shape, dtype=np.float64)
        for ps, w in zip(sets, weights):
            acc += ps[name].astype(np.float64) * (w / total)
        out[name] = acc.astype(np.float32)
    return ParamSet(out)


def params_checksum(a: ParamSet) -> str:
    """SHA-256 over names, shapes, and payload bytes in name order."""
    h = hashlib.sha256()
    for name in a:
        h.update(name.encode("utf-8"))
        h.update(str(a[name].shape).encode("ascii"))
        h.update(np.ascontiguousarray(a[name], dtype="<f4").tobytes())
    return h.hexdigest()


def save_checkpoint(path: str | Path, params: ParamSet, extra: dict | None = None) -> None:
    meta = {
        "names": params.names(),
        "shapes": {k: list(v.shape) for k, v in params.items()},
        "counts": {k: int(v.size) for k, v in params.items()},
        "extra": extra or {},
    }
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    with writing(path) as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<I", len(meta_bytes)))
        f.write(meta_bytes)
        for name in params:
            f.write(np.ascontiguousarray(params[name], dtype="<f4").tobytes())


def load_checkpoint(path: str | Path) -> tuple[ParamSet, dict]:
    raw = Path(path).read_bytes()
    if len(raw) < len(MAGIC) + 8:
        raise CheckpointError(f"{path}: file too short for header")
    if raw[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {raw[:len(MAGIC)]!r}")
    version, meta_len = struct.unpack_from("<II", raw, len(MAGIC))
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    meta_start = len(MAGIC) + 8
    meta_end = meta_start + meta_len
    if meta_end > len(raw):
        raise CheckpointError(f"{path}: truncated metadata block")
    try:
        meta = json.loads(raw[meta_start:meta_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable metadata: {exc}") from exc
    values: dict[str, np.ndarray] = {}
    offset = meta_end
    for name, shape, count in _payload_layout(path, meta):
        nbytes = count * 4
        if offset + nbytes > len(raw):
            raise CheckpointError(f"{path}: truncated payload at parameter {name!r}")
        values[name] = np.frombuffer(raw, dtype="<f4", count=count, offset=offset).reshape(shape).copy()
        offset += nbytes
    if offset != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - offset} trailing bytes after payload")
    return ParamSet(values), meta.get("extra", {})


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _payload_layout(path, meta) -> list[tuple[str, tuple, int]]:
    """(name, shape, count) per payload array, or CheckpointError naming what is malformed."""
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: metadata is a JSON {type(meta).__name__}, not an object")
    for key, kind in (("names", list), ("shapes", dict), ("counts", dict)):
        if not isinstance(meta.get(key), kind):
            raise CheckpointError(f"{path}: metadata {key!r} is missing or not a {kind.__name__}")
    if not all(isinstance(name, str) for name in meta["names"]):
        raise CheckpointError(f"{path}: metadata 'names' holds a non-string entry")
    seen = set()
    for name in meta["names"]:
        if name in seen:
            raise CheckpointError(f"{path}: metadata 'names' lists parameter {name!r} twice")
        seen.add(name)
    layout = []
    for name in meta["names"]:
        shape, count = meta["shapes"].get(name), meta["counts"].get(name)
        if not (isinstance(shape, list) and all(_is_count(d) for d in shape)):
            raise CheckpointError(f"{path}: parameter {name!r} has no valid shape in metadata: {shape!r}")
        if not _is_count(count) or count != int(np.prod(shape)):
            raise CheckpointError(f"{path}: parameter {name!r} has a bad count in metadata: {count!r}")
        layout.append((name, tuple(shape), count))
    return layout
