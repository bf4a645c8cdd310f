"""How every run artifact reaches the disk: whole or not at all.

A file is written to `.<name>.partial` beside its target and moved into
place with `os.replace`; a directory (a corpus dump, a replay cache) is
built as `.<name>.partial` beside its target and renamed into place when
the block that fills it succeeds. A killed process leaves at most such a
`.partial` name behind, never a cut artifact under the real name; the
next write to that target removes it. Durability across a power loss
(fsync) is not part of the contract.
"""

from __future__ import annotations

import os
import shutil
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator


def _partial(path: Path, suffix: str = "partial") -> Path:
    return path.parent / f".{path.name}.{suffix}"


@contextmanager
def writing(path: str | Path) -> Iterator[BinaryIO]:
    """A binary file handle whose bytes replace `path` only when the block succeeds."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = _partial(path)
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_file(path: str | Path, data: bytes | str) -> None:
    """Write `data` (text as UTF-8) to `path` whole."""
    with writing(path) as f:
        f.write(data.encode("utf-8") if isinstance(data, str) else data)


@contextmanager
def staged_dir(path: str | Path) -> Iterator[Path]:
    """An empty directory that replaces `path` only when the block succeeds.

    On an exception the staged directory is removed and `path` keeps what
    it held. An existing `path` is moved aside before the new one is
    renamed in, so a kill between the two renames leaves no directory at
    `path` rather than a mix of old and new files.
    """
    path = Path(path)
    stage, aside = _partial(path), _partial(path, "old.partial")
    for leftover in (stage, aside):
        shutil.rmtree(leftover, ignore_errors=True)
    stage.mkdir(parents=True)
    try:
        yield stage
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        raise
    if path.exists():
        os.rename(path, aside)
    os.rename(stage, path)
    shutil.rmtree(aside, ignore_errors=True)
