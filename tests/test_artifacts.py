"""Artifacts land whole or not at all, and only `dddr.artifacts` decides how.

Interrupted writes are simulated by raising from the PGM writer partway
through a directory, or from a file handle that runs out of room partway
through a file: the target must then hold what it held before (or
nothing), never a shorter artifact that still reads as valid, and no
`.partial` staging name may be left behind.
"""

import ast
import errno
from pathlib import Path

import numpy as np
import pytest

from dddr import artifacts, corpus, experiment
from dddr.artifacts import staged_dir, write_file
from dddr.corpus import Corpus, DataFormatError, dump_corpus, load_corpus, quantize01
from dddr.params import ParamSet, load_checkpoint, save_checkpoint
from dddr.replay import ReplayCache, load_cache, save_cache
from dddr.rng import stream

SRC = Path(experiment.__file__).resolve().parent


def _images(n: int, tag: str) -> np.ndarray:
    return quantize01(stream(3, "artifacts", tag).uniform(0, 1, size=(n, 1, 6, 6)).astype(np.float32))


def _cache(per_class: int, seed: int) -> ReplayCache:
    return ReplayCache({c: _images(per_class, f"cache{c}") for c in range(4)}, seed=seed)


def _partials(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*.partial"))


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _fail_pgm_after(monkeypatch, n: int) -> None:
    real, calls = corpus.write_pgm, []

    def failing(path, image):
        if len(calls) == n:
            raise OSError(errno.ENOSPC, "no space left on device")
        calls.append(path)
        real(path, image)

    monkeypatch.setattr(corpus, "write_pgm", failing)


class _ShortFile:
    """A binary file that takes `room` bytes, then raises as a full disk would."""

    def __init__(self, f, room: int) -> None:
        self.f, self.room = f, room

    def write(self, data: bytes) -> int:
        if len(data) > self.room:
            self.f.write(data[: self.room])
            raise OSError(errno.ENOSPC, "no space left on device")
        self.room -= len(data)
        return self.f.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.f.close()


def _fail_files_after(monkeypatch, room: int) -> None:
    monkeypatch.setattr(artifacts, "open", lambda path, mode: _ShortFile(open(path, mode), room), raising=False)


@pytest.mark.parametrize("previous", [False, True])
def test_interrupted_save_cache_leaves_the_previous_cache_or_none(tmp_path, monkeypatch, previous):
    target = tmp_path / "task_01" / "past"
    if previous:
        save_cache(_cache(3, seed=7), target)
    before = _tree(tmp_path)
    _fail_pgm_after(monkeypatch, 120)
    with pytest.raises(OSError, match="no space"):
        save_cache(_cache(50, seed=8), target)
    assert _tree(tmp_path) == before
    assert _partials(tmp_path) == []
    if previous:
        assert load_cache(target).counts() == {0: 3, 1: 3, 2: 3, 3: 3}
    else:
        assert not target.exists()
        with pytest.raises(DataFormatError, match="manifest not found"):
            load_cache(target)


@pytest.mark.parametrize("previous", [False, True])
def test_interrupted_dump_corpus_leaves_the_previous_dump_or_none(tmp_path, monkeypatch, previous):
    target = tmp_path / "data" / "client"
    if previous:
        dump_corpus(Corpus(_images(5, "old"), np.arange(5) % 2), target)
    before = _tree(tmp_path)
    _fail_pgm_after(monkeypatch, 30)
    with pytest.raises(OSError, match="no space"):
        dump_corpus(Corpus(_images(60, "new"), np.arange(60) % 3), target)
    assert _tree(tmp_path) == before
    assert _partials(tmp_path) == []
    if previous:
        assert len(load_corpus(target)) == 5
    else:
        assert not target.exists()


def test_image_directory_replaces_a_larger_one_whole(tmp_path):
    target = tmp_path / "cache"
    save_cache(_cache(5, seed=1), target)
    save_cache(ReplayCache({2: _images(2, "small")}, seed=2), target)
    assert sorted(p.name for p in target.iterdir()) == ["cls002_0000.pgm", "cls002_0001.pgm", "manifest.csv"]
    assert load_cache(target).counts() == {2: 2}
    assert _partials(tmp_path) == []


def test_interrupted_checkpoint_keeps_the_old_bytes(tmp_path, monkeypatch):
    path = tmp_path / "checkpoints" / "classifier_task_00.ckpt"
    save_checkpoint(path, ParamSet({"a": np.ones(3), "b": np.zeros((2, 2))}), extra={"task": 0})
    old = path.read_bytes()
    _fail_files_after(monkeypatch, 1000)
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(path, ParamSet({"a": np.full(300, 2.0), "b": np.ones((20, 20))}), extra={"task": 1})
    assert path.read_bytes() == old
    assert _partials(tmp_path) == []
    params, extra = load_checkpoint(path)
    assert extra == {"task": 0} and params["a"].shape == (3,)


def test_interrupted_jsonl_log_keeps_the_old_bytes(tmp_path, monkeypatch):
    path = tmp_path / "logs" / "training_rounds.jsonl"
    experiment._write_jsonl(path, [{"round": 1}, {"round": 2}])
    old = path.read_bytes()
    _fail_files_after(monkeypatch, 30)
    with pytest.raises(OSError, match="no space"):
        experiment._write_jsonl(path, [{"round": r, "loss": 0.5} for r in range(10)])
    assert path.read_bytes() == old
    assert _partials(tmp_path) == []


def test_write_file_creates_parents_and_replaces(tmp_path):
    path = tmp_path / "a" / "b" / "metrics.json"
    write_file(path, "{}\n")
    write_file(path, b"[1]\n")
    assert path.read_bytes() == b"[1]\n"
    assert sorted(p.name for p in path.parent.iterdir()) == ["metrics.json"]


def test_staged_dir_clears_leftovers_and_keeps_the_old_directory_on_error(tmp_path):
    target = tmp_path / "out"
    target.mkdir()
    (target / "kept").write_text("old")
    (tmp_path / ".out.partial").mkdir()  # left by a killed run
    (tmp_path / ".out.partial" / "stale").write_text("x")
    with pytest.raises(RuntimeError):
        with staged_dir(target) as stage:
            assert list(stage.iterdir()) == []
            (stage / "new").write_text("new")
            raise RuntimeError("stop")
    assert _tree(tmp_path) == {"out/kept": b"old"}
    with staged_dir(target) as stage:
        (stage / "new").write_text("new")
    assert _tree(tmp_path) == {"out/new": b"new"}


# -- guard: no module but dddr.artifacts opens a file for writing ------------

WRITE_ATTRS = {"write_text", "write_bytes", "mkdir"}
# (module, function) pairs allowed to write directly: the PGM writer, which
# runs only inside a staged image directory
ALLOWED = {("corpus.py", "write_pgm")}


def _calls(path: Path) -> list[tuple[str, ast.Call]]:
    """(enclosing function, call) for every call in one module."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            name = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            if isinstance(child, ast.Call):
                found.append((name, child))
            visit(child, name)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def _callee(call: ast.Call) -> str | None:
    f = call.func
    return f.attr if isinstance(f, ast.Attribute) else f.id if isinstance(f, ast.Name) else None


def _opens_for_writing(call: ast.Call) -> bool:
    # open(path, mode) or path.open(mode), or mode= given by name
    slot = 0 if isinstance(call.func, ast.Attribute) else 1
    modes = [k.value for k in call.keywords if k.arg == "mode"] + call.args[slot:slot + 1]
    return any(isinstance(m, ast.Constant) and set(str(m.value)) & set("wax+") for m in modes)


def _direct_writes(path: Path) -> list[tuple[str, int, str]]:
    """(function, line, what) for every direct write in one module."""
    return [
        (func, call.lineno, _callee(call)) for func, call in _calls(path)
        if _callee(call) in WRITE_ATTRS or (_callee(call) == "open" and _opens_for_writing(call))
    ]


def test_only_the_artifact_writer_writes_files():
    offenders = [
        f"{path.name}:{line} {what} in {func}"
        for path in sorted(SRC.glob("*.py")) if path.name != "artifacts.py"
        for func, line, what in _direct_writes(path) if (path.name, func) not in ALLOWED
    ]
    assert offenders == []


def test_pgm_writes_run_only_inside_the_staged_image_directory():
    callers = [
        (path.name, func)
        for path in sorted(SRC.glob("*.py"))
        for func, call in _calls(path) if _callee(call) == "write_pgm"
    ]
    assert callers == [("corpus.py", "write_image_dir")]


def test_the_guard_sees_each_kind_of_write(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def f(p):\n"
        "    p.write_text('x')\n"
        "    p.parent.mkdir()\n"
        "    open(p, 'ab')\n"
        "    p.open(mode='w')\n"
        "    open(p)\n"
        "    open('data.csv', 'rb')\n"
        "    p.open()\n"
    )
    assert [(line, what) for _f, line, what in _direct_writes(module)] == [
        (2, "write_text"), (3, "mkdir"), (4, "open"), (5, "open"),
    ]
