"""The benchmark's tracer patches dddr functions by name and reads some of their arguments.

perfbench/tracer.py wraps public functions in the module namespaces their
callers look them up in (e.g. `dddr.inversion.evaluate_with_gradients`,
`dddr.replay.sample`, `dddr.diffusion.apply_gradient_step`). Installing it
here fails on the first name that no longer exists, before a traced
benchmark run would. Some wrappers read a call's work off its positional
arguments (`local_class_inversion`'s steps, `sample`'s rows); a traced
micro run checks those against what the run wrote.
"""

import csv
import importlib.util
import json
import math
from pathlib import Path

import dddr.tensor
from dddr import experiment
from dddr.config import parse_config
from tests.test_experiment_cli import MICRO

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("experiment", "diffusion", "inversion", "federation", "classifier", "replay", "tensor", "audit",
           "tasks", "shapes")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_patched_name_and_unpatches():
    tracer_mod = _load_tracer()
    namespaces = [importlib.import_module(f"dddr.{name}") for name in MODULES]
    before = [dict(vars(m)) for m in namespaces]
    backward = dddr.tensor.Tensor.backward
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.install(tracer)
        patched = {(owner.__name__, attr) for owner, attr, _ in tracer._restore}
        for name in ("dddr.inversion", "dddr.diffusion", "dddr.federation", "dddr.classifier"):
            assert (name, "evaluate_with_gradients") in patched
        assert ("dddr.replay", "sample") in patched
        assert ("dddr.diffusion", "apply_gradient_step") in patched
        assert dddr.tensor.Tensor.backward is not backward
    finally:
        tracer.unpatch()
    assert dddr.tensor.Tensor.backward is backward
    for module, names in zip(namespaces, before):
        assert all(getattr(module, k) is v for k, v in names.items()), module.__name__


def test_traced_stages_record_the_work_the_run_did(tmp_path):
    tracer_mod = _load_tracer()
    cfg = parse_config(None, MICRO)
    paths = experiment.prepare_run_dir(cfg, tmp_path / "traced")
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.install(tracer)
        for stage in ("gen_data", "pretrain", "invert", "train", "audit"):
            tracer.stage = stage
            getattr(experiment, f"stage_{stage}")(cfg, paths)
    finally:
        tracer.unpatch()
    assert tracer.failures == []
    bad = [span for span in tracer.spans
           if span[4] is not None and not (isinstance(span[4], (int, float)) and math.isfinite(span[4]))]
    assert bad == []
    totals = tracer_mod.totals(tracer.spans)

    records = [json.loads(line) for line in paths.inversion_log.read_text().splitlines()]
    participating = sum(r["participated"] for r in records)
    assert participating > 0
    steps = totals["inversion.local_class_inversion"][2]
    assert steps == cfg["inversion"]["local_steps"] * participating

    rows = 0
    for manifest in (paths.root / "replay").glob("task_*/*/manifest.csv"):
        with open(manifest, newline="") as f:
            rows += sum(1 for _ in csv.DictReader(f))
    assert rows > 0
    assert totals["diffusion.sample"][2] == rows
