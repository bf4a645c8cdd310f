"""The benchmark's tracer patches dddr functions by name; renaming one breaks it.

perfbench/tracer.py wraps public functions in the module namespaces their
callers look them up in (e.g. `dddr.inversion.evaluate_with_gradients`,
`dddr.replay.sample`, `dddr.diffusion.apply_gradient_step`). Installing it
here fails on the first name that no longer exists, before a traced
benchmark run would.
"""

import importlib.util
from pathlib import Path

import dddr.tensor

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
