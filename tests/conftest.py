import os
import sys

# one BLAS thread: the suite's results do not depend on it, and a second
# thread roughly doubles the CPU the suite takes for a few percent of wall time
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from dddr.params import ParamSet
from dddr.rng import stream
from dddr.shapes import CLIENT_STYLE, PRETRAIN_STYLE, ShapeworldSpec, generate_shapeworld


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance verdict lines into the terminal report.

    The lines are read from the module the session ran: `tests/` is not a
    package, so pytest imports the file as the top-level module
    `test_acceptance`, and importing `tests.test_acceptance` here would load
    a second copy whose list is empty.
    """
    module = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(module, "VERDICT_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def client_corpus():
    return generate_shapeworld(ShapeworldSpec(samples_per_class=60, style=CLIENT_STYLE, seed=12))


@pytest.fixture(scope="session")
def pretrain_corpus():
    return generate_shapeworld(ShapeworldSpec(samples_per_class=60, style=PRETRAIN_STYLE, seed=11))


@pytest.fixture()
def rng():
    return stream(1234, "test")


def random_paramset(seed: int, spec: dict[str, tuple]) -> ParamSet:
    r = stream(seed, "random-paramset")
    return ParamSet({name: r.normal(0, 0.5, size=shape).astype(np.float32) for name, shape in spec.items()})
