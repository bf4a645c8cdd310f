import os

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
    """Echo the acceptance verdict lines into the terminal report."""
    try:
        from tests.test_acceptance import VERDICT_LINES
    except ImportError:
        return
    if VERDICT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in VERDICT_LINES:
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
