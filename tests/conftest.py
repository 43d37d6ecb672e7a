import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import flowent
from flowent.fields import make_extension, make_prime_field

settings.register_profile(
    "flowent",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("flowent")


def dense_truncation(flow, window):
    """A flow's matrix on the discrete part plus the first ``window``
    compact coordinates, built row by row from its blocks and stencil, with
    the rows whose stencil reads past the window and the compact columns
    they read there.  It shares no code with ``model.truncate`` or
    ``model.window_nonzeros``, so the tests hold both to it.  Returns
    ``(int64 matrix, spill rows, spill columns)`` as ``truncate`` gives
    them."""
    endo, d = flow.endo, flow.discrete_dim
    mat = np.zeros((d + window, d + window), dtype=np.int64)
    mat[:d, :d] = endo.dd.data
    mat[:d, d : d + endo.cd.cols] = endo.cd.data
    mat[d : d + endo.dc.rows, :d] = endo.dc.data
    mat[d : d + endo.prefix_rows, d : d + endo.prefix_cols] = endo.prefix.data
    spill_rows, spill_cols = [], set()
    for i in range(endo.prefix_rows, window):
        spill = []
        for k, c in endo.phase(i):
            if i + k < window:
                mat[d + i, d + i + k] = c
            else:
                spill.append(i + k)
        if spill:
            spill_rows.append(d + i)
            spill_cols.update(spill)
    return mat, tuple(spill_rows), tuple(sorted(spill_cols))


@pytest.fixture(scope="session")
def gf2():
    return make_prime_field(2)


@pytest.fixture(scope="session")
def gf3():
    return make_prime_field(3)


@pytest.fixture(scope="session")
def gf4_pair(gf2):
    return make_extension(gf2, (1, 1, 1))


@pytest.fixture(scope="session")
def gf4(gf4_pair):
    return gf4_pair[0]


@pytest.fixture(scope="session")
def gf16_pair(gf4):
    # x^2 + x + g over GF(4), g = generator of GF(4)
    return make_extension(gf4, (gf4.generator, 1, 1))


@pytest.fixture(scope="session")
def gf16(gf16_pair):
    return gf16_pair[0]


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def run_python():
    """Runs the interpreter with the given arguments in a fresh process that
    imports this package's sources; returns the completed process."""
    src = str(Path(flowent.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")

    def run(*args: str, timeout: float = 60) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout
        )

    return run
