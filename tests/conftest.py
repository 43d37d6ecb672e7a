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
