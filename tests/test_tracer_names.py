"""The names ``bench/tracing.py`` looks up in the engine.

``Tracer.install`` fetches every function in ``FUNCTIONS`` from its module
and every method in ``METHODS`` from its class's ``__dict__``, so deleting
or renaming one breaks the traced benchmark.  This is why ``Subspace``,
``kernel``, ``res_subspace`` and ``ind_subspace`` are still in ``src/``,
although no command calls them: until the tracer drops their spans,
deleting them must fail here, not only in the traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from flowent.fields import least_irreducible, make_extension, make_prime_field

_SPEC = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize("module, attr", [entry[:2] for entry in tracing.FUNCTIONS])
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("module, cls, attr", [entry[:3] for entry in tracing.METHODS])
def test_traced_method_exists(module, cls, attr):
    assert attr in vars(getattr(importlib.import_module(module), cls))


@pytest.mark.parametrize("p", [2, 3])
def test_madds_read_the_prepared_shape(p):
    """``_madds`` reads b's shape from ``prepared[0]`` of a real product
    over GF(p^2).  No workload calls the dense product, so a change to the
    prepared layout shows here, not in the traced benchmark."""
    base = make_prime_field(p)
    field = make_extension(base, least_irreducible(base, 2))[0]
    rng = np.random.default_rng(p)
    a, b = field.random_codes(rng, (3, 5)), field.random_codes(rng, (5, 7))
    prepared = field.prepare_right(b)
    field.matmul_prepared(a, prepared)
    assert tracing._madds((field, a, prepared), {}) == 3 * 5 * 7 * field.d * field.d
