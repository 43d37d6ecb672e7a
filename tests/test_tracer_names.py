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

import pytest

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
