import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import flowent
from flowent.entropy import _constraint_blocks, _FlagStack, _lane_bits, _unpack_lanes
from flowent.fields import _rref_array, make_extension, make_prime_field
from flowent.linalg import Matrix, kernel
from flowent.model import EndoSpec, Flow, SpaceShape

settings.register_profile(
    "flowent",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("flowent")


def dense_truncation(flow, window):
    """A flow's int64 matrix on the discrete part plus the first ``window``
    compact coordinates, built row by row from its blocks and stencil, with
    the reads past the window dropped.  It shares no code with
    ``model.truncate`` or ``model.window_nonzeros``, so the tests hold both
    to it."""
    endo, d = flow.endo, flow.discrete_dim
    mat = np.zeros((d + window, d + window), dtype=np.int64)
    mat[:d, :d] = endo.dd.data
    mat[:d, d : d + endo.cd.cols] = endo.cd.data
    mat[d : d + endo.dc.rows, :d] = endo.dc.data
    mat[d : d + endo.prefix_rows, d : d + endo.prefix_cols] = endo.prefix.data
    for i in range(endo.prefix_rows, window):
        for k, c in endo.phase(i):
            if i + k < window:
                mat[d + i, d + i + k] = c
    return mat


def prefix_shift_flow(r):
    """The wide-window benchmark's ``prefix-shift[r]`` over GF(2): compact
    rows 0..r-1 read the next coordinate; every later row reads itself."""
    gf2 = make_prime_field(2)
    prefix = np.zeros((r, r + 1), dtype=np.int64)
    prefix[np.arange(r), np.arange(r) + 1] = 1
    endo = EndoSpec(gf2, {0: 1}, prefix=Matrix(gf2, prefix))
    return Flow(SpaceShape(gf2, 0), endo, label=f"prefix-shift[{r}]")


def digit_rows(field, codes):
    """A code array as the engine's blocks hold it: digit t of column j in
    column j*d + t, uint8 over characteristic 2 and int64 otherwise."""
    codes = np.asarray(codes, dtype=np.int64)
    digits = field.coords_array(codes).reshape(codes.shape[0], codes.shape[1] * field.d)
    return digits.astype(np.uint8 if field.p == 2 else np.int64)


def code_rows(field, digits):
    """The code array of a digit block; the inverse of ``digit_rows``."""
    return field.encode_array(digits.reshape(digits.shape[0], digits.shape[1] // field.d, field.d))


def block_digits(field, block, width):
    """A block of the engine, a list of packed rows, as a digit array of
    ``width`` columns, unpacked by ``_unpack_lanes`` from lanes of one bit
    over characteristic 2 and of ``_lane_bits(p)`` bits otherwise."""
    return _unpack_lanes(block, width, _lane_bits(field.p))


def annihilator(s):
    """Rows spanning the vectors orthogonal to a subspace, so that
    ``kernel(annihilator(s)) == s``."""
    return kernel(s.basis).basis


def preimage(m, s):
    """Canonical form of ``{v : m v in s}``, the kernel of s's annihilator
    times m; a reference built from ``linalg.kernel`` alone."""
    return kernel(annihilator(s) @ m)


def intersect(s, t):
    """Canonical form of the intersection, the kernel of both
    annihilators stacked."""
    return kernel(Matrix(s.field, np.concatenate([annihilator(s).data, annihilator(t).data])))


def stacked_rref(field, red, rows):
    """The reference: ``_rref_array`` of the two operands stacked, padded
    to a common width, without zero rows."""
    width = max(red.shape[1], rows.shape[1])
    stack = np.zeros((red.shape[0] + rows.shape[0], width), dtype=np.int64)
    stack[: red.shape[0], : red.shape[1]] = red
    stack[red.shape[0] :, : rows.shape[1]] = rows
    out, pivots = _rref_array(field, stack)
    return out[: len(pivots)], pivots


def raw_forms(flow, dead, n_max, window):
    """For each step n = 1..n_max, the reduced row-echelon form, without
    zero rows and over the whole window, of the raw constraint rows of
    steps 1..n: the blocks of ``_constraint_blocks`` with nothing carried
    back, as codes, stacked by ``stacked_rref``.  Its kernel is the n-step
    cotrajectory, and it shares no elimination with the rank trackers."""
    dim = flow.discrete_dim + window
    red = np.zeros((0, dim), dtype=np.int64)
    for block in _constraint_blocks(flow, dead, n_max, window):
        digits = block_digits(flow.field, block, dim * flow.field.d)
        red, _ = stacked_rref(flow.field, red, code_rows(flow.field, digits))
        yield red


_TRACKER_INIT = _FlagStack.__init__


def force_lead_order(monkeypatch, top_down):
    """Make every rank tracker built from now on, ``verify``'s identity
    trackers included, take its leads from the top down or from the bottom
    up, whatever order its run or its field would pick; return the set of
    orders the trackers were built with."""
    built = set()

    def init(self, field, counts, _order=None, *rest):
        _TRACKER_INIT(self, field, counts, top_down, *rest)
        built.add(self.top_down)

    monkeypatch.setattr(_FlagStack, "__init__", init)
    return built


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
