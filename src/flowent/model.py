"""Desk-scale model of locally linearly compact spaces and their flows.

A space is a finite-dimensional discrete part plus a compact part that is
a countable product of copies of the field; the compact part is only ever
touched through finite windows.  A flow's endomorphism is row-finite by
construction: away from a finite prefix it is given by a stencil that may
cycle through a finite list of phases, and the discrete part interacts
with the compact part through finite blocks.

Window coordinates are ordered discrete-first: index i < discrete_dim is
the i-th discrete coordinate, index discrete_dim + j is compact
coordinate j.

Each flow derived from other flows has one construction.  A product of
flows is ``compose_flow``: the stencils convolve exactly, phase by phase,
and the boundary blocks are read from a product of truncations on one
window wide enough that no spill reaches them.  Powers and conjugates are
such products; a conjugator is itself a flow, the identity past a leading
window.  A direct sum interleaves the summands' coordinates and reads its
prefix rows from their truncations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DimensionMismatch, FieldMismatch, NotInvertible, TooLarge, WindowTooSmall
from .fields import FiniteField, field_from_descriptor
from .linalg import Matrix, inverse

__all__ = [
    "SpaceShape",
    "GoodSubspace",
    "EndoSpec",
    "Flow",
    "TruncationMeta",
    "FlowDecomposition",
    "make_bernoulli",
    "make_identity",
    "direct_sum",
    "good_direct_sum",
    "compose_flow",
    "power_flow",
    "conjugate_flow",
    "truncate",
    "window_nonzeros",
    "decompose",
    "guarantee_window",
    "default_window",
    "random_stencil_flow",
    "flow_to_dict",
    "flow_from_dict",
    "save_flow",
    "load_flow",
]

#: Desk-scale cap on the entries of one array built from a spec: the dense
#: discrete block of ``flow_from_dict``, the window's nonzeros of
#: ``window_nonzeros`` and the restricted constraint blocks of
#: ``entropy._constraint_blocks``.  The widest workload window,
#: prefix-shift[80]'s, has 5,276 coordinates and about as many entries.
_ENTRY_CAP = 1 << 22


@dataclass(frozen=True)
class SpaceShape:
    """Shape of a space: field, finite discrete dimension, and a compact
    part that is a product of copies of the field indexed by the naturals."""

    field: FiniteField
    discrete_dim: int = 0

    def __post_init__(self):
        if self.discrete_dim < 0:
            raise DimensionMismatch("discrete dimension must be non-negative")


@dataclass(frozen=True)
class GoodSubspace:
    """A basic open subspace: full on all compact coordinates except a
    finite zero set, zero on the discrete part."""

    zero_set: frozenset[int]

    def __post_init__(self):
        zs = frozenset(int(i) for i in self.zero_set)
        if any(i < 0 for i in zs):
            raise ValueError("zero set indices must be non-negative")
        object.__setattr__(self, "zero_set", zs)

    @classmethod
    def principal(cls, m: int) -> "GoodSubspace":
        """The chain member with zero set {0, ..., m-1}."""
        return cls(frozenset(range(m)))

    @property
    def extent(self) -> int:
        """One past the largest zeroed coordinate (0 when the set is empty)."""
        return max(self.zero_set) + 1 if self.zero_set else 0

    def __repr__(self) -> str:
        return f"GoodSubspace({sorted(self.zero_set)})"


def good_direct_sum(u: GoodSubspace, v: GoodSubspace) -> GoodSubspace:
    """Zero set of U (+) V under the interleaved coordinate layout."""
    return GoodSubspace(
        frozenset(2 * i for i in u.zero_set) | frozenset(2 * i + 1 for i in v.zero_set)
    )


class EndoSpec:
    """Row-finite endomorphism data: phase-cyclic stencil + finite blocks.

    stencil: one offset->coefficient map per phase; compact row i with
        i >= prefix rows uses phase ``i % period`` and reads coordinate
        ``i + offset`` for each entry.
    prefix: matrix overriding the compact-column content of compact rows
        0..r-1 entirely.
    dd: discrete -> discrete block.
    cd: compact -> discrete block (rows = discrete dim, finitely many
        compact columns).
    dc: discrete -> compact block (finitely many compact rows).

    The slots are frozen after construction, so none can be replaced by a
    value that skips the checks made there (stencil codes in range, block
    fields and shapes, no stencil row reading below 0); copies and pickles
    go through the constructor.  The block ``Matrix`` objects are not frozen.
    """

    __slots__ = ("field", "stencil", "prefix", "dd", "cd", "dc")

    def __init__(
        self,
        field: FiniteField,
        stencil: Sequence[Mapping[int, int]] | Mapping[int, int],
        prefix: Matrix | None = None,
        dd: Matrix | None = None,
        cd: Matrix | None = None,
        dc: Matrix | None = None,
    ):
        if isinstance(stencil, Mapping):
            stencil = (stencil,)
        phases = []
        for phase in stencil:
            clean = {int(k): int(v) for k, v in phase.items()}
            if any(not 0 <= v < field.q for v in clean.values()):
                raise ValueError("stencil coefficients must be field codes")
            clean = {k: v for k, v in clean.items() if v != 0}
            phases.append(tuple(sorted(clean.items())))
        if not phases:
            phases = [()]
        dd = dd if dd is not None else Matrix.zeros(field, 0, 0)
        slots = {
            "field": field,
            "stencil": _collapse_period(tuple(phases)),
            "prefix": prefix if prefix is not None else Matrix.zeros(field, 0, 0),
            "dd": dd,
            "cd": cd if cd is not None else Matrix.zeros(field, dd.rows, 0),
            "dc": dc if dc is not None else Matrix.zeros(field, 0, dd.rows),
        }
        for name, value in slots.items():
            if name not in ("field", "stencil") and value.field != field:
                raise FieldMismatch(f"{name} block lives over a different field")
            object.__setattr__(self, name, value)
        if self.dd.rows != self.dd.cols:
            raise DimensionMismatch("dd block must be square")
        if self.cd.rows != self.dd.rows:
            raise DimensionMismatch("cd block must have one row per discrete coordinate")
        if self.dc.cols != self.dd.rows:
            raise DimensionMismatch("dc block must have one column per discrete coordinate")
        self._check_reads_stay_non_negative()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"EndoSpec is frozen: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"EndoSpec is frozen: cannot delete {name!r}")

    def __reduce__(self):
        stencil = [dict(phase) for phase in self.stencil]
        return (EndoSpec, (self.field, stencil, self.prefix, self.dd, self.cd, self.dc))

    def _check_reads_stay_non_negative(self) -> None:
        # every stencil row i >= prefix_rows must read coordinates >= 0;
        # checked per phase at the smallest row index that uses it
        p = self.period
        for rho in range(p):
            offs = [k for k, _ in self.stencil[rho]]
            if not offs:
                continue
            i0 = self.prefix_rows + ((rho - self.prefix_rows) % p)
            if i0 + min(offs) < 0:
                raise WindowTooSmall(
                    f"stencil row {i0} would read coordinate {i0 + min(offs)}; "
                    "the prefix must override rows that reach below 0"
                )

    # -- derived extents ----------------------------------------------------

    @property
    def period(self) -> int:
        return len(self.stencil)

    def phase(self, i: int) -> tuple[tuple[int, int], ...]:
        return self.stencil[i % self.period]

    @property
    def offsets(self) -> tuple[int, ...]:
        return tuple(sorted({k for phase in self.stencil for k, _ in phase}))

    @property
    def min_offset(self) -> int:
        offs = self.offsets
        return min(offs) if offs else 0

    @property
    def max_offset(self) -> int:
        offs = self.offsets
        return max(offs) if offs else 0

    @property
    def prefix_rows(self) -> int:
        return self.prefix.rows

    @property
    def prefix_cols(self) -> int:
        return self.prefix.cols

    @property
    def bandwidth(self) -> int:
        """Bound on how far any single application moves information."""
        return max(
            1,
            self.max_offset,
            -self.min_offset,
            self.prefix_cols,
            self.cd.cols,
        )

    @property
    def extent(self) -> int:
        """Size of the irregular boundary region."""
        return max(self.prefix_rows, self.dc.rows)


def _collapse_period(phases: tuple) -> tuple:
    """Reduce a phase tuple to its smallest cyclic period."""
    n = len(phases)
    for div in range(1, n + 1):
        if n % div:
            continue
        if all(phases[i] == phases[i % div] for i in range(n)):
            return phases[:div]
    return phases


@dataclass(frozen=True)
class Flow:
    """A space together with a continuous endomorphism."""

    shape: SpaceShape
    endo: EndoSpec
    label: str = ""

    def __post_init__(self):
        if self.endo.field != self.shape.field:
            raise FieldMismatch("endomorphism and shape fields differ")
        if self.endo.dd.rows != self.shape.discrete_dim:
            raise DimensionMismatch(
                f"dd block is {self.endo.dd.rows}x{self.endo.dd.cols} but the "
                f"discrete dimension is {self.shape.discrete_dim}"
            )

    @property
    def field(self) -> FiniteField:
        return self.shape.field

    @property
    def discrete_dim(self) -> int:
        return self.shape.discrete_dim


# ---------------------------------------------------------------------------
# canonical flows
# ---------------------------------------------------------------------------


def make_bernoulli(field: FiniteField, block_dim: int) -> Flow:
    """Left shift on a product of blocks of the given dimension, flattened
    to the uniform stencil reading ``block_dim`` coordinates ahead."""
    if block_dim < 1:
        raise ValueError("block dimension must be positive")
    endo = EndoSpec(field, {block_dim: field.one})
    return Flow(SpaceShape(field, 0), endo, label=f"bernoulli[{block_dim}]")


def make_identity(shape: SpaceShape) -> Flow:
    field = shape.field
    endo = EndoSpec(field, {0: field.one}, dd=Matrix.eye(field, shape.discrete_dim))
    return Flow(shape, endo, label="identity")


def direct_sum(f: Flow, g: Flow) -> Flow:
    """Block-diagonal sum; compact coordinates interleave (f even, g odd)."""
    if f.field != g.field:
        raise FieldMismatch("direct sum requires a common field")
    field = f.field
    ef, eg = f.endo, g.endo
    lcm = math.lcm(ef.period, eg.period)

    stencil = []
    for a in range(lcm):
        stencil.append({2 * k: c for k, c in ef.phase(a)})
        stencil.append({2 * k: c for k, c in eg.phase(a)})

    r = max(ef.prefix_rows, eg.prefix_rows)
    if r:
        # Compact row u < r of a summand reads only columns below half: a
        # prefix row reads below prefix_cols, a stencil row reads u + k <=
        # r - 1 + max_offset.  So its truncation holds these rows whole, and
        # no read spills past them.
        half = max(ef.prefix_cols, eg.prefix_cols, r + max(ef.max_offset, eg.max_offset, 0))
        pref = np.zeros((2 * r, 2 * half), dtype=np.int64)
        for parity, summand in enumerate((f, g)):
            d = summand.discrete_dim
            mat, _ = truncate(summand, max(half, _min_window(summand.endo)))
            pref[parity::2, parity::2] = mat.data[d : d + r, d : d + half]
        prefix = Matrix(field, pref)
    else:
        prefix = None

    df, dg = f.discrete_dim, g.discrete_dim
    dd = np.zeros((df + dg, df + dg), dtype=np.int64)
    dd[:df, :df] = ef.dd.data
    dd[df:, df:] = eg.dd.data

    cd_cols = 2 * max(ef.cd.cols, eg.cd.cols)
    cd = np.zeros((df + dg, cd_cols), dtype=np.int64)
    cd[:df, 0 : 2 * ef.cd.cols : 2] = ef.cd.data
    cd[df:, 1 : 2 * eg.cd.cols : 2] = eg.cd.data

    dc_rows = 2 * max(ef.dc.rows, eg.dc.rows)
    dc = np.zeros((dc_rows, df + dg), dtype=np.int64)
    dc[0 : 2 * ef.dc.rows : 2, :df] = ef.dc.data
    dc[1 : 2 * eg.dc.rows : 2, df:] = eg.dc.data

    endo = EndoSpec(
        field,
        stencil,
        prefix=prefix,
        dd=Matrix(field, dd),
        cd=Matrix(field, cd) if cd_cols else None,
        dc=Matrix(field, dc) if dc_rows else None,
    )
    shape = SpaceShape(field, df + dg)
    return Flow(shape, endo, label=f"{f.label}(+){g.label}")


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncationMeta:
    window: int
    spill_rows: tuple[int, ...]
    spill_columns: tuple[int, ...]


def _min_window(endo: EndoSpec) -> int:
    return max(1, endo.prefix_rows, endo.prefix_cols, endo.dc.rows, endo.cd.cols)


def _check_window(endo: EndoSpec, window: int) -> None:
    if window < _min_window(endo):
        raise WindowTooSmall(f"window {window} is below the block extent {_min_window(endo)}")


def truncate(flow: Flow, window: int) -> tuple[Matrix, TruncationMeta]:
    """Matrix of the flow on the discrete part plus the first ``window``
    compact coordinates.

    Reads past the window are dropped and reported as spill.  For a good
    subspace with zero set inside {0..m-1} and any n, codimensions computed
    in the window agree with the true values whenever
    ``window >= guarantee_window(flow, m, n)``.

    The matrix is the scatter of ``window_nonzeros`` at ``window +
    bandwidth``, cut to the rows and columns of the window.  Every read of
    a row inside the window lands below ``window + bandwidth``: a stencil
    row i reads at most ``i + max_offset``, and the blocks lie inside the
    window (``_check_window``).  So the entries of those rows at columns
    at or past the window are exactly the dropped reads, all of stencil
    rows, and the spill is read off them.
    """
    _check_window(flow.endo, window)
    d = flow.discrete_dim
    rows, cols, codes = window_nonzeros(flow, window + flow.endo.bandwidth)
    inside = rows < d + window
    kept, spill = inside & (cols < d + window), inside & (cols >= d + window)
    mat = np.zeros((d + window, d + window), dtype=np.int64)
    mat[rows[kept], cols[kept]] = codes[kept]
    spill_rows, spill_cols = np.unique(rows[spill]).tolist(), (np.unique(cols[spill]) - d).tolist()
    return Matrix(flow.field, mat), TruncationMeta(window, tuple(spill_rows), tuple(spill_cols))


def window_nonzeros(flow: Flow, window: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero entries of the flow's matrix on the discrete part plus
    the first ``window`` compact coordinates, the one description of that
    matrix: ``truncate`` scatters them, and ``entropy`` multiplies by them.

    Returns int64 arrays ``(rows, cols, codes)`` sorted by column.  The
    discrete blocks and the prefix give their nonzeros directly; every
    stencil phase and offset gives one arithmetic run of rows, from the
    first row at or past the prefix with that phase, with step the period.
    A row never reads below 0 (a frozen ``EndoSpec`` checks it), and reads
    past the window are dropped.  So the count of entries is at most the
    blocks' nonzeros plus ``window`` times the terms per phase; above
    ``_ENTRY_CAP``, TooLarge is raised before the stencil's entries are
    built.
    """
    endo = flow.endo
    _check_window(endo, window)
    d = flow.discrete_dim
    parts = []
    for mat, row0, col0 in ((endo.dd, 0, 0), (endo.cd, 0, d), (endo.dc, d, 0), (endo.prefix, d, d)):
        r, c = np.nonzero(mat.data)
        parts.append((r + row0, c + col0, mat.data[r, c]))
    bound = sum(r.size for r, _, _ in parts) + window * max(map(len, endo.stencil), default=0)
    if bound > _ENTRY_CAP:
        raise TooLarge(f"window {window} may hold {bound} entries, above the cap of {_ENTRY_CAP}")
    start, period = endo.prefix_rows, endo.period
    for rho, phase in enumerate(endo.stencil):
        rows = np.arange(start + (rho - start) % period, window, period)
        for k, c in phase:
            run = rows[: np.searchsorted(rows, window - k)]
            parts.append((run + d, run + (d + k), np.full(run.size, c)))
    rows, cols, codes = (np.concatenate(arrays).astype(np.int64) for arrays in zip(*parts))
    order = np.argsort(cols, kind="stable")
    return rows[order], cols[order], codes[order]


def guarantee_window(flow: Flow, zero_extent: int, n: int) -> int:
    """Smallest window certified exact for zero sets within ``zero_extent``
    and cotrajectory depth ``n``."""
    endo = flow.endo
    base = max(zero_extent, endo.cd.cols, 1)
    return base + n * endo.bandwidth + endo.extent


def default_window(flow: Flow, u: GoodSubspace, n: int, slack: int = 4) -> int:
    w = guarantee_window(flow, u.extent, n) + slack
    return max(w, _min_window(flow.endo))


# ---------------------------------------------------------------------------
# decomposition relative to a good subspace
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlowDecomposition:
    """Blocks of a windowed flow for the splitting V = U (+) V/U."""

    cc: Matrix
    cd: Matrix
    dc: Matrix
    dd: Matrix
    u_indices: tuple[int, ...]
    q_indices: tuple[int, ...]
    window: int

    def reassemble(self) -> Matrix:
        order = list(self.q_indices) + list(self.u_indices)
        size = len(order)
        inv = np.argsort(np.asarray(order))
        top = np.concatenate([self.dd.data, self.cd.data], axis=1)
        bottom = np.concatenate([self.dc.data, self.cc.data], axis=1)
        block = np.concatenate([top, bottom], axis=0)
        return Matrix(self.cc.field, block[np.ix_(inv, inv)])


def decompose(flow: Flow, u: GoodSubspace, window: int | None = None) -> FlowDecomposition:
    """Split the windowed flow matrix along V = U (+) V/U.

    The quotient part collects the discrete coordinates and the zeroed
    compact coordinates; reassembling reproduces ``truncate(flow, window)``.
    """
    if window is None:
        window = default_window(flow, u, 1)
    mat, _ = truncate(flow, window)
    d = flow.discrete_dim
    if u.extent > window:
        raise WindowTooSmall(f"window {window} does not contain the zero set")
    q_idx = list(range(d)) + [d + i for i in sorted(u.zero_set)]
    u_idx = [d + i for i in range(window) if i not in u.zero_set]
    data = mat.data
    field = flow.field
    return FlowDecomposition(
        cc=Matrix(field, data[np.ix_(u_idx, u_idx)]),
        cd=Matrix(field, data[np.ix_(q_idx, u_idx)]),
        dc=Matrix(field, data[np.ix_(u_idx, q_idx)]),
        dd=Matrix(field, data[np.ix_(q_idx, q_idx)]),
        u_indices=tuple(u_idx),
        q_indices=tuple(q_idx),
        window=window,
    )


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def compose_flow(f: Flow, g: Flow) -> Flow:
    """The flow computing f's endomorphism after g's.

    The stencil part composes exactly by phase-aware convolution; the
    boundary region (prefix, discrete blocks) is extracted from a product
    of truncations taken on a window wide enough that no spill reaches it.
    """
    if f.field != g.field:
        raise FieldMismatch("composition requires a common field")
    if f.discrete_dim != g.discrete_dim:
        raise DimensionMismatch("composition requires equal discrete dimensions")
    field = f.field
    ef, eg = f.endo, g.endo

    period = math.lcm(ef.period, eg.period)
    stencil: list[dict[int, int]] = []
    for rho in range(period):
        phase: dict[int, int] = {}
        for kf, cf in ef.phase(rho):
            for kg, cg in eg.phase(rho + kf):
                off = kf + kg
                phase[off] = field.add(phase.get(off, 0), field.mul(cf, cg))
        stencil.append(phase)

    min_f = min(ef.min_offset, 0)
    boundary = max(
        ef.prefix_rows,
        ef.dc.rows,
        eg.prefix_rows - min_f,
        eg.dc.rows - min_f,
        -(ef.min_offset + eg.min_offset),
        1,
    )
    reach = max(ef.max_offset, 0) + max(eg.max_offset, 0)
    wide = boundary + reach + max(ef.prefix_cols, eg.prefix_cols, ef.cd.cols, eg.cd.cols) + 4
    mf, _ = truncate(f, wide)
    mg, _ = truncate(g, wide)
    prod = (mf @ mg).data

    return _flow_from_window(
        f.shape, stencil, boundary, prod, wide, label=f"{f.label}*{g.label}"
    )


def power_flow(flow: Flow, k: int) -> Flow:
    """The flow iterating the endomorphism k times."""
    if k < 1:
        raise ValueError("power must be at least 1")
    if k == 1:
        return flow
    out = flow
    for _ in range(k - 1):
        out = compose_flow(flow, out)
    return Flow(out.shape, out.endo, label=f"{flow.label}^{k}")


def conjugate_flow(flow: Flow, a: Matrix) -> Flow:
    """Conjugate by an invertible matrix acting on the discrete part plus a
    leading compact window, extended by the identity elsewhere.

    That extension is itself a flow F_a: its ``dd``, ``cd``, ``dc`` and
    ``prefix`` are a's blocks, and its stencil {0: 1} is the identity past
    the first ``a.rows - discrete_dim`` compact coordinates.  The conjugate
    is the product F_a * flow * F_(a^-1) of two compositions.
    """
    if a.field != flow.field:
        raise NotInvertible("conjugator lives over a different field")
    if a.rows != a.cols or a.rows < flow.discrete_dim:
        raise NotInvertible("conjugator must be square and cover the discrete part")
    a_inv = inverse(a)  # raises NotInvertible when singular
    d = flow.discrete_dim

    def as_flow(m: Matrix) -> Flow:
        dd, cd, dc, prefix = (
            Matrix(flow.field, block)
            for block in (m.data[:d, :d], m.data[:d, d:], m.data[d:, :d], m.data[d:, d:])
        )
        endo = EndoSpec(flow.field, {0: flow.field.one}, prefix=prefix, dd=dd, cd=cd, dc=dc)
        return Flow(flow.shape, endo)

    out = compose_flow(compose_flow(as_flow(a), flow), as_flow(a_inv))
    return Flow(out.shape, out.endo, label=f"conj({flow.label})")


def _flow_from_window(
    shape: SpaceShape,
    stencil: Sequence[Mapping[int, int]],
    boundary: int,
    window_matrix: np.ndarray,
    window: int,
    label: str,
) -> Flow:
    """Assemble a Flow from an exact stencil plus a windowed matrix whose
    rows below ``boundary`` (and all discrete rows) are trusted."""
    field = shape.field
    d = shape.discrete_dim
    if boundary + 1 >= window:
        raise WindowTooSmall(f"window {window} does not exceed the trusted rows {boundary} by 2")
    dd = Matrix(field, window_matrix[:d, :d])
    cd_block = window_matrix[:d, d:]
    cd_width = int(np.nonzero(cd_block.any(axis=0))[0].max() + 1) if cd_block.any() else 0
    cd = Matrix(field, cd_block[:, :cd_width]) if cd_width else None

    dc_block = window_matrix[d : d + boundary, :d]
    dc_rows = int(np.nonzero(dc_block.any(axis=1))[0].max() + 1) if dc_block.any() else 0
    dc = Matrix(field, dc_block[:dc_rows]) if dc_rows else None

    pref_block = window_matrix[d : d + boundary, d:]
    pref_width = int(np.nonzero(pref_block.any(axis=0))[0].max() + 1) if pref_block.any() else 0
    prefix = Matrix(field, pref_block[:, :max(pref_width, 1)]) if boundary else None

    endo = EndoSpec(field, list(stencil), prefix=prefix, dd=dd, cd=cd, dc=dc)
    return Flow(shape, endo, label=label)


# ---------------------------------------------------------------------------
# seeded random flows (test fixtures and sweeps)
# ---------------------------------------------------------------------------


def random_stencil_flow(
    field: FiniteField,
    seed: int,
    max_terms: int = 3,
    offset_range: tuple[int, int] = (-2, 3),
    discrete: bool = True,
) -> Flow:
    """Deterministic pseudo-random row-finite flow for sweeps."""
    rng = np.random.default_rng(seed)
    lo, hi = offset_range
    n_terms = int(rng.integers(1, min(max_terms, hi - lo + 1) + 1))
    offsets = rng.choice(np.arange(lo, hi + 1), size=n_terms, replace=False)
    stencil = {int(k): int(rng.integers(1, field.q)) for k in offsets}

    d = int(rng.integers(0, 3)) if discrete else 0
    dd = Matrix(field, field.random_codes(rng, (d, d))) if d else None
    cd = Matrix(field, field.random_codes(rng, (d, int(rng.integers(1, 3))))) if d and rng.random() < 0.5 else None
    dc = Matrix(field, field.random_codes(rng, (int(rng.integers(1, 3)), d))) if d and rng.random() < 0.5 else None

    min_off = min(min(stencil), 0)
    rows = -min_off
    if rng.random() < 0.5:
        rows = max(rows, int(rng.integers(1, 3)))
    prefix = None
    if rows:
        cols = rows + max(max(stencil), 0) + 1
        prefix = Matrix(field, field.random_codes(rng, (rows, cols)))

    endo = EndoSpec(field, stencil, prefix=prefix, dd=dd, cd=cd, dc=dc)
    return Flow(SpaceShape(field, d), endo, label=f"random[{seed}]")


# ---------------------------------------------------------------------------
# JSON flow-spec files
# ---------------------------------------------------------------------------


def _element_to_json(field: FiniteField, code: int) -> list[int]:
    return list(field.coords(code))


def _element_from_json(field: FiniteField, value) -> int:
    if isinstance(value, (int, np.integer)):
        if field.d > 1:
            raise ValueError(
                "elements of a non-prime field must be prime-field coordinate lists"
            )
        return int(value) % field.p
    return field.from_coords(value)


def _matrix_to_json(m: Matrix) -> list[list[list[int]]]:
    return m.field.coords_array(m.data).tolist()


def _matrix_from_json(field: FiniteField, rows, what: str) -> Matrix:
    """Read a matrix of JSON elements as ``_element_from_json`` reads each.

    A rectangular array of integers (prime fields) or of equal-length
    integer coordinate lists is read at once by numpy.  Anything else, such
    as mixed element forms, floats or integers past int64, is read element
    by element.
    """
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError(f"{what} must be a list of rows")
    if not rows:
        return Matrix.zeros(field, 0, 0)
    try:
        arr = np.asarray(rows)
    except ValueError:  # ragged nesting
        arr = None
    if arr is not None and arr.dtype.kind in "bi":
        arr = arr.astype(np.int64)
        if arr.ndim == 3:
            if (arr[..., field.d :] % field.p).any():
                raise ValueError("coefficient vector longer than field degree")
            digits = np.zeros(arr.shape[:2] + (field.d,), dtype=np.int64)
            digits[..., : arr.shape[2]] = arr[..., : field.d]
            return Matrix(field, field.encode_array(digits))
        if arr.ndim == 2 and field.d == 1:
            return Matrix(field, arr % field.p)
    return Matrix(field, [[_element_from_json(field, v) for v in row] for row in rows])


def flow_to_dict(flow: Flow) -> dict:
    endo = flow.endo
    stencil_json = [
        {str(k): _element_to_json(flow.field, c) for k, c in phase} for phase in endo.stencil
    ]
    out = {
        "field": flow.field.descriptor,
        "discrete_dim": flow.discrete_dim,
        "stencil": stencil_json[0] if len(stencil_json) == 1 else stencil_json,
        "label": flow.label,
    }
    if endo.prefix.rows:
        out["prefix"] = _matrix_to_json(endo.prefix)
    if endo.dd.rows:
        out["dd"] = _matrix_to_json(endo.dd)
    if endo.cd.cols:
        out["cd"] = _matrix_to_json(endo.cd)
    if endo.dc.rows:
        out["dc"] = _matrix_to_json(endo.dc)
    return out


def flow_from_dict(spec: dict) -> Flow:
    if not isinstance(spec, dict):
        raise ValueError("flow spec must be a JSON object")
    for key in ("field", "stencil"):
        if key not in spec:
            raise ValueError(f"flow spec is missing key '{key}'")
    field = field_from_descriptor(spec["field"])
    d = spec.get("discrete_dim", 0)
    # JSON true and false are Python bools, which are ints
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
        raise ValueError(f"discrete_dim {d!r} must be an integer")
    if int(d) ** 2 > _ENTRY_CAP:
        raise TooLarge(f"discrete_dim {d} needs a {d} x {d} block, above the cap of {_ENTRY_CAP} entries")

    raw = spec["stencil"]
    phases = raw if isinstance(raw, list) else [raw]
    stencil = []
    for phase in phases:
        if not isinstance(phase, dict):
            raise ValueError("stencil phases must be objects mapping offset to element")
        stencil.append({int(k): _element_from_json(field, v) for k, v in phase.items()})

    def block(key):
        return _matrix_from_json(field, spec[key], key) if key in spec else None

    dd = block("dd")
    if dd is None and d:
        dd = Matrix.zeros(field, d, d)
    endo = EndoSpec(field, stencil, prefix=block("prefix"), dd=dd, cd=block("cd"), dc=block("dc"))
    return Flow(SpaceShape(field, d), endo, label=str(spec.get("label", "")))


def save_flow(flow: Flow, path) -> None:
    """Write a flow's spec file: sorted keys, indent 2, a final newline.

    The text is built as one string and written at once; the bytes are
    those of ``json.dump`` with the same options, which streams its chunks
    through the slower pure-Python encoder.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(flow_to_dict(flow), indent=2, sort_keys=True) + "\n")


def load_flow(path) -> Flow:
    with open(path) as fh:
        return flow_from_dict(json.load(fh))
