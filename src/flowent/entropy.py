"""Entropy of a flow from exact cotrajectory codimension traces.

For a good subspace U with zeroed coordinate set S, membership of a window
vector v in the n-step cotrajectory is the vanishing of the discrete part
and the S-coordinates of v, phi(v), ..., phi^(n-1)(v).  Those constraints
are rows of powers of the window matrix, so the codimension trace is the
rank growth of an accumulating constraint stack: each step applies the
flow once to the previous constraint block.  The flow is row-finite, so
it is applied as the list of its window's nonzeros, the same list that
``model.truncate`` scatters into a dense matrix: in every field the
block's columns are laid out as rows, gathered by the entries' rows,
multiplied by their codes and summed over each run of equal columns.
Over GF(2) eight block rows share one 64-bit word, so that one XOR of two
words adds eight rows.  The dense window matrix is never built.

Ranks are tracked over the prime field.  Restricting scalars along
GF(p) <= GF(p^d) multiplies every codimension by d, so the GF(p^d) rank of
a block of rows is the GF(p) rank of its restricted rows divided by d.
The constraint spans of the principal chain U_0, ..., U_M form a flag
V_0 <= ... <= V_M: member m's rows are a prefix of member M's.  So one
tracker per chain holds a basis adapted to that flag, each restricted row
is inserted once at the level of the smallest member it belongs to, and
member m's rank is the number of basis rows of level <= m.  One
elimination with level exchanges serves every characteristic: on
bit-packed XOR rows for p = 2, and for odd p on rows packed into lanes of
an integer, added mod p in every lane at once.

The flow is not applied to the raw rows phi*^(n-1) e_i but to what the
consumer of a step's block has made of them: since
``S_{n+1} = S_1 + phi* S_n``, a row may be carried into the next step
reduced by the constraint span of the steps before and by the step's
earlier rows, at its level or below, and every rank and form stays the
same (``_constraint_blocks`` has the proof).  The tracker hands back
each row's value where it first settled, so the next step's rows mostly
skip the holders their rows climbed through before.

Cotrajectories are carried as their constraint forms: one reduced
row-echelon form over the flow's own field, whose kernel is the
cotrajectory.  ``fields._rref_extend`` extends it from step to step: the
step's rows are reduced by the form, only their residues are row-reduced,
and the form is cleared at the new pivots, so step n walks only its new
pivots.  The reduced residues are what step n carries, so the next block
has one row per new pivot.  Every form, over any field, is row-reduced
by ``fields._rref_array``, on whole arrays or on such residues.

The estimate is exact: values are integers, lower bounds are fractions,
and there are no tolerances anywhere.  The flows the entropy laws are
checked on, such as powers and conjugates, are built in ``model``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NotSubspace, TooLarge
from .fields import _rref_extend
from .linalg import Matrix, Subspace, kernel
from .model import (
    _ENTRY_CAP,
    Flow,
    GoodSubspace,
    default_window,
    truncate,
    window_nonzeros,
)

__all__ = [
    "EngineConfig",
    "CodimTrace",
    "HStarResult",
    "EntropyEstimate",
    "cotrajectory",
    "codim_sequence",
    "chain_traces",
    "h_star",
    "ent_star",
    "brute_force_codim",
    "entropy_report",
    "report_csv_rows",
]


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of the estimator; defaults match the command-line driver."""

    n_max: int = 64
    streak: int = 5
    m_max: int = 8
    window_slack: int = 4

    def __post_init__(self):
        for name, least in (("n_max", 1), ("streak", 1), ("m_max", 0), ("window_slack", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if self.n_max < self.streak + 1:
            raise ValueError("n_max must exceed the required streak length")


DEFAULT_CONFIG = EngineConfig()


@dataclass(frozen=True)
class CodimTrace:
    """Codimensions of the cotrajectories of one good subspace."""

    u: GoodSubspace
    values: tuple[int, ...]
    window: int

    def first_differences(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in zip(self.values, self.values[1:]))

    def is_monotone(self) -> bool:
        return all(d >= 0 for d in self.first_differences())

    def is_subadditive(self) -> bool:
        """Subadditivity of a_i := c_{i+1} (the shifted sequence with
        a_0 = 0), which is what makes the limit of c_n / n exist.  The
        unshifted values are not subadditive: the one-dimensional shift has
        c_n = n - 1, and c_{n+m} = n + m - 1 > c_n + c_m."""
        a = np.asarray(self.values, dtype=np.int64)  # a[i] = c_{i+1}, a[0] = 0
        i = np.arange(1, len(a))
        k = i[:, None] + i[None, :]  # every pair i, j >= 1 with i + j < len(a)
        inside = k < len(a)
        return bool(np.all(a[k[inside]] <= (a[i, None] + a[None, i])[inside]))


class _FlagStack:
    """Rank tracker over GF(p) for a flag of row spans ``V_0 <= ... <= V_M``.

    ``bounds`` is non-decreasing.  Row j of each inserted block, which has
    at most ``bounds[-1]`` rows, has level ``#{b in bounds : b <= j}``, and
    ``V_m`` is the span of all rows inserted so far at level <= m.  The
    lead of a row is its first nonzero column.  Each lead has at most one
    holder, stored with a level and scaled to 1 at its lead.  Row w enters
    at its level l and, while w is nonzero, looks up the holder h of its
    lead, where w has entry c:

    - none: ``w/c`` becomes the holder, at level l;
    - h at a level <= l: w becomes ``w - c*h``;
    - h at a level above l: ``w/c`` becomes the holder at level l, and the
      displaced h goes on as ``h - w/c`` at its own level.

    The holders of level <= m are a basis of ``V_m`` for every m, so
    ``ranks[m]`` counts them.  Proof: every step scales the row it changes
    by a unit or adds to it a multiple of a row of no higher level (``h``
    to ``w`` when h's level is <= l, ``w`` to ``h`` when it is above), so
    no ``V_m`` changes except that w joins it for m >= l; each holder of
    level <= m lies in ``V_m``; and holders have distinct leads, so they
    are independent.  Each step ends the loop or moves the lead strictly
    up (both subtractions clear the lead), so an insert ends after at most
    one step per column.

    ``insert`` also returns, for each row, its value at the moment it first
    becomes a holder at its own level l, before it is scaled, or 0 when it
    reduces to 0 there: the row plus a combination of holders of level
    <= l, a row ``_constraint_blocks`` may carry.  Recording it costs no
    reduction step.  A raw row starts at low columns and climbs through the
    holders there at every step; a carried value starts where it settled,
    and its image in the next step mostly starts past the holders it has
    climbed through already.  Blocks come no narrower than the ones
    before, so every value fits the block's width.
    """

    def __init__(self, bounds: Sequence[int]):
        self.levels = np.searchsorted(bounds, np.arange(bounds[-1]), side="right").tolist()
        self.holders: dict = {}  # lead -> (holder, level)
        self.per_level = [0] * len(bounds)

    @property
    def ranks(self) -> list[int]:
        return list(accumulate(self.per_level))


class _FlagStack2(_FlagStack):
    """``_FlagStack`` over GF(2).  Rows are bit-packed integers whose
    lowest set bit is the lead, so c = 1 and ``w - h`` is ``w ^ h``."""

    def insert(self, rows: np.ndarray) -> np.ndarray:
        """Insert a block; return each row's placed value as a 0/1 uint8
        array of the block's shape."""
        holders = self.holders
        per_level = self.per_level
        packed_rows = np.packbits(rows.astype(np.uint8, copy=False), axis=1, bitorder="little")
        size = packed_rows.shape[1]
        placed = []
        for packed_row, level in zip(packed_rows, self.levels):
            packed = int.from_bytes(packed_row.tobytes(), "little")
            own = 0
            while packed:
                lead = (packed & -packed).bit_length() - 1
                held = holders.get(lead)
                if held is None:
                    holders[lead] = (packed, level)
                    per_level[level] += 1
                    own = own or packed
                    break
                holder, held_level = held
                if held_level <= level:
                    packed ^= holder
                else:
                    holders[lead] = (packed, level)
                    per_level[level] += 1
                    per_level[held_level] -= 1
                    own = own or packed
                    packed, level = holder ^ packed, held_level
            placed.append(own.to_bytes(size, "little"))
        packed_out = np.frombuffer(b"".join(placed), dtype=np.uint8).reshape(len(placed), size)
        return np.unpackbits(packed_out, axis=1, count=rows.shape[1], bitorder="little")


class _FlagStackOdd(_FlagStack):
    """``_FlagStack`` over GF(p), p odd, on rows packed into integers.

    Column j of a row is lane j of its integer, the b bits from ``j*b``
    on, which hold its code 0..p-1.  b is 8, 16 or 32, the least with
    p <= 2^(b-1); ``_PRIME_CAP`` keeps p below 2^16.  The lead is the lane
    of the lowest set bit.  Two rows add lane-wise mod p in one step:
    ``s = x + y``, then ``s - (((s + bias) & tops) >> (b-1)) * p``, where
    ``bias`` holds 2^(b-1) - p and ``tops`` holds 2^(b-1) in every lane.
    Proof: a lane of s is at most 2p - 2 < 2^b, since p <= 2^(b-1), and
    the same lane of ``s + bias`` is at most 2^(b-1) + p - 2 < 2^b, so
    neither sum carries from one lane into the next.  That lane of
    ``s + bias`` is at least 2^(b-1), so has its top bit set, exactly when
    s >= p.  So the step subtracts p from exactly the lanes where s >= p,
    without a borrow, and leaves every lane in 0..p-1.

    ``w - c*h`` is ``w + (p-c)*h``.  Each holder is kept with its
    doublings h, 2h, 4h, ..., one per bit of p, so ``k*h`` costs one add
    per set bit of k; ``holders`` maps a lead to (doublings, level).
    """

    def __init__(self, p: int, bounds: Sequence[int]):
        super().__init__(bounds)
        self.p = p
        self.lane = next(b for b in (8, 16, 32) if p <= 1 << (b - 1))

    def insert(self, rows: np.ndarray) -> np.ndarray:
        """Insert a block; return each row's placed value as an int64
        array of the block's shape."""
        p, b, holders, per_level = self.p, self.lane, self.holders, self.per_level
        lanes = rows.astype(f"<u{b // 8}")
        data, size = lanes.tobytes(), lanes.shape[1] * lanes.itemsize
        ones = ((1 << lanes.shape[1] * b) - 1) // ((1 << b) - 1)  # 1 in every lane
        tops, bias, mask = ones << (b - 1), ones * ((1 << (b - 1)) - p), (1 << b) - 1

        def add_times(w: int, k: int, doublings: list[int]) -> int:  # w + k*h
            for double in doublings:
                if k & 1:
                    s = w + double
                    w = s - (((s + bias) & tops) >> (b - 1)) * p
                k >>= 1
            return w

        def doublings(h: int) -> list[int]:
            out = [h]
            while len(out) < p.bit_length():
                out.append(add_times(out[-1], 1, out[-1:]))  # twice the last
            return out

        placed = []
        for i, level in zip(range(len(lanes)), self.levels):
            w, own = int.from_bytes(data[i * size : (i + 1) * size], "little"), 0
            while w:
                lead = ((w & -w).bit_length() - 1) // b
                c = (w >> lead * b) & mask
                held = holders.get(lead)
                if held is not None and held[1] <= level:
                    w = add_times(w, p - c, held[0])
                    continue
                own = own or w
                holders[lead] = (doublings(add_times(0, pow(c, -1, p), doublings(w))), level)
                per_level[level] += 1
                if held is None:
                    break
                per_level[held[1]] -= 1
                w, level = add_times(held[0][0], p - 1, holders[lead][0]), held[1]
            placed.append(own.to_bytes(size, "little"))
        return np.frombuffer(b"".join(placed), dtype=lanes.dtype).reshape(lanes.shape).astype(np.int64)


def _dead_indices(flow: Flow, u: GoodSubspace) -> list[int]:
    d = flow.discrete_dim
    return list(range(d)) + [d + i for i in sorted(u.zero_set)]


def _constraint_blocks(flow: Flow, dead: list[int], n_max: int, window: int):
    """Yield a block of constraint rows for each step n = 1..n_max over
    their support, and take back through ``send`` the rows to carry into
    the next step: the block itself when None is sent.

    Raw step n rows are the dead coordinates of phi^(n-1) inside the
    window, one row per dead coordinate, and each block is the carried
    rows of the step before times the window matrix.  A row of width w
    times that matrix reads only the matrix rows below w, and those read
    at most ``bandwidth`` columns past w, so each block holds only its
    leading ``w + bandwidth`` columns (it is zero beyond), and carried rows
    must be zero past the width of the block they were taken from.  The
    window matrix is given by its nonzeros, built once by
    ``window_nonzeros`` together with their column runs (``_Nonzeros``); a
    step costs O(rows * nnz), not O(rows * cols * w) as a dense product
    would.  GF(2) blocks are uint8, other blocks int64 codes.

    The largest dense array of a chain is a restricted block over GF(p^d):
    at most ``len(dead) * d`` rows, since no step carries more rows than
    its block has, of at most ``(discrete_dim + window) * d`` entries.
    TooLarge is raised before anything is built when that bound exceeds
    ``_ENTRY_CAP``.

    Carried rows.  Give row i of every block a level l(i), non-decreasing
    in i, and let ``V_l(n)`` be the span of the raw rows of level <= l of
    steps 1..n.  The consumer may carry any rows C such that, for every l,
    C's rows of level <= l span ``V_l(n)`` together with ``V_l(n-1)``.
    Every rank and every constraint form then stays what the raw rows
    give, because every block has that property too.  Proof, by induction
    on n: step 1's block is raw.  If C has it at step n, applying phi* to
    both sides of ``C_{<=l} + V_l(n-1) = R_{<=l} + V_l(n-1)``, with R the
    raw rows of step n, gives the same for the next block and the raw rows
    of step n+1, modulo ``phi* V_l(n-1)``.  That space is spanned by the
    raw rows of level <= l of steps 2..n, so it lies in ``V_l(n)``; this is
    ``S_{n+1} = S_1 + phi* S_n``.  Adding ``V_l(n)`` to both sides, the
    next block spans ``V_l(n+1)`` together with ``V_l(n)``.

    Two ways to get such rows C from a block B that has the property:

    - keep the row levels and replace row i of level l by ``g + a``, where
      g is B's row i and a lies in ``V_l(n-1)`` plus the span of B's
      earlier rows.  The change is unitriangular modulo ``V_l(n-1)`` on
      every prefix of the rows, so it keeps the spans.  By induction, row
      i of every block then differs from the raw row ``phi*^(n-1) e_i`` by
      an element of ``V_l(n-1)`` plus the span of the raw rows j < i of
      step n;
    - with a single level, take any basis of ``V(n)`` modulo ``V(n-1)``.
    """
    field = flow.field
    dim = flow.discrete_dim + window
    if len(dead) * field.d**2 * dim > _ENTRY_CAP:
        raise TooLarge(
            f"{len(dead)} constraint rows over a window of {dim} coordinates exceed the cap "
            f"of {_ENTRY_CAP} restricted entries"
        )
    entries = window_nonzeros(flow, window)
    # the largest int64 sum in ``_times_nonzeros``
    if entries[0].size * (field.p - 1) ** 2 >= 1 << 63:
        raise TooLarge(f"{entries[0].size} window entries over GF({field.p}) overflow int64 sums")
    nonzeros = _Nonzeros.of(*entries)
    reach = flow.endo.bandwidth
    width = min(dim, max(dead) + 1 if dead else 0)
    block = np.zeros((len(dead), width), dtype=np.uint8 if field.q == 2 else np.int64)
    block[np.arange(len(dead)), dead] = 1
    for n in range(1, n_max + 1):
        carried = yield block
        if n < n_max:
            rows = block if carried is None else carried
            block = _times_nonzeros(field, rows, nonzeros, min(dim, block.shape[1] + reach))


class _Nonzeros(NamedTuple):
    """A window matrix's nonzeros ``(rows, cols, codes)``, sorted by column
    as ``window_nonzeros`` gives them, with their runs of equal columns:
    where each run starts, its column, and ``row_bound``, one past the
    running maximum of ``rows``.  Built once per window; a product with
    the leading columns of the matrix reads a prefix of each."""

    rows: np.ndarray
    cols: np.ndarray
    codes: np.ndarray
    starts: np.ndarray
    run_cols: np.ndarray
    row_bound: np.ndarray

    @classmethod
    def of(cls, rows: np.ndarray, cols: np.ndarray, codes: np.ndarray) -> "_Nonzeros":
        starts = np.flatnonzero(np.diff(cols, prepend=-1))
        return cls(rows, cols, codes, starts, cols[starts], np.maximum.accumulate(rows) + 1)


def _times_nonzeros(field, block: np.ndarray, nonzeros: _Nonzeros, out_cols: int) -> np.ndarray:
    """The leading ``out_cols`` columns of ``block @ W``, where W is given
    by its nonzeros, as uint8 over GF(2) and int64 codes otherwise.

    Column c of the product is the sum, over the entries (r, c, code), of
    block column r times code.  The entries with column below ``out_cols``
    are a prefix of the nonzeros, and their runs of equal columns a prefix
    of the runs.  The block's columns become the rows of ``lanes``, which
    are gathered by the entries' rows, multiplied by the codes and summed
    over each run by one ``reduceat`` along the entries; the sums go to
    the runs' columns, and the transpose comes back.  Entries may read
    rows past the block's width: ``lanes`` is padded with zero rows up to
    the prefix's largest row, and a zero row adds nothing in any field.

    Only the lanes and the sum differ by field.  Over GF(2) every code is
    1, a sum is an XOR, and byte i of a 64-bit lane word is block row i:
    XOR acts bytewise, so no byte carries into the next and the byte
    order does not matter.  Over other fields a lane is one int64 code,
    and a sum is an XOR for p = 2, an int64 sum mod p over an odd prime
    field, or an int64 sum of digits encoded again over an odd extension.
    A term is at most (p-1)^2 and a sum has at most nnz terms, so every
    int64 sum is at most nnz * (p-1)^2, which ``_constraint_blocks``
    checks is below 2^63: the sums are exact.
    """
    count, width = block.shape
    entries = nonzeros.cols.searchsorted(out_cols)
    runs = nonzeros.run_cols.searchsorted(out_cols)
    rows, starts, cols = nonzeros.rows[:entries], nonzeros.starts[:runs], nonzeros.run_cols[:runs]
    packed = field.q == 2
    dtype, span = (np.uint8, -(-count // 8) * 8) if packed else (np.int64, count)
    out = np.zeros((out_cols, span), dtype=dtype)
    if entries and count:
        lanes = np.zeros((max(width, nonzeros.row_bound[entries - 1]), span), dtype=dtype)
        lanes[:width, :count] = block.T
        if packed:
            out.view(np.uint64)[cols] = np.bitwise_xor.reduceat(lanes.view(np.uint64)[rows], starts)
        else:
            codes = nonzeros.codes[:entries, None]
            terms = lanes[rows] * codes if field.d == 1 else field.arr_mul(lanes[rows], codes)
            if field.p == 2:
                out[cols] = np.bitwise_xor.reduceat(terms, starts)
            elif field.d == 1:
                out[cols] = np.add.reduceat(terms, starts) % field.p
            else:
                out[cols] = field.encode_array(np.add.reduceat(field.coords_array(terms), starts))
    return out.T[:count].copy()


def _restrict(field, block: np.ndarray) -> np.ndarray:
    """The rows of a GF(p^d)-block restricted to GF(p).

    Row v becomes the d rows of prime-field coordinates of x^t * v for
    t < d, coordinate k of entry j in column j*d + k; they span the same
    GF(p)-space as the GF(p^d)-span of v.  Hence the GF(p) rank of the
    restricted rows is d times the GF(p^d) rank of the block.
    """
    if field.d == 1:
        return block
    powers = np.asarray([field.power(field.generator, t) for t in range(field.d)], dtype=np.int64)
    prods = field.arr_mul(powers[None, :, None], block[:, None, :])
    rows, cols = block.shape
    return field.coords_array(prods).reshape(rows * field.d, cols * field.d)


def _unrestrict(field, rows: np.ndarray) -> np.ndarray:
    """The GF(p^d)-rows whose restrictions' first rows (t = 0) are every
    d-th of ``rows``: coordinate k of entry j is read from column j*d + k."""
    if field.d == 1:
        return rows
    first = rows[:: field.d]
    return field.encode_array(first.reshape(first.shape[0], first.shape[1] // field.d, field.d))


def _rank_traces(
    flow: Flow, dead: list[int], counts: Sequence[int], n_max: int, window: int
) -> list[list[int]]:
    """Codimension traces of the first ``count`` constraint rows per step,
    for each count in ``counts`` (non-decreasing), tracked over the prime
    field in one flag tracker.

    Restricted row j has level ``#{c in counts : c * deg <= j}``, so it
    belongs to the span of count c exactly when ``j < c * deg``.  Each
    step's restricted rows are inserted once, and the codimension at step
    n is the rank at the count's level over ``deg``, less ``count``, the
    codimension of the good subspace itself.

    The next step multiplies out the values the tracker placed, not the
    raw rows.  The value of the first restricted row of a GF(p^d)-row g
    differs from it by an element of the tracker's span of level <= l,
    which is the restriction of ``V_l(n-1)`` plus the GF(p^d)-span of the
    rows before g: both are GF(p^d)-spaces, and the earlier rows came in
    with all d of their restricted rows.  So the row read back by
    ``_unrestrict`` is g plus an element of that GF(p^d)-space, which is
    what ``_constraint_blocks`` allows to carry.
    """
    field = flow.field
    deg = field.d
    bounds = [count * deg for count in counts]
    stack = _FlagStack2(bounds) if field.p == 2 else _FlagStackOdd(field.p, bounds)
    values: list[list[int]] = [[] for _ in counts]
    blocks = _constraint_blocks(flow, dead, n_max, window)
    carried = None
    for _ in range(n_max):
        carried = _unrestrict(field, stack.insert(_restrict(field, blocks.send(carried))))
        for count, rank, vals in zip(counts, stack.ranks, values):
            vals.append(rank // deg - count)
    return values


def codim_sequence(
    flow: Flow, u: GoodSubspace, n_max: int, cfg: EngineConfig = DEFAULT_CONFIG
) -> CodimTrace:
    """Trace of codim_U(C_n) for n = 1..n_max, computed in one window."""
    window = default_window(flow, u, n_max, cfg.window_slack)
    dead = _dead_indices(flow, u)
    (values,) = _rank_traces(flow, dead, [len(dead)], n_max, window)
    return CodimTrace(u, tuple(values), window)


def chain_traces(flow: Flow, n_max: int, cfg: EngineConfig = DEFAULT_CONFIG) -> list[CodimTrace]:
    """Traces for the whole chain U_0, ..., U_{m_max} in one pass.

    The constraint rows of a smaller chain member are a prefix of the rows
    of the largest one, so the constraint spans of the members form a flag.
    A single sequence of row-block products feeds one tracker that holds a
    basis adapted to that flag: each row enters once, at the level of the
    smallest member it belongs to, and every member's rank is read from
    that basis.  All members share the window certified for the largest,
    which is sound by window independence.
    """
    top = GoodSubspace.principal(cfg.m_max)
    window = default_window(flow, top, n_max, cfg.window_slack)
    d = flow.discrete_dim
    counts = [d + m for m in range(cfg.m_max + 1)]
    values = _rank_traces(flow, _dead_indices(flow, top), counts, n_max, window)
    return [
        CodimTrace(GoodSubspace.principal(m), tuple(vals), window) for m, vals in enumerate(values)
    ]


def cotrajectory(
    flow: Flow, u: GoodSubspace, n: int, cfg: EngineConfig = DEFAULT_CONFIG
) -> Subspace:
    """The n-step cotrajectory inside its certified window, canonical."""
    if n < 1:
        raise ValueError("cotrajectory depth must be at least 1")
    window = default_window(flow, u, n, cfg.window_slack)
    return kernel(cotrajectory_run(flow, u, n, window)[-1])


def cotrajectory_run(flow: Flow, u: GoodSubspace, n_max: int, window: int) -> list[Matrix]:
    """Constraint forms of the cotrajectories for n = 1..n_max at a given
    window.

    Form n is the reduced row-echelon form, without zero rows, of the
    constraint rows of steps 1..n; the n-step cotrajectory is its kernel.
    Each form is the previous one, with its pivots, extended by step n's
    rows through ``_rref_extend``, which walks only the new pivots.  A row
    space has exactly one such form, so it is the one a reduction of all
    the rows from scratch gives, and equal forms mean equal
    cotrajectories.

    Step n carries into the next step the rows of form n at its new
    pivots, the reduced residues of its block, so the next block has
    ``delta_n`` rows.  They vanish at the old pivots and have distinct new
    pivots, so no nonzero combination of them lies in the span ``V(n-1)``
    of form n-1, whose only vector vanishing at all its pivots is 0.  There
    are ``dim V(n) - dim V(n-1)`` of them, so they are a basis of ``V(n)``
    modulo ``V(n-1)``, which ``_constraint_blocks`` allows to carry.
    Every raw row of steps 1..n is zero past step n's block width, so form
    n is too, and trimming the rows to that width drops only zeros.
    """
    field = flow.field
    red = np.zeros((0, flow.discrete_dim + window), dtype=np.int64)
    pivots: list[int] = []
    out = []
    blocks = _constraint_blocks(flow, _dead_indices(flow, u), n_max, window)
    carried = None
    for _ in range(n_max):
        block = blocks.send(carried)
        old = pivots
        red, pivots = _rref_extend(field, red, pivots, block.astype(np.int64, copy=False))
        out.append(Matrix(field, red))
        new = np.ones(len(pivots), dtype=bool)
        new[np.searchsorted(pivots, old)] = False  # pivots come sorted
        carried = red[new, : block.shape[1]].astype(block.dtype, copy=False)
    return out


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HStarResult:
    """Stabilized growth rate of one codimension trace, or a lower bound."""

    value: int | None
    lower_bound: Fraction
    trace: CodimTrace
    streak: int
    subadditive: bool

    @property
    def resolved(self) -> bool:
        return self.value is not None


def _terminal_streak(diffs: Sequence[int]) -> int:
    if not diffs:
        return 0
    run = 1
    for a, b in zip(reversed(diffs[:-1]), reversed(diffs)):
        if a != b:
            break
        run += 1
    return run


def _evaluate_trace(trace: CodimTrace, cfg: EngineConfig) -> HStarResult:
    diffs = trace.first_differences()
    streak = _terminal_streak(diffs)
    subadditive = trace.is_subadditive()
    lower = Fraction(trace.values[-1], len(trace.values))
    if subadditive and streak >= cfg.streak:
        return HStarResult(diffs[-1], lower, trace, streak, subadditive)
    return HStarResult(None, lower, trace, streak, subadditive)


def h_star(flow: Flow, u: GoodSubspace, cfg: EngineConfig = DEFAULT_CONFIG) -> HStarResult:
    """Growth rate of the codimension trace over a single good subspace.

    Resolves to the final first difference when the last ``cfg.streak``
    differences agree; for the representable flows the differences are
    eventually constant, so the constant equals the limit of c_n / n.
    Otherwise reports the exact lower bound c_N / N and stays unresolved.
    A subadditivity violation (impossible for true traces) also forces the
    unresolved path so a broken fixture can never resolve wrongly.
    """
    return _evaluate_trace(codim_sequence(flow, u, cfg.n_max, cfg), cfg)


@dataclass(frozen=True)
class EntropyEstimate:
    """Entropy over the principal chain of good subspaces.

    ``value`` is None while unresolved; the uniform-entropy conversion is
    reported as the exact pair (value, field order).
    """

    value: int | None
    per_u: tuple[tuple[int, HStarResult], ...]
    field_order: int
    lower_bound: Fraction

    @property
    def resolved(self) -> bool:
        return self.value is not None

    @property
    def h_top_pair(self) -> tuple[int | None, int]:
        return (self.value, self.field_order)


def ent_star(flow: Flow, cfg: EngineConfig = DEFAULT_CONFIG) -> EntropyEstimate:
    """Entropy estimate: supremum of per-subspace rates over U_0, ..., U_M.

    The principal chain is a local basis at zero, so its supremum equals
    the supremum over all linearly compact open subspaces.  The estimate is
    unresolved when any chain member is unresolved or when the per-member
    rates are still strictly increasing at the last member.
    """
    traces = chain_traces(flow, cfg.n_max, cfg)
    per_u = tuple((m, _evaluate_trace(trace, cfg)) for m, trace in enumerate(traces))
    results = [res for _, res in per_u]
    bounds = [res.lower_bound if res.value is None else Fraction(res.value) for res in results]
    lower = max(bounds)
    if all(res.resolved for res in results):
        values = [res.value for res in results]
        still_growing = len(values) >= 2 and values[-1] > values[-2]
        if not still_growing:
            return EntropyEstimate(max(values), tuple(per_u), flow.field.q, lower)
    return EntropyEstimate(None, tuple(per_u), flow.field.q, lower)


# ---------------------------------------------------------------------------
# independent oracle
# ---------------------------------------------------------------------------

_ORACLE_CAP = 4096


def brute_force_codim(flow: Flow, u: GoodSubspace, n: int, window: int) -> int:
    """Cotrajectory codimension by exhaustive window enumeration.

    Independent of the subspace machinery: every window vector is tested
    for membership by applying the truncated matrix repeatedly and reading
    the dead coordinates.  GF(2) only, at most 4096 vectors.
    """
    field = flow.field
    if field.q != 2:
        raise TooLarge("the enumeration oracle only runs over GF(2)")
    size = flow.discrete_dim + window
    if 2**size > _ORACLE_CAP:
        raise TooLarge(f"2^{size} window vectors exceed the cap of {_ORACLE_CAP}")
    if u.extent > window:
        raise TooLarge("window does not contain the zero set")
    mat, _ = truncate(flow, window)
    dead = _dead_indices(flow, u)
    count = 1 << size
    vectors = (np.arange(count, dtype=np.int64)[:, None] >> np.arange(size)) & 1
    alive = np.ones(count, dtype=bool)
    current = vectors
    if dead:
        alive &= ~current[:, dead].any(axis=1)
    members_u = int(alive.sum())
    for _ in range(n - 1):
        current = field.arr_matmul(current, mat.data.T)
        if dead:
            alive &= ~current[:, dead].any(axis=1)
    members_c = int(alive.sum())
    dim_u = members_u.bit_length() - 1
    dim_c = members_c.bit_length() - 1
    if members_u != 1 << dim_u or members_c != 1 << dim_c:
        raise NotSubspace(f"{members_u} and {members_c} window vectors are not both powers of 2")
    return dim_u - dim_c


# ---------------------------------------------------------------------------
# report objects
# ---------------------------------------------------------------------------


def _fraction_pair(f: Fraction) -> list[int]:
    return [f.numerator, f.denominator]


def entropy_report(flow: Flow, estimate: EntropyEstimate, cfg: EngineConfig) -> dict:
    """JSON-ready report: label, field, per-subspace traces, value, and the
    uniform-entropy factor as an exact pair plus a display decimal."""
    import math

    decimal = (
        f"{estimate.value * math.log(estimate.field_order):.12f}"
        if estimate.resolved
        else None
    )
    return {
        "flow": flow.label,
        "field": flow.field.descriptor,
        "resolved": estimate.resolved,
        "value": estimate.value,
        "lower_bound": _fraction_pair(estimate.lower_bound),
        "h_top": {
            "ent_star": estimate.value,
            "field_order": estimate.field_order,
            "log_value": decimal,
        },
        "per_u": [
            {
                "m": m,
                "window": res.trace.window,
                "codims": list(res.trace.values),
                "h_star": res.value,
                "lower_bound": _fraction_pair(res.lower_bound),
                "streak": res.streak,
                "subadditive": res.subadditive,
            }
            for m, res in estimate.per_u
        ],
        "config": {
            "n_max": cfg.n_max,
            "streak": cfg.streak,
            "m_max": cfg.m_max,
            "window_slack": cfg.window_slack,
        },
    }


def field_label(field) -> str:
    """Deterministic one-cell rendering of a field for CSV output."""
    return f"GF({field.q})"


def report_csv_rows(flow: Flow, estimate: EntropyEstimate) -> list[list]:
    rows = []
    label = field_label(flow.field)
    for m, res in estimate.per_u:
        for n, c in enumerate(res.trace.values, start=1):
            rows.append([flow.label, label, m, n, c, res.trace.window])
    return rows
