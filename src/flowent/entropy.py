"""Entropy of a flow from exact cotrajectory codimension traces.

For a good subspace U with zeroed coordinate set S, membership of a window
vector v in the n-step cotrajectory is the vanishing of the discrete part
and the S-coordinates of v, phi(v), ..., phi^(n-1)(v).  Those constraints
are rows of powers of the window matrix, so the codimension trace is the
rank growth of an accumulating constraint stack: each step applies the
flow once to the previous constraint block.  The flow is row-finite, so
it is applied through the list of its window's nonzeros, the same list
that ``model.truncate`` scatters into a dense matrix, read once per
window.  The dense window matrix is never built.  A block's rows are
integers, as the tracker holds them, from the tracker through the
product and back: digit t of column j is lane j*d + t, of one bit in
characteristic 2 and over odd p of ``p.bit_length() + 1`` bits, the
fewest whose lane sums stay exact (``_lane_bits``).  A row's product is
the sum of its boundary lanes' images and of a few masked, shifted
copies of itself, one per stencil phase, digit and entry: XORs over
GF(2^k), and over odd p lane-wise sums mod p of copies times the
entry's digits.

The constraint spans of the principal chain U_0, ..., U_M form a flag
V_0 <= ... <= V_M: member m's rows are a prefix of member M's.  So one
tracker per chain holds a basis adapted to that flag, each row is
inserted once at the level of the smallest member it belongs to, and
member m's rank is the number of basis rows of level <= m.  One
elimination with level exchanges serves every field, one lane operation
per step: the digits of GF(2^k) rows, packed as they are, in k-bit lanes
added by XOR, and the rows x^s*r, s < d, of the restriction of a
GF(p^d) row r to GF(p), built from r by lane shifts, in lanes added mod p
at once.

The flow is not applied to the raw rows phi*^(n-1) e_i but to what the
tracker has made of them: since ``S_{n+1} = S_1 + phi* S_n``, a row may
be carried into the next step reduced by the constraint span of the
steps before and by the step's earlier rows, at its level or below, and
every rank stays the same (``_constraint_blocks`` has the proof).  The
tracker hands back each row's value where it first settled, so the next
step's rows mostly skip the holders their rows climbed through before.

``cotrajectory_run`` is the one trace loop: at each step it yields the
carried block and the tracker's ranks.  The traces read the ranks, and
a verify's three estimates and its identities both read one such run
per field: the identities by the ranks of more trackers on its blocks,
as a cotrajectory is the kernel of its constraint rows, and two kernels
are equal exactly when the row spans are.  No reduced row-echelon form
is built.  ``_chain_run`` lays out every principal chain's run, for
``compute``, ``oracle`` and each side of ``verify``: its top member, the
window certified for it, its dead rows and its member counts.

The estimate is exact: values are integers, lower bounds are fractions,
and there are no tolerances anywhere.  The flows the entropy laws are
checked on, such as powers and conjugates, are built in ``model``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import NotSubspace, TooLarge
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
    "codim_sequence",
    "chain_traces",
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

    def is_subadditive(self, diffs: Sequence[int] | None = None) -> bool:
        """Subadditivity of a_i := c_{i+1} (the shifted sequence with
        a_0 = 0), which is what makes the limit of c_n / n exist.  The
        unshifted values are not subadditive: the one-dimensional shift has
        c_n = n - 1, and c_{n+m} = n + m - 1 > c_n + c_m.  ``diffs``, when
        given, are the trace's ``first_differences()``.

        A trace whose first differences never increase, with c_1 >= 0, is
        subadditive without a check of every pair.  With a_i the values
        (a_0 = c_1) and delta_s = a_{s+1} - a_s, for i, j >= 1:
        ``a_{i+j} - a_j = sum_{s<i} delta_{j+s} <= sum_{s<i} delta_s =
        a_i - a_0 <= a_i``.  Every other trace takes the pairwise check
        (``_pairwise_subadditive``), so the answer is the same for every
        trace."""
        if diffs is None:
            diffs = self.first_differences()
        if self.values and self.values[0] >= 0 and all(a >= b for a, b in zip(diffs, diffs[1:])):
            return True
        return _pairwise_subadditive(self.values)


def _pairwise_subadditive(values: Sequence[int]) -> bool:
    """a_{i+j} <= a_i + a_j for every i, j >= 1 with i + j < len(values),
    a_i = ``values[i]``, in one O(n^2) array."""
    a = np.asarray(values, dtype=np.int64)  # a[i] = c_{i+1}, a[0] = 0
    i = np.arange(1, len(a))
    k = i[:, None] + i[None, :]  # every pair i, j >= 1 with i + j < len(a)
    inside = k < len(a)
    return bool(np.all(a[k[inside]] <= (a[i, None] + a[None, i])[inside]))


class _FlagStack:
    """Rank tracker over the flow's field F for a flag ``V_0 <= ... <= V_M``.

    ``counts`` is non-decreasing.  Row j of each inserted block, which has
    at most ``counts[-1]`` rows, has level ``#{c in counts : c <= j}``, and
    ``V_m`` is the F-span of all rows inserted so far at level <= m.  The
    lead of a row is its first nonzero column.  Each lead has at most one
    holder, stored with a level, possibly times a unit.  Row w enters at
    its level l and, while w is nonzero, looks up the holder h of its lead:

    - none: w becomes the holder, at level l;
    - h at a level <= l: w becomes ``w + e*h``;
    - h at a level above l: w becomes the holder at level l, and the
      displaced h goes on as ``h + e*w`` at its own level;

    each time with the e in F that moves the lead key up: the lead, or in
    ``_FlagStack2`` the lowest set bit.  The holders of level <= m are a
    basis of ``V_m`` for every m, so ``ranks[m]`` counts them.  Proof:
    every step adds to the row it changes a multiple of a row of no higher
    level, so no ``V_m`` changes except that w joins it for m >= l; each
    holder of level <= m lies in ``V_m``; and holders have distinct leads,
    so they are independent.  Each step ends the loop or moves the lead key
    strictly up, so an insert ends after at most one step per key.

    ``insert`` takes a block of the stream, rows packed as ``_pack_lanes``
    packs them in lanes of ``lane`` bits, and returns, packed, each row's
    value when it first becomes a holder at its own level l, or 0 when it
    reduces to 0 there: the row plus an F-combination of holders of level
    <= l, which span ``V_l(n-1)`` and the block's earlier rows, so
    ``_constraint_blocks`` may carry it as it is.  A raw row climbs through
    the holders at low columns at every step; a carried value's image
    mostly starts past them.  ``ranks`` are in F's units, also when a
    subclass tracks ``unit`` rows per row.
    """

    def __init__(self, field, counts: Sequence[int], unit: int = 1):
        self.levels = np.searchsorted(counts, np.arange(counts[-1]), side="right").tolist()
        self.field, self.unit, self.lane = field, unit, _lane_bits(field.p)
        self.holders: dict = {}
        self.per_level = [0] * len(counts)

    @property
    def ranks(self) -> list[int]:
        ranks = list(accumulate(self.per_level))
        return ranks if self.unit == 1 else [rank // self.unit for rank in ranks]


def _flag_stack(field, counts: Sequence[int]) -> _FlagStack:
    return (_FlagStack2 if field.p == 2 else _FlagStackOdd)(field, counts)


def _lane_bits(p: int) -> int:
    """The bits of a lane, one digit of a packed row over GF(p^d): 1 for
    p = 2, else b, the least with p <= 2^(b-1), which is all
    ``_FlagStackOdd`` needs to prove its lane sums exact.  An odd p lies
    strictly between 2^(L-1) and 2^L, L = ``p.bit_length()``, so b = L + 1:
    3 for p = 3, 9 for 251 and 17 for 65521, the largest below
    ``_PRIME_CAP``."""
    return 1 if p == 2 else p.bit_length() + 1


def _pack_lanes(block: np.ndarray, lane: int = 1) -> list[int]:
    """The rows of a digit block packed into integers, column i in lane i,
    the ``lane`` bits from ``i*lane`` on: over GF(p^d), with ``lane =
    _lane_bits(p)``, digit t of column j is lane ``j*d + t``.  Over
    characteristic 2 a lane is one bit, so two rows add by one XOR.

    One bit-level path for every width: a row's bits, ``lane`` to a digit
    and lowest first, are packed eight to a byte by ``np.packbits``.  In
    lanes of one bit the digits are those bits; in wider lanes each digit
    is expanded to the low ``lane`` of its 64 bits, uint8 each, and a
    block of more than ``_ENTRY_CAP`` such bits is packed in slices of
    rows, which bounds the expanded copy."""
    bits = block
    if lane > 1:
        count, width = block.shape
        step = max(1, _ENTRY_CAP // max(width * lane, 1))
        if count > step:
            return [row for lo in range(0, count, step) for row in _pack_lanes(block[lo : lo + step], lane)]
        octets = np.ascontiguousarray(block, "<i8").view(np.uint8).reshape(count, width, 8)
        bits = np.unpackbits(octets, axis=2, count=lane, bitorder="little").reshape(count, width * lane)
    data = np.packbits(bits, axis=1, bitorder="little")
    size, raw = data.shape[1], data.tobytes()
    return [int.from_bytes(raw[i * size : (i + 1) * size], "little") for i in range(len(data))]


def _unpack_lanes(rows: Sequence[int], width: int, lane: int = 1) -> np.ndarray:
    """Packed rows as a digit block of ``width`` columns, uint8 for lanes of
    one bit and int64 otherwise; the inverse of ``_pack_lanes``, by its
    path backwards: ``np.unpackbits`` gives a row's bits, which in lanes of
    one bit are its digits, and in wider lanes fill the low ``lane`` of
    each digit's 64 bits, which ``np.packbits`` packs, in slices of rows of
    at most ``_ENTRY_CAP`` such bits."""
    size = -(-width * lane // 8)
    data = np.frombuffer(b"".join(row.to_bytes(size, "little") for row in rows), np.uint8).reshape(len(rows), size)
    if lane == 1:
        return np.unpackbits(data, axis=1, count=width, bitorder="little")
    out = np.empty((len(rows), width), dtype=np.int64)
    step = max(1, _ENTRY_CAP // max(width * 64, 1))
    for lo in range(0, len(rows), step):
        bits = np.unpackbits(data[lo : lo + step], axis=1, count=width * lane, bitorder="little")
        slots = np.zeros((len(bits), width, 64), dtype=np.uint8)
        slots[:, :, :lane] = bits.reshape(len(bits), width, lane)
        out[lo : lo + step] = np.packbits(slots.reshape(len(bits), -1), axis=1, bitorder="little").view("<i8")
    return out


def _mapped_rows(field, rows: Sequence[int], maps) -> list[list[int]]:
    """Packed rows over ``field`` through each of ``maps``, digit-row maps
    into fields of the same characteristic (``FieldEmbedding.expand_digits``
    and ``embed_digits``), each image packed in the same lanes: the rows are
    unpacked once, as a digit block of whole columns, as many as the widest
    row reaches, and each image is packed once."""
    lane = _lane_bits(field.p)
    columns = -(-max(map(int.bit_length, rows), default=0) // (field.d * lane))
    digits = _unpack_lanes(rows, columns * field.d, lane)
    return [_pack_lanes(to_side(digits), lane) for to_side in maps]


def _lane_low(field) -> int:
    """x^k in GF(2^k) as a lane: the modulus without its x^k term."""
    return sum(c << t for t, c in enumerate(field.modulus[:-1]))


def _lane_tops(k: int, width: int) -> int:
    """Bit k-1 of each of ``width`` lanes."""
    return ((1 << width * k) - 1) // ((1 << k) - 1) << (k - 1)


def _lane_times(w: int, c: int, k: int, low: int, tops: int) -> int:
    """c*w, for c in GF(2^k) and a packed row w no wider than ``tops``:
    the XOR of the x^s*w over the set bits s of c.

    x*u is ``t = u & tops; ((u ^ t) << 1) ^ ((t >> (k-1)) * low)``, with
    ``low = _lane_low(field)`` and ``tops = _lane_tops(k, width)``: once
    the top bits are cleared the shift moves no bit out of its lane, and
    each lane whose top bit was set gets x^k = ``low``.
    """
    out = 0
    while True:
        if c & 1:
            out ^= w
        c >>= 1
        if not c:
            return out
        top = w & tops
        w = ((w ^ top) << 1) ^ ((top >> (k - 1)) * low)


class _FlagStack2(_FlagStack):
    """``_FlagStack`` over GF(2^k) on rows packed as ``_pack_lanes`` packs
    them, one bit per digit.  Here column j of the field is lane j, the k
    bits from ``j*k`` on.

    A holder u of lane j has lane value 1, and ``holders`` maps bit
    ``j*k + t`` to (x^t*u, level) for each t < k.  A row whose lowest set
    bit is bit t of lane j XORs x^t*u into itself: x^t*u has lane value
    exactly bit t and is zero in every lane below j, so the XOR clears bit
    t and nothing lower.  A row w that reaches a lane held at a higher
    level takes all k bits of it, scaled to ``w/c`` by ``_lane_times``,
    and the displaced x^t*u goes on XORed with the new x^t*w/c, which
    clears the lane.  The x^t*u, t < k, are a GF(2)-basis of the
    GF(2^k)-span of u with distinct lowest bits, so the rows stored for
    lanes held at level <= m are a GF(2)-basis of a GF(2^k)-space, and
    ``per_level`` counts lane holders: the GF(2^k) rank.  Each XOR adds a
    GF(2^k)-multiple of a holder.

    ``tops`` covers the ``lanes`` lanes of the widest row inserted so far:
    XORs and multiples by ``_lane_times`` stay within the lanes of the
    rows they combine, so it covers every value an insert makes.
    """

    def __init__(self, field, counts: Sequence[int]):
        super().__init__(field, counts)
        self.low, self.lanes, self.tops = _lane_low(field), 0, 0

    def insert(self, rows: Sequence[int]) -> list[int]:
        """Insert packed rows; return their placed values, packed."""
        holders, per_level, k = self.holders, self.per_level, self.field.d
        if k > 1:
            lanes = -(-max(map(int.bit_length, rows), default=0) // k)
            if lanes > self.lanes:
                self.lanes, self.tops = lanes, _lane_tops(k, lanes)
        tops = self.tops
        placed = []
        for packed, level in zip(rows, self.levels):
            own = 0
            while packed:
                lead = (packed & -packed).bit_length() - 1
                held = holders.get(lead)
                if held is None:
                    own = own or packed
                    per_level[level] += 1
                    if k == 1:
                        holders[lead] = (packed, level)
                    else:
                        self._hold(packed, lead, level, tops)
                    break
                holder, held_level = held
                if held_level <= level:
                    packed ^= holder
                else:
                    own = own or packed
                    per_level[level] += 1
                    per_level[held_level] -= 1
                    if k == 1:
                        holders[lead] = (packed, level)
                    else:
                        packed = self._hold(packed, lead, level, tops)
                    packed, level = holder ^ packed, held_level
            placed.append(own)
        return placed

    def _hold(self, w: int, lead: int, level: int, tops: int) -> int:
        """Hold the lane of bit ``lead`` by w/c, c w's lane value; return the multiple under ``lead``."""
        k, low = self.field.d, self.low
        lane = lead - lead % k
        u = _lane_times(w, self.field.inv((w >> lane) & ((1 << k) - 1)), k, low, tops)
        self.holders[lane] = (u, level)
        for t in range(1, k):
            u = _lane_times(u, 2, k, low, tops)
            self.holders[lane + t] = (u, level)
        return self.holders[lead][0]


class _FlagStackOdd(_FlagStack):
    """``_FlagStack`` over GF(p^d), p odd, on rows packed as ``_pack_lanes``
    packs them: digit t of column j is lane j*d + t, the b bits from
    ``(j*d + t)*b`` on, b = ``_lane_bits(p)``, which hold a code 0..p-1.
    b is ``p.bit_length() + 1``, the least with p <= 2^(b-1), which is all
    the lane rule below needs: 3 bits over GF(3) and GF(9), so a row's
    every add and shift runs on as few limbs as the rule allows.

    It eliminates over GF(p): a row r enters as up to d rows that span over
    GF(p) what r spans over GF(p^d), as its restriction x^s*r, s < d, does
    (``FiniteField.restrict``, x the field's generator), and
    ``per_level`` counts d holders per GF(p^d) rank (``unit``).  The first
    is r, and each next one x times ``u_(s-1)``, the value where the one
    before settled, which climbs through fewer holders than x^s*r.  Proof:
    let V be the span of the holders of level <= l when r enters at level
    l, the GF(p)-span of GF(p^d)-spans of rows, by induction, so closed
    under x, and let ``S_s = V + <r, x*r, ..., x^s*r>``, ``S_-1 = V``.  If
    ``u_(s-1)`` lies in ``x^(s-1)*r + S_(s-2)``, then ``x*u_(s-1)`` lies in
    ``x^s*r + S_(s-1)``, as ``x*S_(s-2)`` lies in ``S_(s-1)``, and so does
    ``u_s``, which differs from it by holders of level <= l, whose span is
    ``S_(s-1)``.  So each insert adds x^s*r to the span, which is ``V +
    GF(p^d)*r`` after the last.  When ``u_s`` is 0, x^s*r lies in
    ``S_(s-1)``, and so does every later x^t*r, since x maps ``S_(s-1)``
    into ``S_s = S_(s-1)``: the row's other inserts are skipped.
    ``insert`` returns ``u_0``, the row's own placed value.

    ``x*u`` moves each digit of u up one lane within its column and adds
    the top digit c times x^d, whose digit t is m_t = ``-modulus[t]``, to
    lane t of the column.  ``lasts`` holds the top lanes, whole: clearing
    them, the shift moves no digit out of its column.  c*m_t is the sum
    of the doublings 2^i*c over the set bits i of m_t, and ``spreads[i]``
    has a 1 in lane t, t < d, exactly when bit i of m_t is set.  2^i*c has
    a nonzero lane only at each column's first, and ``spreads[i]`` is
    below 2^(d*b), so their product copies each column's lane into the
    column's own lanes t, with no carry: one lane add for each i.

    The lead of a row is the lane of its lowest set bit.  Two rows add
    lane-wise mod p in one step: ``s = x + y``, then ``s - (((s + bias) &
    tops) >> (b-1)) * p``, where ``bias`` holds 2^(b-1) - p and ``tops``
    holds 2^(b-1) in every lane.  Proof: a lane of s is at most 2p - 2 <
    2^b, since p <= 2^(b-1), and the same lane of ``s + bias`` is at most
    2^(b-1) + p - 2 < 2^b, so neither sum carries from one lane into the
    next.  That lane of ``s + bias`` is at least 2^(b-1), so has its top
    bit set, exactly when s >= p.  So the step subtracts p from exactly the
    lanes where s >= p, without a borrow, and leaves every lane in 0..p-1.
    ``tops`` and ``bias`` cover the ``lanes`` lanes of the widest row
    inserted so far, whole columns: sums, multiples by x and holders stay
    within the columns of the rows they come from.

    A holder h is kept as it settled, unscaled: ``holders`` maps a lead to
    (h, 2h, 4h, ... one per bit of p; level; a^-1 for h's lead value a).
    A row with lead value c adds k*h, one add per set bit of
    ``k = p - c*a^-1 mod p``: ``c + k*a = 0`` clears the lead.  Placed
    values are as if h were scaled, since ``w - (c/a)*h`` does not change.
    """

    def __init__(self, field, counts: Sequence[int]):
        super().__init__(field, counts, field.d)
        p, b = field.p, self.lane
        x_d = [(-c) % p for c in field.modulus[:-1]]  # the digits m_t of x^d
        self.spreads = [
            sum(1 << t * b for t, m in enumerate(x_d) if m >> i & 1) for i in range(max(x_d).bit_length())
        ]
        self.lanes = self.tops = self.bias = self.lasts = 0

    def insert(self, rows: Sequence[int]) -> list[int]:
        """Insert packed rows; return their placed values, packed."""
        p, b, d, holders, per_level = self.field.p, self.lane, self.field.d, self.holders, self.per_level
        lanes = -(-max(map(int.bit_length, rows), default=0) // (d * b)) * d
        if lanes > self.lanes:
            ones = ((1 << lanes * b) - 1) // ((1 << b) - 1)  # 1 in every lane
            self.lanes, self.tops, self.bias = lanes, ones << (b - 1), ones * ((1 << (b - 1)) - p)
            self.lasts = ((1 << lanes * b) - 1) // ((1 << d * b) - 1) * ((1 << b) - 1) << (d - 1) * b
        tops, bias, lasts, spreads, mask = self.tops, self.bias, self.lasts, self.spreads, (1 << b) - 1
        bits = p.bit_length()
        placed = []
        for w, level in zip(rows, self.levels):
            for s in range(d):
                if s:  # x times the value where the row before settled
                    top = u & lasts
                    w, c = (u ^ top) << b, top >> (d - 1) * b
                    for i, spread in enumerate(spreads):
                        if i:
                            t = c << 1
                            c = t - (((t + bias) & tops) >> (b - 1)) * p
                        if spread:
                            t = w + c * spread
                            w = t - (((t + bias) & tops) >> (b - 1)) * p
                u, at = 0, level
                while w:
                    lead = ((w & -w).bit_length() - 1) // b
                    c = (w >> lead * b) & mask
                    held = holders.get(lead)
                    if held is not None and held[1] <= at:
                        k = p - c * held[2] % p
                        for double in held[0]:
                            if k & 1:
                                t = w + double
                                w = t - (((t + bias) & tops) >> (b - 1)) * p
                            k >>= 1
                        continue
                    u = u or w
                    doublings = [w]
                    for _ in range(1, bits):
                        t = doublings[-1] << 1
                        doublings.append(t - (((t + bias) & tops) >> (b - 1)) * p)
                    holders[lead] = (doublings, at, pow(c, -1, p))
                    per_level[at] += 1
                    if held is None:
                        break
                    per_level[held[1]] -= 1
                    w, at = held[0][0], held[1]
                if not s:
                    own = u
                if not u:
                    break
            placed.append(own)
        return placed


def _dead_indices(flow: Flow, u: GoodSubspace) -> list[int]:
    d = flow.discrete_dim
    return list(range(d)) + [d + i for i in sorted(u.zero_set)]


def _constraint_blocks(flow: Flow, dead: list[int], n_max: int, window: int):
    """Yield a block of constraint rows for each step n = 1..n_max, and
    take back through ``send`` the rows to carry into the next step: the
    block itself when None is sent.

    Raw step n rows are the dead coordinates of phi^(n-1) inside the
    window, one row per dead coordinate, and each block is the carried
    rows of the step before times the window matrix W, read from its
    nonzeros once per run.

    A block is a list of rows packed into integers, digit t of column j in
    lane ``j*d + t`` of ``_lane_bits(p)`` bits, as the trackers take and
    place them, so their placed values are carried as they are.  The
    product multiplies them by shifts of masked parts (``_window_parts``):
    XORs over GF(2^k) (``_ShiftProduct``), and sums mod p of parts times
    digits over odd p (``_LaneProduct``).  A packed row is never wider
    than its support, its ``bit_length``, and no block is padded to a
    width: for a row v that is zero past column s, ``(vW)_c = sum_{r<s}
    v_r W_{r,c}``, so the product reads only v's nonzero lanes, each in a
    boundary lane or a class mask, and is zero past the entries of W's
    rows below s.  The trackers size their lane masks by the widest row
    they have taken, so rows may narrow from step to step.  A step costs,
    per row, a few big-integer operations per nonzero boundary lane, per
    class mask and per class move, each linear in the row's length; over
    odd p, one per set bit of the boundary lane's or the move's digit.  A
    row's length is its support times d lanes of ``_lane_bits(p)`` bits,
    ``p.bit_length() + 1`` over odd p, so no lane is wider than the lane
    rule needs.

    The caps are checked before any row is built: ``default_window``
    checks a chain's rows restricted to GF(p), at most ``len(dead) * d``
    rows, since no step carries more rows than its block has, of at most
    ``(discrete_dim + window) * d`` entries, against ``_ENTRY_CAP``, and
    ``_check_restriction_cap`` the window's entries.

    Carried rows.  Give row i of every block a level l(i), non-decreasing
    in i, and let ``V_l(n)`` be the span of the raw rows of level <= l of
    steps 1..n.  The consumer may carry any rows C such that, for every l,
    C's rows of level <= l span ``V_l(n)`` together with ``V_l(n-1)``.
    Every rank then stays what the raw rows give, because every block has
    that property too.  Proof, by induction on n: step 1's block is raw.
    If C has it at step n, applying phi* to both sides of
    ``C_{<=l} + V_l(n-1) = R_{<=l} + V_l(n-1)``, with R the raw rows of
    step n, gives the same for the next block and the raw rows
    of step n+1, modulo ``phi* V_l(n-1)``.  That space is spanned by the
    raw rows of level <= l of steps 2..n, so it lies in ``V_l(n)``; this is
    ``S_{n+1} = S_1 + phi* S_n``.  Adding ``V_l(n)`` to both sides, the
    next block spans ``V_l(n+1)`` together with ``V_l(n)``.

    Such rows C come from a block B that has the property by keeping the
    row levels and replacing row i of level l by ``g + a``, where g is B's
    row i and a lies in ``V_l(n-1)`` plus the span of B's earlier rows.
    The change is unitriangular modulo ``V_l(n-1)`` on every prefix of the
    rows, so it keeps the spans.  By induction, row i of every block then
    differs from the raw row ``phi*^(n-1) e_i`` by an element of
    ``V_l(n-1)`` plus the span of the raw rows j < i of step n.
    """
    field = flow.field
    product = (_ShiftProduct if field.p == 2 else _LaneProduct).of(flow, window)
    lane = field.d * _lane_bits(field.p)
    block = [1 << i * lane for i in dead]
    for n in range(1, n_max + 1):
        carried = yield block
        if n < n_max:
            block = product.times(block if carried is None else carried)


def _check_restriction_cap(field, entries: int) -> None:
    """Raise TooLarge when ``entries`` window entries may restrict to GF(p)
    to more than ``_ENTRY_CAP``: each to at most d^2."""
    bound = entries * field.d**2
    if bound > _ENTRY_CAP:
        raise TooLarge(f"{entries} window entries restrict to up to {bound}, above the cap of {_ENTRY_CAP}")


def _restricted(field, rows: np.ndarray, cols: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, ...]:
    """The nonzeros of ``window_nonzeros`` restricted to GF(p), in no set
    order: entry (r, c, code) becomes those of its d x d block, digit t of
    x^s * code at (r*d + s, c*d + t) (``FiniteField.restrict``), so
    distinct entries give distinct positions.  At most nnz * d^2, which
    the caller checks against ``_ENTRY_CAP`` (``_check_restriction_cap``)
    before any is built."""
    d = field.d
    if d == 1:  # over a prime field every entry is its own restriction
        return rows, cols, codes
    blocks = field.restrict(field.coords_array(codes)).reshape(rows.size, d, d)
    entry, s, t = np.nonzero(blocks)
    return rows[entry] * d + s, cols[entry] * d + t, blocks[entry, s, t]


def _window_parts(flow: Flow, window: int, lane: int) -> tuple[int, list[int], dict]:
    """A window matrix W over GF(p^k), restricted to GF(p), in the parts
    both block products read, for rows packed in lanes of ``lane`` bits:
    lane ``j*k + t`` is digit t of column j.  Lane ``r*k + s`` of a row
    stands for ``x^s e_r``, whose image is the packed row of ``x^s W[r]``,
    and a row's product is the sum of its lanes' images times their
    digits.  Returns ``(edge, images, masks)``:

    - ``edge`` is the number of boundary lanes, those of the discrete
      coordinates and of the compact rows below the flow's ``extent``, and
      ``images`` their images: each restricted entry (r, c, g) of the
      boundary rows of ``window_nonzeros``, a subset of the entries whose
      restriction ``_check_restriction_cap`` has checked, is ORed into
      lane c of image r, and no two entries share a lane
      (``_restricted``), so no digit block is built;
    - every compact row i at or past ``extent`` is a stencil row of phase
      ``i % period``, and its entry (off, c) puts g, digit t of x^s*c, in
      lane ``(D+i+off)*k + t``, D the discrete dimension: a move of
      ``off*k + t - s`` lanes from lane ``(D+i)*k + s``, times g.  So every
      lane of one (phase, s) class makes the same moves, read from the
      phase's codes restricted to GF(p), and the class's image is the sum
      of ``v & mask`` moved by each.  ``masks`` maps each tuple of moves
      (shift, g) to the mask of the lanes that make them.

    ``window_nonzeros`` drops exactly the entries that read past the
    window, i + off >= window; their moves put them at or past lane
    ``(D + window)*k``, and a cut to the window's lanes clears them.  A
    right shift moves no lane below 0, since no stencil row reads below 0.
    """
    field, endo, d = flow.field, flow.endo, flow.discrete_dim
    k, period, extent = field.d, endo.period, endo.extent
    rows, cols, codes = window_nonzeros(flow, window)
    _check_restriction_cap(field, rows.size)  # every field refuses the same windows
    boundary = rows < d + extent
    edge = (d + extent) * k
    images = [0] * edge
    for r, c, g in zip(*(a.tolist() for a in _restricted(field, rows[boundary], cols[boundary], codes[boundary]))):
        images[r] |= g << c * lane
    masks: dict[tuple[tuple[int, int], ...], int] = {}
    step = period * k * lane
    for rho, phase in enumerate(endo.stencil):
        first = extent + (rho - extent) % period
        count = len(range(first, window, period))
        if not phase or not count:
            continue
        # row j*k + s: the digits of x^s times the phase's code j
        digits = field.restrict(field.coords_array(np.array([c for _, c in phase], dtype=np.int64)))
        for s in range(k):
            terms = zip(phase, digits[s::k].tolist())
            moves = tuple(sorted((off * k + t - s, g) for (off, _), row in terms for t, g in enumerate(row) if g))
            mask = ((1 << count * step) - 1) // ((1 << step) - 1) * ((1 << lane) - 1) << ((d + first) * k + s) * lane
            masks[moves] = masks.get(moves, 0) | mask
    return edge, images, masks


class _ShiftProduct(NamedTuple):
    """A window matrix W over GF(2^k), restricted to GF(2), as a map of
    rows packed as ``_FlagStack2`` holds them: bit ``j*k + t`` is digit t
    of column j.  Its parts are ``_window_parts``' in lanes of one bit,
    built once per window: ``images`` holds each boundary bit's image,
    and ``classes`` (mask, left shifts, right shifts), one per mask of
    equal shifts, whose weights are all 1.  A row's product is the XOR of
    its set boundary bits' images and of its classes' ``v & mask``
    shifted by each shift, and ``cut``, the window's bits, clears what
    was shifted past the window.
    """

    edge: int
    images: tuple[int, ...]
    classes: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]
    cut: int

    @classmethod
    def of(cls, flow: Flow, window: int) -> "_ShiftProduct":
        edge, images, masks = _window_parts(flow, window, 1)
        classes = tuple(
            (mask, tuple(s for s, _ in moves if s >= 0), tuple(-s for s, _ in moves if s < 0))
            for moves, mask in masks.items()
        )
        return cls(edge, tuple(images), classes, (1 << (flow.discrete_dim + window) * flow.field.d) - 1)

    def times(self, rows: Sequence[int]) -> list[int]:
        """The packed products of packed rows by the window matrix."""
        edge, images, classes, cut = self
        low = (1 << edge) - 1
        out = []
        for v in rows:
            w = 0
            for mask, lefts, rights in classes:
                part = v & mask
                if part:
                    for s in lefts:
                        w ^= part << s
                    for s in rights:
                        w ^= part >> s
            w &= cut
            bits = v & low
            while bits:
                bit = bits & -bits
                w ^= images[bit.bit_length() - 1]
                bits ^= bit
            out.append(w)
        return out


class _LaneProduct(NamedTuple):
    """A window matrix W over GF(p^k), p odd, restricted to GF(p), as a map
    of rows packed as ``_FlagStackOdd`` holds them: lane ``j*k + t``, of b
    = ``lane`` = ``_lane_bits(p)`` bits, the least with p <= 2^(b-1), is
    digit t of column j.  Its parts are
    ``_window_parts``', built once per window.  A row's product is the sum
    mod p of c times the image of each boundary lane of digit c, and of g
    times each class's ``v & mask`` moved by each of its moves (shift, g),
    cut to the window's lanes by ``cut``.

    Lanes add mod p by ``_FlagStackOdd``'s rule, and c*u is the sum of the
    doublings 2^i*u over the set bits i of c, each a lane add of u to
    itself.  So ``images`` holds each boundary lane's image with its
    doublings, one per bit of p, and a class's doublings of ``v & mask``
    are made once per row, as many as its largest g needs: ``classes``
    holds (mask, doublings, left moves, right moves), a move as its shift
    in bits and the set bits of g.  The rule needs ``tops`` and ``bias``
    over every lane a sum reaches: ``ones`` has a 1 in each lane of the
    window and the ``far`` bits of the longest left shift past it, and a
    step cuts it to its rows' reach, ``far`` bits past the widest row, or
    ``reach``, the widest image's bits.
    """

    edge: int
    images: tuple[tuple[int, ...], ...]
    classes: tuple[tuple[int, int, tuple, tuple], ...]
    cut: int
    p: int
    lane: int
    far: int
    reach: int
    ones: int

    @classmethod
    def of(cls, flow: Flow, window: int) -> "_LaneProduct":
        p, b = flow.field.p, _lane_bits(flow.field.p)
        edge, images, masks = _window_parts(flow, window, b)
        lanes = (flow.discrete_dim + window) * flow.field.d
        far = max([0] + [s for moves in masks for s, _ in moves]) * b
        ones = ((1 << lanes * b + far) - 1) // ((1 << b) - 1)
        tops, bias = ones << (b - 1), ones * ((1 << (b - 1)) - p)
        doubled = []
        for image in images:
            doublings = [image]
            for _ in range(1, p.bit_length()):
                t = doublings[-1] << 1
                doublings.append(t - (((t + bias) & tops) >> (b - 1)) * p)
            doubled.append(tuple(doublings))

        def picks(g):  # the doublings whose sum is g times a part
            return tuple(i for i in range(g.bit_length()) if g >> i & 1)

        classes = tuple(
            (
                mask,
                max(g for _, g in moves).bit_length(),
                tuple((s * b, picks(g)) for s, g in moves if s >= 0),
                tuple((-s * b, picks(g)) for s, g in moves if s < 0),
            )
            for moves, mask in masks.items()
        )
        reach = max(map(int.bit_length, images), default=0)
        return cls(edge * b, tuple(doubled), classes, (1 << lanes * b) - 1, p, b, far, reach, ones)

    def times(self, rows: Sequence[int]) -> list[int]:
        """The packed products of packed rows by the window matrix."""
        edge, images, classes, cut, p, b, far, reach, ones = self
        top, digit, low = b - 1, (1 << b) - 1, (1 << edge) - 1
        ones &= (1 << max(max(map(int.bit_length, rows), default=0) + far, reach)) - 1
        tops, bias = ones << top, ones * ((1 << top) - p)
        out = []
        for v in rows:
            w = 0
            for mask, count, lefts, rights in classes:
                part = v & mask
                if part:
                    doublings = [part]
                    while len(doublings) < count:
                        t = doublings[-1] << 1
                        doublings.append(t - (((t + bias) & tops) >> top) * p)
                    for s, bits in lefts:
                        for i in bits:
                            t = w + (doublings[i] << s)
                            w = t - (((t + bias) & tops) >> top) * p
                    for s, bits in rights:
                        for i in bits:
                            t = w + (doublings[i] >> s)
                            w = t - (((t + bias) & tops) >> top) * p
            w &= cut
            lanes = v & low
            while lanes:
                at = ((lanes & -lanes).bit_length() - 1) // b
                c = (lanes >> at * b) & digit
                lanes ^= c << at * b
                for double in images[at]:
                    if c & 1:
                        t = w + double
                        w = t - (((t + bias) & tops) >> top) * p
                    c >>= 1
            out.append(w)
        return out


def _check_tracker_cap(field, rows: int, n_max: int, dim: int) -> None:
    """Raise TooLarge when a tracker that takes ``rows`` rows a step for
    ``n_max`` steps over ``dim`` coordinates may hold more than
    ``_ENTRY_CAP`` entries.  It holds at most ``min(rows * n_max, dim)``
    independent rows, and keeps each as ``field.d`` rows of ``dim``
    entries' worth: the x^t*u, t < k, over GF(2^k), and the d rows of its
    restriction, of ``d * dim`` prime-field entries, over odd GF(p^d)."""
    held = field.d * min(rows * n_max, dim) * dim
    if held > _ENTRY_CAP:
        raise TooLarge(
            f"rank trackers of {rows} rows a step over {n_max} steps and a window of {dim} "
            f"coordinates may hold {held} entries, above the cap of {_ENTRY_CAP}"
        )


def cotrajectory_run(
    flow: Flow, dead: list[int], counts: Sequence[int], n_max: int, window: int,
    narrow: tuple[int, int] | None = None,
) -> Iterator[tuple[list[int], list[int]]]:
    """For each step n = 1..n_max, the step's block of constraint rows and
    the ranks of the first ``count`` rows of steps 1..n, for each count in
    ``counts`` (non-decreasing).  The ranks come from one flag tracker over
    the flow's field, in which row j belongs to the span of count c exactly
    when ``j < c``, and the next step multiplies out the values it placed
    as they are: in every characteristic a block is a list of packed rows.

    The blocks are carried blocks (``_constraint_blocks``): the first
    ``count`` rows of steps 1..n span what the raw rows of those steps
    span, for every count, so a consumer may read any such span from them.
    With ``narrow = (s, rows)`` only the first ``rows`` rows are carried
    past step s.  Rows of a level never depend on higher rows
    (``functors._identity_checks``), so the ranks and blocks of the counts
    up to ``rows`` stay valid; those of larger counts are not, past step
    s.
    """
    stack = _flag_stack(flow.field, counts)
    blocks = _constraint_blocks(flow, dead, n_max, window)
    carried = None
    for n in range(1, n_max + 1):
        block = blocks.send(carried)
        carried = stack.insert(block)
        if narrow is not None and n >= narrow[0]:
            carried = carried[: narrow[1]]
        yield block, stack.ranks


def _chain_run(
    flow: Flow, least: int, depth: int, cfg: EngineConfig, keep: int | None = None
) -> tuple[int, Iterator[tuple[list[int], list[int]]]]:
    """The window and the ``cotrajectory_run`` of the principal chain U_0,
    ..., U_top, top = ``max(cfg.m_max, least)``, to ``depth`` steps: the
    dead rows are the discrete coordinates and the first top compact ones,
    member m's the first ``d + m`` of them, at the window
    ``default_window`` certifies for U_top, which checks the caps.  With
    ``keep``, only the first ``keep`` rows are carried past step
    ``cfg.n_max``.  The run is a generator, so no block is built before
    it is read."""
    d, top = flow.discrete_dim, max(cfg.m_max, least)
    window = default_window(flow, top, depth, cfg.window_slack)
    counts = list(range(d, d + top + 1))
    narrow = () if keep is None else ((cfg.n_max, keep),)
    return window, cotrajectory_run(flow, list(range(counts[-1])), counts, depth, window, *narrow)


def codim_sequence(
    flow: Flow, u: GoodSubspace, n_max: int, cfg: EngineConfig = DEFAULT_CONFIG
) -> CodimTrace:
    """Trace of codim_U(C_n) for n = 1..n_max, computed in one window."""
    window = default_window(flow, u.extent, n_max, cfg.window_slack)
    dead = _dead_indices(flow, u)
    run = cotrajectory_run(flow, dead, [len(dead)], n_max, window)
    return CodimTrace(u, tuple(rank - len(dead) for _, (rank,) in run), window)


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
    window, run = _chain_run(flow, 0, n_max, cfg)
    return _chain_codims([ranks for _, ranks in run], flow.discrete_dim, cfg.m_max, window)


def _chain_codims(ranks: Sequence[Sequence[int]], d: int, m_max: int, window: int) -> list[CodimTrace]:
    """The traces of U_0, ..., U_{m_max} from the ranks of a chain run at
    each step: member m's rank less its ``d + m`` constraint rows."""
    codims = (tuple(r[m] - d - m for r in ranks) for m in range(m_max + 1))
    return [CodimTrace(GoodSubspace.principal(m), values, window) for m, values in enumerate(codims)]


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
    """Growth rate of a codimension trace over a single good subspace.

    Resolves to the final first difference when the last ``cfg.streak``
    differences agree; for the representable flows the differences are
    eventually constant, so the constant equals the limit of c_n / n.
    Otherwise reports the exact lower bound c_N / N and stays unresolved.
    A subadditivity violation (impossible for true traces) also forces the
    unresolved path so a broken fixture can never resolve wrongly.
    """
    diffs = trace.first_differences()
    streak = _terminal_streak(diffs)
    subadditive = trace.is_subadditive(diffs)
    lower = Fraction(trace.values[-1], len(trace.values))
    if subadditive and streak >= cfg.streak:
        return HStarResult(diffs[-1], lower, trace, streak, subadditive)
    return HStarResult(None, lower, trace, streak, subadditive)


@dataclass(frozen=True)
class EntropyEstimate:
    """Entropy over the principal chain of good subspaces.

    ``value`` is None while unresolved; the uniform-entropy conversion is
    the exact pair (value, field_order), as ``entropy_report`` gives it.
    """

    value: int | None
    per_u: tuple[tuple[int, HStarResult], ...]
    field_order: int
    lower_bound: Fraction

    @property
    def resolved(self) -> bool:
        return self.value is not None


def ent_star(flow: Flow, cfg: EngineConfig = DEFAULT_CONFIG) -> EntropyEstimate:
    """Entropy estimate: ``_chain_estimate`` of the flow's ``chain_traces``."""
    return _chain_estimate(chain_traces(flow, cfg.n_max, cfg), flow.field.q, cfg)


def _chain_estimate(traces: Sequence[CodimTrace], field_order: int, cfg: EngineConfig) -> EntropyEstimate:
    """Supremum of the per-subspace rates of the traces of U_0, ..., U_M
    over a field of ``field_order`` elements.

    The principal chain is a local basis at zero, so its supremum equals
    the supremum over all linearly compact open subspaces.  The estimate is
    unresolved when any chain member is unresolved or when the per-member
    rates are still strictly increasing at the last member.
    """
    per_u = tuple((m, _evaluate_trace(trace, cfg)) for m, trace in enumerate(traces))
    results = [res for _, res in per_u]
    bounds = [res.lower_bound if res.value is None else Fraction(res.value) for res in results]
    lower = max(bounds)
    if all(res.resolved for res in results):
        values = [res.value for res in results]
        still_growing = len(values) >= 2 and values[-1] > values[-2]
        if not still_growing:
            return EntropyEstimate(max(values), tuple(per_u), field_order, lower)
    return EntropyEstimate(None, tuple(per_u), field_order, lower)


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
    mat = truncate(flow, window)
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
