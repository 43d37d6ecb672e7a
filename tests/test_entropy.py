"""Entropy engine: traces, estimator, oracle equivalence, entropy laws."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowent.entropy import (
    DEFAULT_CONFIG,
    CodimTrace,
    EngineConfig,
    _constraint_blocks,
    _dead_indices,
    _evaluate_trace,
    _FlagStack,
    _FlagStack2,
    _FlagStackOdd,
    _flag_stack,
    _lane_bits,
    _lane_low,
    _lane_times,
    _lane_tops,
    _LaneProduct,
    _pack_lanes,
    _pairwise_subadditive,
    _ShiftProduct,
    _unpack_lanes,
    brute_force_codim,
    chain_traces,
    codim_sequence,
    cotrajectory_run,
    ent_star,
    entropy_report,
)
from flowent.errors import NotInvertible, TooLarge
from flowent.fields import _PRIME_CAP, _prime_rank, _rref_array, least_irreducible, make_extension, make_prime_field
from flowent.linalg import Matrix, Subspace, kernel, random_invertible, rank
from flowent.model import (
    EndoSpec,
    Flow,
    GoodSubspace,
    SpaceShape,
    conjugate_flow,
    default_window,
    direct_sum,
    good_direct_sum,
    make_bernoulli,
    make_identity,
    power_flow,
    random_stencil_flow,
    truncate,
)

from conftest import (
    block_digits,
    code_rows,
    dense_truncation,
    digit_rows,
    intersect,
    prefix_shift_flow,
    preimage,
    raw_forms,
    stacked_rref,
)

U = GoodSubspace.principal
FAST = EngineConfig(n_max=24, m_max=4)


def cotrajectories(flow, m, n_max, window):
    """The n-step cotrajectories of U_m, n = 1..n_max, inside ``window``:
    the kernels of the raw-row constraint forms."""
    dead = _dead_indices(flow, U(m))
    return [kernel(Matrix(flow.field, red)) for red in raw_forms(flow, dead, n_max, window)]


def cotrajectory(flow, m, n):
    """The n-step cotrajectory of U_m inside its certified window."""
    return cotrajectories(flow, m, n, default_window(flow, m, n))[-1]


def h_star(flow, u, cfg=DEFAULT_CONFIG):
    """The estimator's rate for a single good subspace."""
    return _evaluate_trace(codim_sequence(flow, u, cfg.n_max, cfg), cfg)


class TestCotrajectory:
    def test_depth_one_is_u(self, gf2):
        flow = make_bernoulli(gf2, 1)
        got = cotrajectory(flow, 2, 1)
        window = got.ambient
        rows = [
            [1 if j == i else 0 for j in range(window)]
            for i in range(window)
            if i not in (0, 1)
        ]
        assert got == Subspace.from_rows(gf2, rows)

    def test_identity_fixed(self, gf4):
        flow = make_identity(SpaceShape(gf4, 0))
        cots = cotrajectories(flow, 2, 5, 12)
        for n in (1, 3, 5):
            assert cots[n - 1] == cots[0]

    @pytest.mark.parametrize("m,n", [(1, 3), (2, 4), (3, 2)])
    def test_bernoulli_vanishing_coordinates(self, gf2, m, n):
        # hand computation: membership forces coordinates 0 .. m+n-2 to zero
        flow = make_bernoulli(gf2, 1)
        got = cotrajectory(flow, m, n)
        window = got.ambient
        expected = Subspace.from_rows(
            gf2,
            [[1 if j == i else 0 for j in range(window)] for i in range(m + n - 1, window)],
        )
        assert got == expected

    def test_incremental_identity(self, gf4):
        # C_{n+1} = U  intersect  phi^{-1}(C_n), checked against the public ops
        flow = random_stencil_flow(gf4, 7, discrete=False)
        window = cotrajectory(flow, 2, 4).ambient
        mat = truncate(flow, window)
        cots = cotrajectories(flow, 2, 4, window)
        u_win = cots[0]
        for n in range(2, 5):
            stepped = intersect(u_win, preimage(mat, cots[n - 2]))
            assert stepped == cots[n - 1]


def _scalar_towers():
    """(F <= K, K <= L) for GF(2) <= GF(4) <= GF(16), GF(3) <= GF(9) <=
    GF(81), GF(2) <= GF(8) <= GF(64) and GF(2) <= GF(16) <= GF(256): K's
    trackers over GF(2^k) pack rows in lanes of k = 2, 3 and 4 bits, and
    L's in lanes of 4, 6 and 8 bits."""
    out = []
    for p, degree in ((2, 2), (3, 2), (2, 3), (2, 4)):
        base = make_prime_field(p)
        mid, inner = make_extension(base, least_irreducible(base, degree))
        _, outer = make_extension(mid, least_irreducible(mid, 2))
        out.append((inner, outer))
    return out


def _check_run(flow, ms, n_max, window):
    """``cotrajectory_run`` over the principal members ``ms`` against the
    raw rows: at every step each member's rank is that of its raw rows so
    far, and its carried rows so far have the same reduced row-echelon
    form as the raw rows, entry for entry, so the same span."""
    d = flow.discrete_dim
    counts = [d + m for m in ms]
    got = list(cotrajectory_run(flow, list(range(counts[-1])), counts, n_max, window))
    assert len(got) == n_max
    for i, count in enumerate(counts):
        carried = np.zeros((0, d + window), dtype=np.int64)
        raw = raw_forms(flow, list(range(count)), n_max, window)
        for n, ((block, ranks), want) in enumerate(zip(got, raw), start=1):
            digits = block_digits(flow.field, block[:count], (d + window) * flow.field.d)
            carried, _ = stacked_rref(flow.field, carried, code_rows(flow.field, digits))
            assert ranks[i] == want.shape[0], (flow.label, count, n)
            assert np.array_equal(carried, want), (flow.label, count, n)


class TestCotrajectoryRunIncremental:
    """``cotrajectory_run`` carries each step's placed values into the next
    step; its ranks and the spans of its blocks equal those of the raw rows
    stacked and reduced from scratch (``_check_run``), on seeded flows over
    K, one- and multi-phase, with and without a discrete part, and their
    images over F and L, at the window of the last member."""

    @pytest.mark.parametrize("tower", _scalar_towers(), ids=lambda t: repr(t[0].target))
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_stacked_reduction(self, tower, seed):
        from flowent.functors import ind_flow, res_flow

        e_fk, e_kl = tower
        deg, ms = e_fk.degree, (0, 1, 2)
        for flow in (random_stencil_flow(e_fk.target, seed), _random_phase_flow(e_fk.target, seed)):
            window = default_window(flow, ms[-1], 10)
            _check_run(flow, ms, 10, window)
            _check_run(res_flow(e_fk, flow), [deg * m for m in ms], 10, deg * window)
            _check_run(ind_flow(e_kl, flow), ms, 10, window)

    def test_covers_discrete_parts(self):
        # the seeds above include flows with and without a discrete part
        dims = set()
        for e_fk, _ in _scalar_towers():
            for seed in range(4):
                for flow in (random_stencil_flow(e_fk.target, seed), _random_phase_flow(e_fk.target, seed)):
                    dims.add(flow.discrete_dim > 0)
        assert dims == {False, True}


class TestCodimSequence:
    def test_bernoulli_trace(self, gf2):
        flow = make_bernoulli(gf2, 1)
        for m in (1, 2, 3):
            trace = codim_sequence(flow, U(m), 6)
            assert trace.values == (0, 1, 2, 3, 4, 5)

    def test_identity_trace(self, gf4):
        flow = make_identity(SpaceShape(gf4, 1))
        trace = codim_sequence(flow, U(3), 6)
        assert trace.values == (0,) * 6

    def test_double_shift_doubles(self, gf2):
        two = direct_sum(make_bernoulli(gf2, 1), make_bernoulli(gf2, 1))
        u = good_direct_sum(U(2), U(2))
        trace = codim_sequence(two, u, 5)
        assert trace.values == (0, 2, 4, 6, 8)
        # oracle confirmation at a window that satisfies the bound
        for n in (1, 2, 3):
            w = max(u.extent, 1) + n * two.endo.bandwidth + two.endo.extent
            assert brute_force_codim(two, u, n, w) == trace.values[n - 1]

    @pytest.mark.parametrize("seed", range(5))
    def test_trace_invariants(self, gf4, seed):
        flow = random_stencil_flow(gf4, seed)
        for m in (0, 1, 3):
            trace = codim_sequence(flow, U(m), 16)
            assert trace.values[0] == 0
            assert all(d >= 0 for d in trace.first_differences())
            assert trace.is_subadditive()

    @pytest.mark.parametrize("slack", [4, 6, 8, 12, 16])
    def test_window_independence(self, gf4, slack):
        flow = random_stencil_flow(gf4, 3)
        base = codim_sequence(flow, U(2), 10, EngineConfig(n_max=10))
        got = codim_sequence(flow, U(2), 10, EngineConfig(n_max=10, window_slack=slack))
        assert got.values == base.values

    @given(st.integers(0, 500), st.integers(0, 3), st.sampled_from([0, 3, 9, 17]))
    @settings(max_examples=30)
    def test_window_independence_random_flows(self, seed, m, extra):
        from flowent.fields import make_prime_field

        field = make_prime_field(2)
        flow = random_stencil_flow(field, seed)
        reference = codim_sequence(flow, U(m), 8, EngineConfig(n_max=8))
        widened = codim_sequence(
            flow, U(m), 8, EngineConfig(n_max=8, window_slack=4 + extra)
        )
        assert widened.values == reference.values



def _subadditive_by_loops(values):
    """``CodimTrace.is_subadditive`` as the double loop of its definition."""
    n = len(values)
    return all(values[i + j] <= values[i] + values[j] for i in range(1, n) for j in range(1, n - i))


class TestSubadditivity:
    @staticmethod
    def trace(values):
        return CodimTrace(U(0), tuple(values), 1)

    def test_short_traces(self):
        for length in range(4):
            for values in np.ndindex(*(4,) * length):
                assert self.trace(values).is_subadditive() == _subadditive_by_loops(values), values

    def test_random_concave_traces(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            steps = np.sort(rng.integers(0, 6, size=int(rng.integers(1, 65))))[::-1]
            values = [0] + np.cumsum(steps).tolist()  # non-increasing steps: concave
            assert self.trace(values).is_subadditive() and _subadditive_by_loops(values)

    @pytest.mark.parametrize(
        "values",
        [
            (0, 1, 3),
            (0, 1, 2, 4),
            (0, 2, 4, 7),
            (0, 0, 0, 0, 1),
            (0, 1, 2, 3, 4, 5, 6, 7, 9),
            tuple(range(60)) + (61,),  # a jump at the end of a linear trace
        ],
    )
    def test_violations(self, values):
        assert not _subadditive_by_loops(values)
        assert not self.trace(values).is_subadditive()
        # the same violation at the start of a long trace
        long = list(values) + [values[-1] + t for t in range(1, 60)]
        assert not self.trace(long).is_subadditive() and not _subadditive_by_loops(long)

    @pytest.mark.parametrize(
        "values",
        [
            (0,),
            (0, 0, 0),
            (0, 3, 5, 6, 6, 6),
            (0, 2, 3, 3, 2, 0),  # concave, with differences below 0
            (4, 5, 6, 7),  # linear from c_1 > 0
        ],
    )
    def test_concave_traces_skip_the_pairwise_check(self, values, monkeypatch):
        """Differences that never increase, with c_1 >= 0: True without
        the O(n^2) array, and the double loop agrees."""
        import flowent.entropy as entropy

        def pairwise(values):
            raise AssertionError("pairwise check on a concave trace")

        monkeypatch.setattr(entropy, "_pairwise_subadditive", pairwise)
        assert _subadditive_by_loops(values)
        trace = self.trace(values)
        assert trace.is_subadditive() and trace.is_subadditive(trace.first_differences())

    @pytest.mark.parametrize(
        "values,subadditive",
        [
            ((0, 2, 3, 5, 6), True),  # differences 2, 1, 2, 1
            ((0, 1, 1, 2, 2, 3, 3), True),
            ((0, 2, 2, 4, 4), True),
            ((0, 3, 4, 6, 7, 9), True),
            ((-1, 0, 1), False),  # concave, but c_1 < 0
            ((0, 1, 3), False),
            ((0, 2, 3, 7), False),
        ],
    )
    def test_other_traces_take_the_pairwise_check(self, values, subadditive, monkeypatch):
        import flowent.entropy as entropy

        calls = []

        def pairwise(values):
            calls.append(values)
            return _pairwise_subadditive(values)

        monkeypatch.setattr(entropy, "_pairwise_subadditive", pairwise)
        assert _subadditive_by_loops(values) == subadditive
        assert self.trace(values).is_subadditive() == subadditive
        assert calls == [tuple(values)]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-3, 8), max_size=40), st.booleans())
    def test_random_traces(self, values, concave):
        """Random traces, and as many with their differences sorted to
        never increase, against the double loop."""
        if concave and values:
            steps = sorted(np.diff(values).tolist(), reverse=True)
            values = [abs(values[0])] + [abs(values[0]) + t for t in np.cumsum(steps).tolist()]
        trace = self.trace(values)
        assert trace.is_subadditive() == _subadditive_by_loops(values) == _pairwise_subadditive(values)
        assert trace.is_subadditive(trace.first_differences()) == trace.is_subadditive()


def _reference_codims(flow, dead, counts, n_max, window):
    """Codimension traces straight from the definition: the rank of the
    stacked constraint rows (the dead rows of M^0, ..., M^(n-1)), keeping
    the first ``count`` dead rows of each power, less ``count``."""
    mat = Matrix(flow.field, dense_truncation(flow, window))
    field = flow.field
    power = Matrix(field, np.eye(mat.rows, dtype=np.int64)[dead])
    blocks = []
    for _ in range(n_max):
        blocks.append(power)
        power = power @ mat
    return [
        [
            rank(Matrix(field, np.concatenate([b.data[:count] for b in blocks[:n]]))) - count
            for n in range(1, n_max + 1)
        ]
        for count in counts
    ]


def _reference_fields():
    gf2, gf3 = make_prime_field(2), make_prime_field(3)
    return [
        gf2,
        gf3,
        make_extension(gf2, least_irreducible(gf2, 2))[0],
        make_prime_field(5),
        make_extension(gf3, least_irreducible(gf3, 2))[0],
        make_extension(gf2, least_irreducible(gf2, 4))[0],
        make_prime_field(65521),
    ]


class TestTracesAgainstReference:
    """The prime-field rank trackers against linalg.rank over the flow's
    own field, on 210 seeded random flows over seven fields."""

    @pytest.mark.parametrize("field", _reference_fields(), ids=repr)
    def test_random_flows(self, field):
        rng = np.random.default_rng(field.q)
        for seed in range(30):
            flow = random_stencil_flow(field, seed)
            n_max = int(rng.integers(6, 13))
            cfg = EngineConfig(n_max=n_max, m_max=int(rng.integers(1, 5)))
            traces = chain_traces(flow, n_max, cfg)
            d = flow.discrete_dim
            dead = list(range(d)) + [d + i for i in range(cfg.m_max)]
            counts = [d + m for m in range(cfg.m_max + 1)]
            expected = _reference_codims(flow, dead, counts, n_max, traces[0].window)
            assert [list(t.values) for t in traces] == expected, (field, seed)

            u = GoodSubspace(frozenset(int(i) for i in rng.choice(5, size=2, replace=False)))
            trace = codim_sequence(flow, u, n_max, cfg)
            dead_u = list(range(d)) + [d + i for i in sorted(u.zero_set)]
            (expected_u,) = _reference_codims(flow, dead_u, [len(dead_u)], n_max, trace.window)
            assert list(trace.values) == expected_u, (field, seed, u)

    @pytest.mark.parametrize(
        "p,d",
        [(3, 1), (7, 1), (127, 1), (131, 1), (8191, 1), (32749, 1), (32771, 1), (65521, 1), (127, 2), (131, 2)],
    )
    def test_lane_width_edges(self, p, d):
        # b = p.bit_length() + 1, the least with p <= 2^(b-1).  Primes just
        # below a power of two leave the least room: the packed products'
        # and trackers' lane sums reach 2p - 2, and s + bias reaches
        # 2^(b-1) + p - 2 < 2^b (3 in b = 3, 7 in 4, 127 in 8, 8191 in 14,
        # 65521 in 17).  Primes just above one start a wider lane (131 in
        # 9, 32771 in 17).  Over GF(p^2) the rows x*r add the top digit
        # times x^2 into both lanes of a column.
        base = make_prime_field(p)
        field = base if d == 1 else make_extension(base, least_irreducible(base, d))[0]
        cfg = EngineConfig(n_max=10, m_max=3)
        for seed in range(6):
            flow = random_stencil_flow(field, seed)
            traces = chain_traces(flow, cfg.n_max, cfg)
            dead, counts = list(range(flow.discrete_dim + cfg.m_max)), [flow.discrete_dim + m for m in range(4)]
            expected = _reference_codims(flow, dead, counts, cfg.n_max, traces[0].window)
            assert [list(t.values) for t in traces] == expected, (field, seed)



def _odd_primes_below(n):
    sieve = np.ones(n, dtype=bool)
    sieve[:2] = False
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = False
    return np.flatnonzero(sieve)[1:].tolist()


def test_lane_bits_are_least():
    """``_lane_bits(p)`` is the least b with p <= 2^(b-1), for every odd
    prime below ``_PRIME_CAP``, and one bit for p = 2."""
    assert _lane_bits(2) == 1
    primes = _odd_primes_below(_PRIME_CAP)
    assert primes[0] == 3 and primes[-1] == 65521
    for p in primes:
        b = _lane_bits(p)
        assert 1 << (b - 2) < p <= 1 << (b - 1), p


@pytest.mark.parametrize("lane", range(1, 18))
@pytest.mark.parametrize("cap", [None, 40])
def test_pack_round_trip(lane, cap, monkeypatch):
    """``_pack_lanes`` and ``_unpack_lanes`` at every lane width up to 17
    bits, against the sum of digit i times 2^(i*lane): over GF(p) for the
    largest p <= 2^(lane-1) (p = 2 in lanes of one bit), on random digits,
    a row of p - 1 in every lane, a zero row, and empty blocks.  With a
    cap of 40, rows go in slices of a row or a few."""
    import flowent.entropy as entropy

    if cap is not None:
        monkeypatch.setattr(entropy, "_ENTRY_CAP", cap)
    p = max([2, *_odd_primes_below((1 << (lane - 1)) + 1)])
    rng = np.random.default_rng(lane)
    for width in (0, 1, 7, 33):
        full = rng.integers(0, p, size=(5, width))
        full[1], full[3] = p - 1, 0
        for block in (full, full[:0], full[1:2], full[3:4]):
            for dtype in (np.int64, np.uint16 if p > 256 else np.uint8):
                rows = _pack_lanes(block.astype(dtype), lane)
                assert rows == [sum(int(v) << i * lane for i, v in enumerate(row)) for row in block]
                back = _unpack_lanes(rows, width, lane)
                assert back.dtype == (np.uint8 if lane == 1 else np.int64)
                assert back.shape == block.shape and np.array_equal(back, block)


def _dense_blocks(flow, dead, n_max, window):
    """The constraint blocks of ``_constraint_blocks``, as codes, from the
    reference window matrix: each block of width w times the matrix's
    first w rows, trimmed to its first w + bandwidth columns, a bound on
    the support of the engine's blocks."""
    field = flow.field
    mat = dense_truncation(flow, window)
    dim, reach = mat.shape[0], flow.endo.bandwidth
    block = np.zeros((len(dead), min(dim, max(dead) + 1 if dead else 0)), dtype=np.int64)
    block[np.arange(len(dead)), dead] = 1
    for n in range(1, n_max + 1):
        yield block
        if n < n_max:
            width = block.shape[1]
            block = field.arr_matmul(block, mat[:width, : min(dim, width + reach)])


def _random_phase_flow(field, seed):
    """A seeded flow with 1-3 stencil phases, a prefix that covers every
    negative read, and random discrete blocks."""
    rng = np.random.default_rng(seed)
    codes = lambda shape: field.random_codes(rng, shape)  # noqa: E731
    stencil = []
    for _ in range(int(rng.integers(1, 4))):
        offsets = rng.choice(np.arange(-2, 4), size=int(rng.integers(0, 4)), replace=False)
        stencil.append({int(k): int(rng.integers(1, field.q)) for k in offsets})
    offsets = [k for phase in stencil for k in phase] or [0]
    rows = max(-min(offsets), 0) + int(rng.integers(0, 3))
    prefix = Matrix(field, codes((rows, rows + max(max(offsets), 0) + 1))) if rows else None
    d = int(rng.integers(0, 3))
    dd = Matrix(field, codes((d, d))) if d else None
    cd = Matrix(field, codes((d, int(rng.integers(1, 4))))) if d and rng.random() < 0.6 else None
    dc = Matrix(field, codes((int(rng.integers(1, 4)), d))) if d and rng.random() < 0.6 else None
    endo = EndoSpec(field, stencil, prefix=prefix, dd=dd, cd=cd, dc=dc)
    return Flow(SpaceShape(field, d), endo, label=f"phases[{seed}]")


def _narrowing_flow(field):
    """A flow whose carried rows narrow below wider holders, then vanish:
    compact row 0 reads column 3, row 3 columns 1 and 7, row 1 column 2,
    row 2 column 1, rows 4..7 nothing, and every later row itself."""
    prefix = np.zeros((8, 8), dtype=np.int64)
    prefix[[0, 3, 3, 1, 2], [3, 1, 7, 2, 1]] = 1
    endo = EndoSpec(field, {0: 1}, prefix=Matrix(field, prefix))
    return Flow(SpaceShape(field, 0), endo, label="narrowing")


def _sparse_fields():
    gf2, gf3, gf5 = (make_prime_field(p) for p in (2, 3, 5))
    return [
        gf2,
        make_extension(gf2, least_irreducible(gf2, 2))[0],
        make_extension(gf2, least_irreducible(gf2, 4))[0],
        gf3,
        make_extension(gf3, least_irreducible(gf3, 2))[0],
        gf5,
        make_extension(gf5, least_irreducible(gf5, 2))[0],
    ]


class TestConstraintBlocks:
    """The blocks built from the window's nonzeros against the dense
    product, on 196 seeded flows over seven fields and the 13 prefix-shift
    flows of the wide-window benchmark."""

    @staticmethod
    def assert_blocks_match_dense(flow, u, n_max):
        """Each block is the dense reference's leading columns, and the
        reference is zero past them; block widths never decrease and grow
        by at most the bandwidth a step, within the window.  Returns the
        widths in field columns.  A block is packed rows, and its width is
        the widest support so far."""
        window = default_window(flow, u.extent, n_max)
        dead = _dead_indices(flow, u)
        dense = dense_truncation(flow, window)
        dim, d, lane = dense.shape[0], flow.field.d, _lane_bits(flow.field.p)
        assert np.array_equal(truncate(flow, window).data, dense), (flow.label, window)
        pairs = zip(_constraint_blocks(flow, dead, n_max, window), _dense_blocks(flow, dead, n_max, window))
        widths = []
        for n, (got, want) in enumerate(pairs, start=1):
            assert isinstance(got, list), (flow.label, u, n)
            support = -(-max(map(int.bit_length, got), default=0) // (d * lane))
            got = block_digits(flow.field, got, max(widths[-1:] + [support]) * d)
            want, cut = digit_rows(flow.field, want), got.shape[1]
            assert got.dtype == want.dtype and got.shape[0] == want.shape[0], (flow.label, u, n)
            assert np.array_equal(got, want[:, :cut]) and not want[:, cut:].any(), (flow.label, u, n)
            if widths:
                assert widths[-1] <= cut // d <= min(dim, widths[-1] + flow.endo.bandwidth), (flow.label, u, n)
            widths.append(cut // d)
        return widths

    @pytest.mark.parametrize("field", _sparse_fields(), ids=repr)
    def test_random_flows(self, field):
        rng = np.random.default_rng(field.q)
        flows = [_random_phase_flow(field, seed) for seed in range(24)]
        flows += [
            direct_sum(random_stencil_flow(field, seed), random_stencil_flow(field, seed + 50))
            for seed in range(4)
        ]
        assert any(flow.endo.period > 1 for flow in flows)
        assert any(flow.endo.cd.cols and flow.endo.dc.rows for flow in flows)
        for flow in flows:
            self.assert_blocks_match_dense(flow, U(8), 24)
            zero_set = rng.choice(10, size=int(rng.integers(0, 4)), replace=False)
            self.assert_blocks_match_dense(flow, GoodSubspace(frozenset(zero_set.tolist())), 12)

    def test_prefix_shift_flows(self):
        # step n's raw rows are e_(i+n-1), i < m: each step shifts them one
        # place, so block n is at most m + n columns wide, whatever the window
        m = 8
        for r in range(8, 81, 6):
            widths = self.assert_blocks_match_dense(prefix_shift_flow(r), U(m), 24)
            assert all(width <= m + n for n, width in enumerate(widths, start=1)), (r, widths)

    def test_int64_guard(self, monkeypatch):
        # 2^32 entries over GF(65521) pass the cap on the restricted
        # entries, which refuses them before any is restricted or packed.
        # Broadcast arrays stand in for them without the memory
        import flowent.entropy as entropy

        def huge(flow, window):
            return (np.broadcast_to(np.int64(0), (1 << 32,)),) * 3

        monkeypatch.setattr(entropy, "window_nonzeros", huge)
        flow = make_bernoulli(make_prime_field(65521), 1)
        with pytest.raises(TooLarge):
            next(_constraint_blocks(flow, [0], 2, 4))


def _shift_product_flows():
    """(field, flows) over GF(2), GF(4), GF(8), GF(16) as the tower GF(2)
    <= GF(4) <= GF(16), and GF(16) by ``least_irreducible(GF(2), 4)``:
    seeded phase flows, with dd, cd and dc blocks and prefixes that cover
    negative offsets, multi-phase restrictions of such flows over the
    fields above, a direct sum and a power."""
    from flowent.functors import res_flow

    gf2 = make_prime_field(2)
    gf4, e24 = make_extension(gf2, (1, 1, 1))
    gf16, e416 = make_extension(gf4, (gf4.generator, 1, 1))
    gf8, e28 = make_extension(gf2, least_irreducible(gf2, 3))
    gf16_2, e216 = make_extension(gf2, least_irreducible(gf2, 4))
    out = []
    for field, above in ((gf2, (e24, e28, e216)), (gf4, (e416,)), (gf8, ()), (gf16, ()), (gf16_2, ())):
        flows = [_random_phase_flow(field, seed) for seed in range(8)]
        flows += [res_flow(e, _random_phase_flow(e.target, seed)) for e in above for seed in range(3)]
        flows.append(direct_sum(random_stencil_flow(field, 1), random_stencil_flow(field, 2)))
        flows.append(power_flow(random_stencil_flow(field, 3), 2))
        out.append((field, flows))
    return out


class TestShiftProduct:
    """``_ShiftProduct`` on packed rows against the dense product by
    ``truncate(flow, window)``, digit for digit, as ``_dense_blocks``
    multiplies: at the smallest window a flow allows and at a certified
    one, on random rows over the whole window, an all-zero row, rows set
    only in their last columns, whose shifted classes pass the window's
    last column, and rows set only in their first half."""

    @pytest.mark.parametrize(
        "field,flows", _shift_product_flows(), ids=["GF(2)", "GF(4)", "GF(8)", "GF(16)-tower", "GF(16)"]
    )
    def test_matches_dense_product(self, field, flows):
        from flowent.model import _min_window

        assert any(flow.endo.period > 1 for flow in flows)
        assert any(flow.endo.dd.rows and flow.endo.cd.cols and flow.endo.dc.rows for flow in flows)
        assert any(flow.endo.min_offset < 0 and flow.endo.prefix_rows for flow in flows)
        rng = np.random.default_rng(field.q + 26)
        k, past_end = field.d, 0
        for flow in flows:
            for window in (_min_window(flow.endo), default_window(flow, 3, 4)):
                dense = truncate(flow, window).data
                dim = dense.shape[0]
                codes = field.random_codes(rng, (6, dim))
                codes[1] = 0
                codes[2, : dim - 1] = 0
                codes[3, : max(dim - 3, 0)] = 0
                codes[4, dim // 2 :] = 0
                rows = _pack_lanes(digit_rows(field, codes))
                product = _ShiftProduct.of(flow, window)
                got = product.times(rows)
                want = digit_rows(field, field.arr_matmul(codes, dense))
                assert all(row.bit_length() <= dim * k for row in got), (flow.label, window)
                assert np.array_equal(_unpack_lanes(got, dim * k), want), (flow.label, window)
                assert got[1] == 0
                past_end += product._replace(cut=-1).times(rows) != got
        # the window mask clears bits on these rows: without it they fail
        assert past_end


def _lane_product_flows():
    """(field, flows) over GF(3), GF(5), GF(9), GF(25), GF(27), GF(251) and
    GF(65521), extensions by ``least_irreducible``: seeded phase flows,
    with dd, cd and dc blocks and prefixes that cover negative offsets,
    multi-phase restrictions of GF(9) flows to GF(3), a direct sum and a
    power."""
    from flowent.functors import res_flow

    gf3, gf5 = make_prime_field(3), make_prime_field(5)
    gf9, e39 = make_extension(gf3, least_irreducible(gf3, 2))
    gf25 = make_extension(gf5, least_irreducible(gf5, 2))[0]
    gf27 = make_extension(gf3, least_irreducible(gf3, 3))[0]
    out = []
    for field, above in (
        (gf3, (e39,)), (gf5, ()), (gf9, ()), (gf25, ()), (gf27, ()), (make_prime_field(251), ()),
        (make_prime_field(65521), ()),
    ):
        flows = [_random_phase_flow(field, seed) for seed in range(8)]
        flows += [res_flow(e, _random_phase_flow(e.target, seed)) for e in above for seed in range(3)]
        flows.append(direct_sum(random_stencil_flow(field, 1), random_stencil_flow(field, 2)))
        flows.append(power_flow(random_stencil_flow(field, 3), 2))
        out.append((field, flows))
    return out


class TestLaneProduct:
    """``_LaneProduct`` on packed rows against the dense product by
    ``truncate(flow, window)``, digit for digit, the odd counterpart of
    ``TestShiftProduct``: at the smallest window a flow allows and at a
    certified one, on random rows over the whole window, a row whose every
    digit is p - 1, an all-zero row, rows set only in their last columns,
    whose moved classes pass the window's last column, and rows set only
    in their first half."""

    @pytest.mark.parametrize(
        "field,flows", _lane_product_flows(), ids=[f"GF({q})" for q in (3, 5, 9, 25, 27, 251, 65521)]
    )
    def test_matches_dense_product(self, field, flows):
        from flowent.model import _min_window

        assert any(flow.endo.period > 1 for flow in flows)
        assert any(flow.endo.dd.rows and flow.endo.cd.cols and flow.endo.dc.rows for flow in flows)
        assert any(flow.endo.min_offset < 0 and flow.endo.prefix_rows for flow in flows)
        rng = np.random.default_rng(field.q + 27)
        d, lane, past_end = field.d, _lane_bits(field.p), 0
        for flow in flows:
            for window in (_min_window(flow.endo), default_window(flow, 3, 4)):
                dense = truncate(flow, window).data
                dim = dense.shape[0]
                codes = field.random_codes(rng, (7, dim))
                codes[1] = 0
                codes[2, : dim - 1] = 0
                codes[3, : max(dim - 3, 0)] = 0
                codes[4, dim // 2 :] = 0
                codes[5] = field.q - 1  # every digit p - 1
                rows = _pack_lanes(digit_rows(field, codes), lane)
                product = _LaneProduct.of(flow, window)
                got = product.times(rows)
                want = digit_rows(field, field.arr_matmul(codes, dense))
                assert all(row.bit_length() <= dim * d * lane for row in got), (flow.label, window)
                assert np.array_equal(_unpack_lanes(got, dim * d, lane), want), (flow.label, window)
                assert got[1] == 0
                past_end += product._replace(cut=-1).times(rows) != got
        # the window cut clears lanes on these rows: without it they fail
        assert past_end


# Runs ``compute`` on prefix-shift[80], whose windows reach 5,276
# coordinates, and prints the peak resident set size in MB (VmHWM; see
# tests/test_fields.py for why not ru_maxrss).
_WIDE_SCRIPT = """
import contextlib, io, re, sys
import numpy as np
from flowent.cli import main
from flowent.fields import make_prime_field
from flowent.linalg import Matrix
from flowent.model import EndoSpec, Flow, SpaceShape, save_flow

r = 80
gf2 = make_prime_field(2)
prefix = np.zeros((r, r + 1), dtype=np.int64)
prefix[np.arange(r), np.arange(r) + 1] = 1
flow = Flow(SpaceShape(gf2, 0), EndoSpec(gf2, {0: 1}, prefix=Matrix(gf2, prefix)), "prefix-shift")
save_flow(flow, sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["compute", sys.argv[1]])
with open("/proc/self/status") as fh:
    print(code, int(re.search(r"VmHWM:\\s+(\\d+) kB", fh.read()).group(1)) / 1024)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux /proc")
def test_wide_window_memory(run_python, tmp_path):
    """No dense window matrix: the widest benchmark flow stays under 100 MB."""
    out = run_python("-c", _WIDE_SCRIPT, str(tmp_path / "flow.json"))
    assert out.returncode == 0, out.stderr
    code, peak = out.stdout.split()
    assert code == "0"
    assert float(peak) < 100


def _gf2_extension(degree):
    gf2 = make_prime_field(2)
    return make_extension(gf2, least_irreducible(gf2, degree))[0]


def _prime_stack(p, bounds):
    return _flag_stack(make_prime_field(p), bounds)


def _holder_rows(stack, width):
    """The holders of an odd-p tracker, lead -> (codes of ``width``
    columns, level), unpacked from their lanes.  Each holder's doublings
    and the inverse of its lead value are checked on the way."""
    p = stack.field.p
    out = {}
    for lead, (doublings, level, inverse) in stack.holders.items():
        rows = list(_unpack_lanes(doublings, width, stack.lane))
        assert len(rows) == p.bit_length() and all(np.array_equal(r, (rows[0] << t) % p) for t, r in enumerate(rows))
        assert rows[0][lead] * inverse % p == 1 and not rows[0][:lead].any()
        out[lead] = (rows[0].tolist(), level)
    return out


def _assert_scaled_holders(stack, width, scaled):
    """Each holder of an odd-p tracker is the scaled row ``scaled[lead]``
    times its own lead value, at the same level: ``scaled`` maps a lead to
    (row, level), with rows scaled to 1 at their leads."""
    p, got = stack.field.p, _holder_rows(stack, width)
    assert got.keys() == scaled.keys()
    for lead, (row, level) in scaled.items():
        want = np.pad(np.asarray(row, dtype=np.int64), (0, width - len(row))) * got[lead][0][lead] % p
        assert got[lead] == (want.tolist(), level), lead


def _level_row(bounds, level, row):
    """A block whose only nonzero row is ``row``, at the first index of
    ``level``."""
    block = np.zeros((bounds[-1], len(row)), dtype=np.int64)
    block[bounds[level - 1] if level else 0] = row
    return block


class TestFlagTrackers:
    """The flag-adapted rank trackers against the rank of the stacked rows
    of each level, computed from scratch."""

    @pytest.mark.parametrize("p", [2, 3])
    def test_late_low_level_row_takes_the_lead(self, p):
        # a level-1 row, then an equal level-0 row: both spans have rank 1
        bounds = [1, 2]
        stack = _prime_stack(p, bounds)
        _insert(stack, _level_row(bounds, 1, [1, 0]))
        assert stack.ranks == [0, 1]
        _insert(stack, _level_row(bounds, 0, [1, 0]))
        assert stack.ranks == [1, 1]

    @pytest.mark.parametrize("p", [2, 3])
    def test_one_insert_displaces_across_three_levels(self, p):
        # y = e1 + e2 at level 2, x = e0 + e1 at level 1, then w = e0 at
        # level 0: w displaces x, x + w = e1 displaces y, and y + e1 = e2
        # settles at level 2
        bounds = [1, 2, 3]
        stack = _prime_stack(p, bounds)
        _insert(stack, _level_row(bounds, 2, [0, 1, 1]))
        _insert(stack, _level_row(bounds, 1, [1, 1, 0]))
        assert stack.ranks == [0, 1, 2]
        _insert(stack, _level_row(bounds, 0, [1, 0, 0]))
        assert stack.ranks == [1, 2, 3]
        assert {lead: held[1] for lead, held in stack.holders.items()} == {0: 0, 1: 1, 2: 2}

    @pytest.mark.parametrize("p", [2, 3, 5, 127, 131, 32749, 32771, 65521])
    def test_random_row_streams(self, p):
        rng = np.random.default_rng(p)
        for trial in range(40):
            sizes = rng.integers(0, 4, size=int(rng.integers(1, 6)))  # rows per level
            if trial % 4 == 0:
                sizes[0] = 0  # level 0 with no rows, as for d = 0
            bounds = np.cumsum(sizes).tolist()
            if not bounds[-1]:
                continue
            stack = _prime_stack(p, bounds)
            width = int(rng.integers(1, 4))
            inserted = []
            for _ in range(int(rng.integers(1, 12))):
                width += int(rng.integers(0, 3))
                rows = rng.integers(0, p, size=(bounds[-1], width))
                rows *= rng.random((bounds[-1], 1)) < 0.7  # some zero rows
                if inserted and rng.random() < 0.3:
                    old = inserted[int(rng.integers(len(inserted)))]
                    rows[:, : old.shape[1]] = old  # the same rows again
                _insert(stack, rows)
                inserted.append(rows)
                want = []
                for bound in bounds:
                    stacked = np.zeros((len(inserted) * bound, width), dtype=np.int64)
                    for i, block in enumerate(inserted):
                        stacked[i * bound : (i + 1) * bound, : block.shape[1]] = block[:bound]
                    want.append(_prime_rank(stacked, p) if stacked.size else 0)
                assert stack.ranks == want, (p, trial, bounds)

    @pytest.mark.parametrize("degree", [2, 3, 4, 8, 16])
    def test_char2_extension_row_streams(self, degree):
        # GF(2^k) rows, with zero rows, repeated rows and combinations of
        # earlier rows, against the GF(2) rank of their restrictions, which
        # is k times their GF(2^k) rank
        field = _gf2_extension(degree)
        rng = np.random.default_rng(degree)
        dependent = exchanges = 0
        for trial in range(24):
            bounds = np.cumsum(rng.integers(0, 4, size=int(rng.integers(1, 6)))).tolist()
            if not bounds[-1]:
                continue
            stack = _flag_stack(field, bounds)
            inserted = []
            width = int(rng.integers(1, 4))
            for _ in range(int(rng.integers(1, 8))):
                width += int(rng.integers(0, 3))  # narrower holders meet wider rows
                rows = field.random_codes(rng, (bounds[-1], width))
                rows[rng.random(bounds[-1]) < 0.2] = 0
                if inserted and rng.random() < 0.3:
                    again = inserted[int(rng.integers(len(inserted)))]
                    rows[:, : again.shape[1]] = again  # the same rows again
                elif inserted:
                    old = np.concatenate([np.pad(r, ((0, 0), (0, width - r.shape[1]))) for r in inserted])
                    combos = field.arr_matmul(field.random_codes(rng, (bounds[-1], old.shape[0])), old)
                    pick = rng.random(bounds[-1]) < 0.4
                    rows[pick] = combos[pick]
                held = {key: level for key, (_, level) in stack.holders.items()}
                digits = _placed(stack, digit_rows(field, rows))
                assert digits.dtype == np.uint8 and digits.shape == (rows.shape[0], rows.shape[1] * degree)
                placed = code_rows(field, digits)
                inserted.append(rows)
                dependent += int((rows.any(axis=1) & ~placed.any(axis=1)).sum())
                exchanges += any(level < held.get(key, level) for key, (_, level) in stack.holders.items())
                want = []
                for bound in bounds:
                    stacked = np.zeros((len(inserted) * bound, width), dtype=np.int64)
                    for i, block in enumerate(inserted):
                        stacked[i * bound : (i + 1) * bound, : block.shape[1]] = block[:bound]
                    bits = _prime_rank(field.restrict(digit_rows(field, stacked)), 2) if stacked.size else 0
                    assert bits % degree == 0
                    want.append(bits // degree)
                assert stack.ranks == want, (degree, trial, bounds)
        assert dependent and exchanges, (dependent, exchanges)

    @pytest.mark.parametrize("field", [_gf2_extension(k) for k in (2, 3, 4, 8)], ids=repr)
    def test_lane_times(self, field):
        # c*w lane by lane against the field's products, for every c
        rng = np.random.default_rng(field.q)
        row = field.random_codes(rng, (1, 9))
        (w,) = _pack_lanes(digit_rows(field, row))
        k, low, tops = field.d, _lane_low(field), _lane_tops(field.d, 9)
        for c in field.elements():
            (want,) = _pack_lanes(digit_rows(field, field.arr_mul(np.int64(c), row)))
            assert _lane_times(w, c, k, low, tops) == want, c

    @pytest.mark.parametrize("q", [2, 4, 8, 16, 256])
    def test_default_chain_char2(self, q):
        # the default nine members, where exchanges between levels are most
        # frequent, against the per-member reference
        degree = q.bit_length() - 1
        field = make_prime_field(2) if q == 2 else _gf2_extension(degree)
        n_max = 20
        for seed in range(4):
            flow = random_stencil_flow(field, seed)
            traces = chain_traces(flow, n_max, DEFAULT_CONFIG)
            d = flow.discrete_dim
            dead = list(range(d)) + [d + i for i in range(DEFAULT_CONFIG.m_max)]
            counts = [d + m for m in range(DEFAULT_CONFIG.m_max + 1)]
            expected = _reference_codims(flow, dead, counts, n_max, traces[0].window)
            assert [list(t.values) for t in traces] == expected, (q, seed)



def _insert(stack, rows):
    """Insert a digit block as the tracker takes it, packed by
    ``_pack_lanes`` in the tracker's lanes; return the placed values,
    packed."""
    return stack.insert(_pack_lanes(rows, stack.lane))


def _placed(stack, rows):
    """Insert ``rows``; return their placed values, unpacked."""
    return _unpack_lanes(_insert(stack, rows), rows.shape[1], stack.lane)


def _raw_row_run(flow, dead, counts, n_max, window):
    """``cotrajectory_run`` on the raw rows: the blocks of
    ``_constraint_blocks`` iterated without carrying anything back,
    unpacked over characteristic 2, restricted to the prime field by
    ``FiniteField.restrict`` and inserted into one prime-field tracker,
    whose ranks are d times the GF(p^d) ranks."""
    field, width = flow.field, (flow.discrete_dim + window) * flow.field.d
    stack = _prime_stack(field.p, [count * field.d for count in counts])
    for block in _constraint_blocks(flow, dead, n_max, window):
        _insert(stack, field.restrict(block_digits(field, block, width)))
        yield block, [rank // field.d for rank in stack.ranks]


def _raw_row_traces(flow, dead, counts, n_max, window):
    """The codimension traces of ``_raw_row_run``: for each count, its rank
    at each step less the count."""
    ranks = [r for _, r in _raw_row_run(flow, dead, counts, n_max, window)]
    return [[r[i] - count for r in ranks] for i, count in enumerate(counts)]


class _Int64FlagStack(_FlagStack):
    """The odd-p tracker on int64 rows of codes, a reference for the packed
    ``_FlagStackOdd``.  Entries are reduced mod p after every step, so each
    value is at most (p-1)^2 in magnitude before it is reduced: int64 is
    exact below ``_PRIME_CAP``.  ``holders`` maps a lead to (row, level)."""

    def __init__(self, p, bounds):
        super().__init__(make_prime_field(p), bounds)
        self.p = p

    def insert(self, rows):
        p = self.p
        holders = self.holders
        per_level = self.per_level
        block = np.array(rows, dtype=np.int64)
        placed = np.zeros_like(block)
        for row, out, level in zip(block, placed, self.levels):
            own, lead = False, 0
            while True:
                nonzero = row[lead:].nonzero()[0]
                if not nonzero.size:
                    break
                lead += int(nonzero[0])
                c = int(row[lead])
                held = holders.get(lead)
                if held is not None and held[1] <= level:
                    holder = held[0]
                    part = row[lead : holder.size]
                    part -= c * holder[lead:]
                    part %= p
                    continue
                if not own:
                    out[:], own = row, True
                row = row * pow(c, -1, p) % p
                holders[lead] = (row, level)
                per_level[level] += 1
                if held is None:
                    break
                holder, held_level = held
                per_level[held_level] -= 1
                row, level = -row, held_level
                row[: holder.size] += holder
                row %= p
        return placed


class TestPackedOddTracker:
    """The packed odd-p tracker against the int64 reference, on primes on
    both sides of each lane switch: b = 8 up to 127, 16 from 131 to 32749,
    32 from 32771 on."""

    @pytest.mark.parametrize("p", [3, 5, 127, 131, 32749, 32771, 65521])
    def test_matches_int64_reference(self, p):
        rng = np.random.default_rng(p + 1)
        dependent = exchanges = 0
        for trial in range(30):
            bounds = np.cumsum(rng.integers(0, 4, size=int(rng.integers(1, 5)))).tolist()
            if not bounds[-1]:
                continue
            packed, ref = _prime_stack(p, bounds), _Int64FlagStack(p, bounds)
            sent = np.zeros((0, 0), dtype=np.int64)  # every row inserted so far
            width = int(rng.integers(1, 4))
            for _ in range(int(rng.integers(1, 10))):
                width += int(rng.integers(0, 3))  # narrower holders meet wider rows
                rows = rng.integers(0, p, size=(bounds[-1], width))
                rows[rng.random(rows.shape) < 0.4] = 0
                rows[rng.random(bounds[-1]) < 0.2] = p - 1  # every lane at its largest code
                old = np.pad(sent, ((0, 0), (0, width - sent.shape[1])))
                if old.shape[0]:
                    # combinations of earlier rows: some come out dependent
                    combos = rng.integers(0, p, size=(bounds[-1], old.shape[0])) @ old % p
                    pick = rng.random(bounds[-1]) < 0.3
                    rows[pick] = combos[pick]
                held = {lead: level for lead, (_, level) in ref.holders.items()}
                got, want = _placed(packed, rows), ref.insert(rows)
                assert got.dtype == np.int64 and np.array_equal(got, want), (trial, bounds)
                assert packed.per_level == ref.per_level and packed.ranks == ref.ranks
                _assert_scaled_holders(packed, width, ref.holders)
                dependent += int((rows.any(axis=1) & ~want.any(axis=1)).sum())
                exchanges += any(level < held.get(lead, level) for lead, (_, level) in ref.holders.items())
                sent = np.concatenate([old, rows])
        assert dependent and exchanges, (dependent, exchanges)


def _char2_fields():
    gf2 = make_prime_field(2)
    return [gf2] + [make_extension(gf2, least_irreducible(gf2, d))[0] for d in (2, 4)]


def _odd_fields():
    gf3, gf5 = make_prime_field(3), make_prime_field(5)
    return [gf3, gf5] + [make_extension(f, least_irreducible(f, 2))[0] for f in (gf3, gf5)]


def _extension_fields():
    return [_gf2_extension(k) for k in (2, 3, 4, 8, 16)] + _odd_fields()[2:]


def _product_fields():
    """GF(4), GF(16), GF(3), GF(9), GF(5), GF(25), GF(2^8), GF(27) and
    GF(251^2): digit layouts of widths 1 to 8 on both product bodies."""
    gf3, gf251 = make_prime_field(3), make_prime_field(251)
    wide = [_gf2_extension(8), make_extension(gf3, least_irreducible(gf3, 3))[0]]
    return _sparse_fields()[1:] + wide + [make_extension(gf251, least_irreducible(gf251, 2))[0]]


class TestCarriedRows:
    """Blocks multiplied out from carried rows, not raw ones, give the same
    traces and spans as the raw rows."""

    @pytest.mark.parametrize("p", [2, 3])
    def test_insert_returns_placed_values(self, p):
        # each tracker hands back where each row settled
        bounds = [1, 2, 3]
        stack = _prime_stack(p, bounds)
        placed = _placed(stack, np.array([[1, 0, 0], [0, 1, 1], [1, 1, 1]]))
        # row 2 climbs past e0 and e1 + e2 to 0: dependent at its level
        assert placed.dtype == (np.uint8 if p == 2 else np.int64)
        assert placed.tolist() == [[1, 0, 0], [0, 1, 1], [0, 0, 0]]

    def test_odd_values_are_recorded_before_scaling(self):
        # over GF(3) the holders scaled to 1 are 2*e0 / 2 = e0 and
        # (2*e1 + e2) / 2 = e1 + 2*e2; row 2 climbs past both to
        # e0 + e1 + e2 - e0 - (e1 + 2*e2) = 2*e2 and is handed back unscaled.
        # Holders are kept as they settled: 2*e0, 2*e1 + e2 and 2*e2
        bounds = [1, 2, 3]
        stack = _prime_stack(3, bounds)
        placed = _placed(stack, np.array([[2, 0, 0], [0, 2, 1], [1, 1, 1]]))
        assert placed.tolist() == [[2, 0, 0], [0, 2, 1], [0, 0, 2]]
        _assert_scaled_holders(stack, 3, {0: ([1, 0, 0], 0), 1: ([0, 1, 2], 1), 2: ([0, 0, 1], 2)})
        assert {lead: row for lead, (row, _) in _holder_rows(stack, 3).items()} == dict(enumerate(placed.tolist()))
        assert stack.ranks == [1, 2, 3]

    def test_odd_exchange_returns_the_row_where_it_displaced(self):
        # level 1 holds e1 + 2*e2 at lead 1; a level-0 row 2*e0 + e1 climbs
        # past the level-0 holder e0 as e1 and displaces the level-1 holder,
        # which goes on as (e1 + 2*e2) - e1 = 2*e2 at level 1: e2 scaled to 1,
        # kept unscaled
        bounds = [1, 2]
        stack = _prime_stack(5, bounds)
        _insert(stack, _level_row(bounds, 1, [0, 1, 2]))
        _insert(stack, _level_row(bounds, 0, [1, 0, 0]))
        placed = _placed(stack, np.array([[2, 1, 0], [0, 0, 0]]))
        assert placed.tolist() == [[0, 1, 0], [0, 0, 0]]
        _assert_scaled_holders(stack, 3, {0: ([1, 0, 0], 0), 1: ([0, 1, 0], 0), 2: ([0, 0, 1], 1)})
        assert _holder_rows(stack, 3)[2][0] == [0, 0, 2]
        assert stack.ranks == [2, 3]

    def test_exchange_returns_the_row_where_it_displaced(self):
        # level 1 holds e1 + e2 at lead 1; a level-0 row e0 + e1 climbs past
        # the level-0 holder e0 and displaces it as e1, which is its value;
        # the displaced e1 + e2 goes on as e2 at level 1
        bounds = [1, 2]
        stack = _prime_stack(2, bounds)
        _insert(stack, _level_row(bounds, 1, [0, 1, 1]))
        _insert(stack, _level_row(bounds, 0, [1, 0, 0]))
        placed = _placed(stack, np.array([[1, 1, 0], [0, 0, 0]]))
        assert placed.tolist() == [[0, 1, 0], [0, 0, 0]]
        assert {lead: held[1] for lead, held in stack.holders.items()} == {0: 0, 1: 0, 2: 1}
        assert stack.ranks == [2, 3]

    @staticmethod
    def check_placed_values(field, seed):
        """Each placed value is its row plus an element of the GF(q)-span of
        the rows of no higher level inserted before it, and 0 exactly when
        the row lies in that span."""

        def rank_q(rows):
            return len(_rref_array(field, np.array(rows, dtype=np.int64))[1]) if rows else 0

        rng = np.random.default_rng(seed)
        for trial in range(30):
            bounds = np.cumsum(rng.integers(1, 4, size=int(rng.integers(1, 4)))).tolist()
            stack = _flag_stack(field, bounds)
            levels = np.searchsorted(bounds, np.arange(bounds[-1]), side="right")
            before: list[tuple[int, np.ndarray]] = []  # (level, row) in insertion order
            width = int(rng.integers(2, 6))
            for _ in range(int(rng.integers(1, 8))):
                width += int(rng.integers(0, 2))
                rows = field.random_codes(rng, (bounds[-1], width))
                placed = code_rows(field, _placed(stack, digit_rows(field, rows)))
                assert placed.shape == rows.shape
                for row, value, level in zip(rows, placed, levels):
                    span = [np.pad(r, (0, width - r.size)) for lv, r in before if lv <= level]
                    base = rank_q(span)
                    assert rank_q(span + [field.arr_sub(value, row)]) == base, trial
                    assert (not value.any()) == (rank_q(span + [row]) == base), trial
                    before.append((level, row))

    def test_placed_values_on_random_streams(self, gf2):
        self.check_placed_values(gf2, 11)

    @pytest.mark.parametrize("p", [3, 5, 65521])
    def test_odd_placed_values_on_random_streams(self, p):
        self.check_placed_values(make_prime_field(p), p)

    @pytest.mark.parametrize("field", _extension_fields(), ids=repr)
    def test_extension_placed_values_on_random_streams(self, field):
        self.check_placed_values(field, field.q)

    @staticmethod
    def record_inserts(monkeypatch, tracker=_FlagStack2):
        """Counts, over every ``tracker.insert``, the nonzero rows that came
        back 0 and the inserts in which a row displaced a holder of a
        higher level."""
        seen = {"dependent": 0, "exchanges": 0}
        insert = tracker.insert

        def counting(self, rows):
            held = {lead: level for lead, (_, level, *_) in self.holders.items()}
            placed = insert(self, rows)
            seen["dependent"] += sum(bool(row) and not value for row, value in zip(rows, placed))
            seen["exchanges"] += any(
                level < held.get(lead, level) for lead, (_, level, *_) in self.holders.items()
            )
            return placed

        monkeypatch.setattr(tracker, "insert", counting)
        return seen

    def test_chain_traces_match_raw_rows_past_one_word(self, gf2, monkeypatch):
        # 70 discrete and 8 compact dead rows: GF(2) blocks of 78 rows, which
        # the product carries in ten 8-row words and the tracker takes at once
        seen = self.record_inserts(monkeypatch)
        rng = np.random.default_rng(70)
        d = 70
        blocks = {
            key: Matrix(gf2, gf2.random_codes(rng, shape))
            for key, shape in (("dd", (d, d)), ("cd", (d, 3)), ("dc", (2, d)), ("prefix", (2, 5)))
        }
        flow = Flow(SpaceShape(gf2, d), EndoSpec(gf2, {-1: 1, 0: 1, 2: 1}, **blocks), label="discrete[70]")
        n_max = 20
        TestConstraintBlocks.assert_blocks_match_dense(flow, U(DEFAULT_CONFIG.m_max), n_max)
        traces = chain_traces(flow, n_max, DEFAULT_CONFIG)
        dead = list(range(d + DEFAULT_CONFIG.m_max))
        counts = [d + m for m in range(DEFAULT_CONFIG.m_max + 1)]
        want = _raw_row_traces(flow, dead, counts, n_max, traces[0].window)
        assert [list(t.values) for t in traces] == want
        assert seen["dependent"], seen

    @pytest.mark.parametrize("field", _char2_fields() + _odd_fields(), ids=repr)
    def test_chain_traces_match_raw_rows(self, field, monkeypatch):
        # phase flows with dd/cd/dc blocks, prefixes and negative offsets,
        # on the default chain and on scattered zero sets
        seen = self.record_inserts(monkeypatch, _FlagStack2 if field.p == 2 else _FlagStackOdd)
        rng = np.random.default_rng(field.q + 100)
        flows = [_random_phase_flow(field, seed) for seed in range(16)]
        flows.append(make_identity(SpaceShape(field, 2)))
        assert any(flow.endo.dd.rows and flow.endo.cd.cols and flow.endo.dc.rows for flow in flows)
        assert any(flow.endo.min_offset < 0 and flow.endo.prefix_rows for flow in flows)
        for flow in flows:
            n_max = 20
            traces = chain_traces(flow, n_max, DEFAULT_CONFIG)
            d = flow.discrete_dim
            dead = list(range(d)) + [d + i for i in range(DEFAULT_CONFIG.m_max)]
            counts = [d + m for m in range(DEFAULT_CONFIG.m_max + 1)]
            want = _raw_row_traces(flow, dead, counts, n_max, traces[0].window)
            assert [list(t.values) for t in traces] == want, flow.label
            u = GoodSubspace(frozenset(rng.choice(8, size=int(rng.integers(1, 4)), replace=False).tolist()))
            trace = codim_sequence(flow, u, n_max)
            dead_u = _dead_indices(flow, u)
            assert [list(trace.values)] == _raw_row_traces(flow, dead_u, [len(dead_u)], n_max, trace.window)
        assert seen["dependent"] and seen["exchanges"], seen

    @pytest.mark.parametrize("field", [make_prime_field(3), _odd_fields()[2], _gf2_extension(2)], ids=repr)
    def test_narrowing_rows_keep_widths(self, field, monkeypatch):
        # carried rows that narrow, then vanish, below wider holders: the
        # packed tracker's lane mask keeps its widest row's lanes, so the
        # holders' values, and over odd p their doublings, still fit
        tracker, supports = _FlagStack2 if field.p == 2 else _FlagStackOdd, []
        insert, lane = tracker.insert, _lane_bits(field.p)

        def packed_spy(self, rows):
            placed = insert(self, rows)
            supports.append(-(-max(map(int.bit_length, placed), default=0) // (field.d * lane)))
            if self.field == field:  # not the raw rows' GF(2) tracker, which keeps no lane mask
                values = [v for held in self.holders.values() for v in (held[0] if field.p != 2 else [held[0]])]
                assert all(not value >> self.tops.bit_length() for value in values)
            return placed

        monkeypatch.setattr(tracker, "insert", packed_spy)
        flow, n_max = _narrowing_flow(field), 10
        window = default_window(flow, 3, n_max)
        for dead, counts in (([0], [1]), ([0, 1, 2], [1, 2, 3])):
            supports.clear()
            run = list(cotrajectory_run(flow, dead, counts, n_max, window))
            carried = supports.copy()  # not the raw rows' tracker's
            raw = _raw_row_run(flow, dead, counts, n_max, window)
            assert [ranks for _, ranks in run] == [ranks for _, ranks in raw], dead
            # from e_0 the carried rows are e_3, e_1 + e_7, e_2, then e_1
            # less the holder e_1 + e_7, and then 0; rows 1 and 2 turn
            # dependent by step 3
            assert carried == [len(dead), 4, 8, 3, 8] + [0] * 5, (dead, carried)

    def test_verify_sweep_images_match_raw_rows(self, gf4_pair, gf16_pair, monkeypatch):
        # GF(4) flows with their GF(2) restrictions and GF(16) inductions,
        # whose restricted rows come four to a GF(16) row
        from flowent.functors import ind_flow, res_flow

        seen = self.record_inserts(monkeypatch)
        (gf4, e24), (_, e416) = gf4_pair, gf16_pair
        for seed in range(3):
            flow = random_stencil_flow(gf4, seed)
            for image in (flow, res_flow(e24, flow), ind_flow(e416, flow)):
                traces = chain_traces(image, 24, DEFAULT_CONFIG)
                d = image.discrete_dim
                dead = list(range(d)) + [d + i for i in range(DEFAULT_CONFIG.m_max)]
                counts = [d + m for m in range(DEFAULT_CONFIG.m_max + 1)]
                want = _raw_row_traces(image, dead, counts, 24, traces[0].window)
                assert [list(t.values) for t in traces] == want, image.label
        assert seen["dependent"] and seen["exchanges"], seen

    def test_prefix_shift_reports_unchanged(self, monkeypatch):
        # the reports of prefix-shift[r], wrong ones for r >= 70 included,
        # are byte-identical to those computed from the raw rows
        import json

        import flowent.entropy as entropy

        flows = [prefix_shift_flow(r) for r in (8, 62, 74, 80)]
        got = [json.dumps(entropy_report(f, ent_star(f), DEFAULT_CONFIG)) for f in flows]
        monkeypatch.setattr(entropy, "cotrajectory_run", _raw_row_run)
        want = [json.dumps(entropy_report(f, ent_star(f), DEFAULT_CONFIG)) for f in flows]
        assert got == want

    @pytest.mark.parametrize("field", _char2_fields() + [make_prime_field(3)], ids=repr)
    def test_forms_match_stacked_raw_rows(self, field):
        # the carried rows of every member have the raw rows' reduced
        # forms; an identity flow adds no new pivot after step 1
        flows = [_random_phase_flow(field, seed) for seed in range(8)]
        flows.append(make_identity(SpaceShape(field, 1)))
        for flow in flows:
            _check_run(flow, (0, 1, 3), 10, default_window(flow, 3, 10))

    @pytest.mark.parametrize("field", _sparse_fields()[1:], ids=repr)
    def test_unrestrict_reads_back_the_first_restricted_rows(self, field):
        # no unrestrict is left: every d-th restricted digit row, from the
        # first, is a row's own, as the odd tracker's first row of each is
        rng = np.random.default_rng(field.q)
        block = digit_rows(field, field.random_codes(rng, (5, 7)))
        assert np.array_equal(field.restrict(block)[:: field.d], block)

    def test_gf2_products_in_uint8(self, gf2):
        # the packed product skips the multiply by codes; it takes rows
        # packed from uint8 and int64 digit blocks alike
        _check_products(gf2)

    @pytest.mark.parametrize("field", _product_fields(), ids=repr)
    def test_products_in_int64(self, field):
        # int64 digit rows, packed
        _check_products(field)


def _check_products(field):
    """The window products on packed digit rows against the digits of the
    dense product by the reference window matrix, with row counts on both
    sides of 8 and 64 and output widths at and below the window's
    dimension: ``_ShiftProduct`` over characteristic 2, on rows packed
    from uint8 and int64 digits, and ``_LaneProduct`` over odd p.  A
    product covers the whole window: its leading columns are the narrower
    product's, and the rest is the dense product's.  Entries of negative
    offsets and of the dc block read rows past the rows' width, which a
    packed row holds as zero lanes."""
    rng = np.random.default_rng(5)
    lane, past_width = _lane_bits(field.p), 0
    for seed in range(12):
        flow = _random_phase_flow(field, seed)
        window = 30
        dense = dense_truncation(flow, window)
        dim = dense.shape[0]
        product = (_ShiftProduct if field.p == 2 else _LaneProduct).of(flow, window)
        width = int(rng.integers(1, dim))
        cols = min(dim, width + flow.endo.bandwidth)
        cases = [(field.random_codes(rng, (6, width)), cols)]
        for count in (0, 1, 7, 8, 9, 63, 64, 65, 130):
            rows = field.random_codes(rng, (count, width))
            cases += [(rows, c) for c in (cols, dim, int(rng.integers(1, dim)))]
        for rows, cols in cases:
            want = digit_rows(field, field.arr_matmul(rows, dense[:width, :cols]))
            whole = digit_rows(field, field.arr_matmul(rows, dense[:width]))
            digits = digit_rows(field, rows)
            past_width += bool(dense[width:, :cols].any())
            for block in (digits, digits.astype(np.int64)) if field.p == 2 else (digits,):
                got = _unpack_lanes(product.times(_pack_lanes(block, lane)), dim * field.d, lane)
                assert np.array_equal(got, whole), (field, seed, rows.shape)
                assert np.array_equal(got[:, : cols * field.d], want), (field, seed, rows.shape, cols)
    assert past_width


class TestOracle:
    def test_bernoulli_matches(self, gf2):
        flow = make_bernoulli(gf2, 1)
        for m in (1, 2, 3):
            trace = codim_sequence(flow, U(m), 6)
            for n in range(1, 7):
                w = m + n * flow.endo.bandwidth
                assert brute_force_codim(flow, U(m), n, w) == trace.values[n - 1]

    def test_identity_zero(self, gf2):
        flow = make_identity(SpaceShape(gf2, 2))
        for n in (1, 2, 5):
            assert brute_force_codim(flow, U(2), n, 6) == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_random_stencil_flows(self, gf2, seed):
        flow = random_stencil_flow(gf2, seed, offset_range=(-1, 2))
        m_cap = 2
        for m in range(m_cap + 1):
            trace = codim_sequence(flow, U(m), 4)
            for n in (1, 2, 3, 4):
                w = max(m, flow.endo.cd.cols, 1) + n * flow.endo.bandwidth + flow.endo.extent
                if flow.discrete_dim + w > 12:
                    continue
                assert brute_force_codim(flow, U(m), n, w) == trace.values[n - 1]

    def test_scattered_zero_set(self, gf2):
        flow = make_bernoulli(gf2, 1)
        u = GoodSubspace(frozenset({1, 3}))
        trace = codim_sequence(flow, u, 5)
        for n in range(1, 6):
            w = u.extent + n * flow.endo.bandwidth
            assert brute_force_codim(flow, u, n, w) == trace.values[n - 1]

    def test_caps(self, gf2, gf4):
        with pytest.raises(TooLarge):
            brute_force_codim(make_bernoulli(gf4, 1), U(1), 2, 8)
        with pytest.raises(TooLarge):
            brute_force_codim(make_bernoulli(gf2, 1), U(1), 2, 13)


class TestHStar:
    def test_bernoulli_rate_one(self, gf4):
        flow = make_bernoulli(gf4, 1)
        for m in (1, 2, 4):
            res = h_star(flow, U(m))
            assert res.resolved and res.value == 1

    def test_identity_zero(self, gf2):
        res = h_star(make_identity(SpaceShape(gf2, 0)), U(3))
        assert res.value == 0

    def test_block_shift_rate(self, gf2):
        for k in (2, 3):
            flow = make_bernoulli(gf2, k)
            res = h_star(flow, U(k + 1))
            assert res.value == k

    def test_small_zero_set_undershoots(self, gf2):
        # one zeroed coordinate sees only one new constraint per step
        res = h_star(make_bernoulli(gf2, 3), U(1))
        assert res.value == 1

    def test_lower_bound_is_exact_fraction(self, gf2):
        res = h_star(make_bernoulli(gf2, 1), U(2), FAST)
        assert res.lower_bound == Fraction(FAST.n_max - 1, FAST.n_max)


class TestEntStar:
    def test_bernoulli_over_gf4(self, gf4):
        est = ent_star(make_bernoulli(gf4, 1), FAST)
        assert est.resolved and est.value == 1
        assert (est.value, est.field_order) == (1, 4)

    def test_identity_any_shape(self, gf4):
        est = ent_star(make_identity(SpaceShape(gf4, 3)), FAST)
        assert est.value == 0

    @pytest.mark.parametrize("d", [1, 3, 6])
    def test_discrete_only_flows(self, gf2, d, rng):
        # compact part untouched: entropy 0; oracle-checked for small d
        dd = Matrix(gf2, gf2.random_codes(rng, (d, d)))
        endo = EndoSpec(gf2, {}, dd=dd)
        flow = Flow(SpaceShape(gf2, d), endo, label=f"discrete[{d}]")
        est = ent_star(flow, FAST)
        assert est.value == 0
        for n in (1, 2, 4):
            assert brute_force_codim(flow, U(2), n, 12 - d) == 0

    def test_block_shift_value(self, gf2):
        est = ent_star(make_bernoulli(gf2, 3), FAST)
        assert est.value == 3

    def test_unresolved_when_chain_still_growing(self, gf2):
        # block size above m_max: the per-U rates keep climbing at the cap
        est = ent_star(make_bernoulli(gf2, 6), EngineConfig(n_max=24, m_max=5))
        assert not est.resolved
        assert est.value is None
        assert est.lower_bound >= 4

    def test_odd_characteristic_engine(self, gf3):
        # the rank accumulators have a separate path for odd characteristic
        assert ent_star(make_bernoulli(gf3, 1), FAST).value == 1
        assert ent_star(make_bernoulli(gf3, 2), FAST).value == 2
        assert ent_star(make_identity(SpaceShape(gf3, 5)), FAST).value == 0
        flow = random_stencil_flow(gf3, 4)
        trace = codim_sequence(flow, U(2), 10)
        assert trace.values[0] == 0
        assert all(d >= 0 for d in trace.first_differences()) and trace.is_subadditive()

    def test_odd_extension_field_engine(self, gf3):
        from flowent.fields import least_irreducible, make_extension

        gf9, _ = make_extension(gf3, least_irreducible(gf3, 2))
        assert ent_star(make_bernoulli(gf9, 1), FAST).value == 1
        flow = random_stencil_flow(gf9, 0, discrete=False)
        for slack in (4, 8):
            cfg = EngineConfig(n_max=10, window_slack=slack)
            trace = codim_sequence(flow, U(1), 10, cfg)
            assert all(d >= 0 for d in trace.first_differences())
            if slack == 4:
                base = trace.values
            else:
                assert trace.values == base


class TestEntropyLaws:
    def test_power_one_is_same_flow(self, gf2):
        flow = make_bernoulli(gf2, 1)
        assert power_flow(flow, 1) is flow

    def test_logarithmic_law_bernoulli(self, gf2):
        flow = make_bernoulli(gf2, 1)
        for k in (1, 2, 3):
            est = ent_star(power_flow(flow, k), FAST)
            assert est.value == k

    def test_logarithmic_law_direct_sum(self, gf2):
        # squaring a periodic-stencil flow: phases convolve with themselves
        s = direct_sum(make_bernoulli(gf2, 1), make_bernoulli(gf2, 2))
        deep = EngineConfig(n_max=32, m_max=10)
        base = ent_star(s, deep)
        assert base.value == 3
        doubled = ent_star(power_flow(s, 2), deep)
        assert doubled.value == 2 * base.value

    @pytest.mark.parametrize("seed", range(6))
    def test_conjugation_invariance(self, gf2, seed):
        flow = make_bernoulli(gf2, 1)
        rng = np.random.default_rng(seed)
        a = random_invertible(gf2, rng, 6)
        conj = conjugate_flow(flow, a)
        assert ent_star(conj, FAST).value == 1

    def test_conjugation_requires_invertible(self, gf2):
        with pytest.raises(NotInvertible):
            conjugate_flow(make_bernoulli(gf2, 1), Matrix.zeros(gf2, 4, 4))

    @pytest.mark.parametrize("seed", range(4))
    def test_conjugation_matches_matrix_conjugation(self, gf4, seed):
        # truncations of the conjugated flow agree with A M A^-1 wherever
        # neither side is affected by window spill
        from flowent.linalg import inverse

        flow = random_stencil_flow(gf4, seed)
        d = flow.discrete_dim
        rng = np.random.default_rng(seed)
        a = random_invertible(gf4, rng, d + 5)
        conj = conjugate_flow(flow, a)
        w = 40
        mat = truncate(flow, w)
        big = np.eye(d + w, dtype=np.int64)
        big[: d + 5, : d + 5] = a.data
        big_inv = np.eye(d + w, dtype=np.int64)
        big_inv[: d + 5, : d + 5] = inverse(a).data
        want = gf4.arr_matmul(gf4.arr_matmul(big, mat.data), big_inv)
        got = truncate(conj, w)
        keep = d + w - max(flow.endo.bandwidth, conj.endo.bandwidth) - 1
        assert np.array_equal(got.data[:keep, :keep], want[:keep, :keep])

    def test_conjugation_invariance_with_discrete_part(self, gf2):
        flow = direct_sum(make_bernoulli(gf2, 1), make_identity(SpaceShape(gf2, 2)))
        base = ent_star(flow, FAST).value
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            a = random_invertible(gf2, rng, flow.discrete_dim + 4)
            assert ent_star(conjugate_flow(flow, a), FAST).value == base

    @pytest.mark.parametrize("seed", range(3))
    def test_conjugation_round_trip(self, gf4, seed):
        from flowent.linalg import inverse

        flow = random_stencil_flow(gf4, seed, discrete=False)
        rng = np.random.default_rng(seed)
        a = random_invertible(gf4, rng, 5)
        back = conjugate_flow(conjugate_flow(flow, a), inverse(a))
        w = 30
        keep = w - max(flow.endo.bandwidth, back.endo.bandwidth) - 1
        assert np.array_equal(
            truncate(back, w).data[:keep, :keep],
            truncate(flow, w).data[:keep, :keep],
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_power_flow_matches_iterated_matrix(self, gf4, seed):
        flow = random_stencil_flow(gf4, seed, discrete=False)
        squared = power_flow(flow, 2)
        w = 40
        m = truncate(flow, w)
        got = truncate(squared, w)
        keep = w - 2 * flow.endo.bandwidth - 1
        assert np.array_equal((m @ m).data[:keep, :keep], got.data[:keep, :keep])

    def test_direct_sum_lower_bound(self, gf2):
        # interleaving spreads the zero sets, so the chain plateaus later
        deep = EngineConfig(n_max=24, m_max=6)
        b1 = make_bernoulli(gf2, 1)
        b2 = make_bernoulli(gf2, 2)
        est = ent_star(direct_sum(b1, b2), deep)
        assert est.value is not None
        assert est.value >= max(ent_star(b1, FAST).value, ent_star(b2, FAST).value)
        assert est.value == 3  # shifts add coordinatewise

    def test_sum_with_identity(self, gf2):
        s = direct_sum(make_bernoulli(gf2, 1), make_identity(SpaceShape(gf2, 1)))
        assert ent_star(s, FAST).value == 1


class TestEngineConfig:
    @pytest.mark.parametrize(
        "field, least", [("n_max", 1), ("streak", 1), ("m_max", 0), ("window_slack", 0)]
    )
    def test_each_field_names_its_bound(self, field, least):
        with pytest.raises(ValueError, match=f"^{field} must be at least {least}, got {least - 1}$"):
            EngineConfig(**{field: least - 1})

    def test_bounds_are_allowed(self):
        cfg = EngineConfig(n_max=2, streak=1, m_max=0, window_slack=0)
        assert (cfg.n_max, cfg.streak, cfg.m_max, cfg.window_slack) == (2, 1, 0, 0)

    def test_n_max_must_exceed_the_streak(self):
        EngineConfig(n_max=6, streak=5)
        with pytest.raises(ValueError, match="n_max must exceed the required streak length"):
            EngineConfig(n_max=5, streak=5)
