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
    _FlagStack,
    _FlagStack2,
    _FlagStackOdd,
    _Nonzeros,
    _restrict,
    _times_nonzeros,
    _unrestrict,
    brute_force_codim,
    chain_traces,
    codim_sequence,
    cotrajectory,
    cotrajectory_run,
    ent_star,
    entropy_report,
    h_star,
)
from flowent.errors import NotInvertible, TooLarge
from flowent.fields import _prime_rank, _rref_array, least_irreducible, make_extension, make_prime_field
from flowent.linalg import (
    Matrix,
    Subspace,
    intersect,
    kernel,
    preimage,
    random_invertible,
    rank,
    vstack,
)
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
    window_nonzeros,
)

from conftest import dense_truncation

U = GoodSubspace.principal
FAST = EngineConfig(n_max=24, m_max=4)


class TestCotrajectory:
    def test_depth_one_is_u(self, gf2):
        flow = make_bernoulli(gf2, 1)
        got = cotrajectory(flow, U(2), 1)
        window = got.ambient
        rows = [
            [1 if j == i else 0 for j in range(window)]
            for i in range(window)
            if i not in (0, 1)
        ]
        assert got == Subspace.from_rows(gf2, rows)

    def test_identity_fixed(self, gf4):
        flow = make_identity(SpaceShape(gf4, 0))
        forms = cotrajectory_run(flow, U(2), 5, 12)
        ref = kernel(forms[0])
        for n in (1, 3, 5):
            assert kernel(forms[n - 1]) == ref

    @pytest.mark.parametrize("m,n", [(1, 3), (2, 4), (3, 2)])
    def test_bernoulli_vanishing_coordinates(self, gf2, m, n):
        # hand computation: membership forces coordinates 0 .. m+n-2 to zero
        flow = make_bernoulli(gf2, 1)
        got = cotrajectory(flow, U(m), n)
        window = got.ambient
        expected = Subspace.from_rows(
            gf2,
            [[1 if j == i else 0 for j in range(window)] for i in range(m + n - 1, window)],
        )
        assert got == expected

    def test_incremental_identity(self, gf4):
        # C_{n+1} = U  intersect  phi^{-1}(C_n), checked against the public ops
        flow = random_stencil_flow(gf4, 7, discrete=False)
        u = U(2)
        window = cotrajectory(flow, u, 4).ambient
        mat, _ = truncate(flow, window)
        cots = [kernel(form) for form in cotrajectory_run(flow, u, 4, window)]
        u_win = cots[0]
        for n in range(2, 5):
            stepped = intersect(u_win, preimage(mat, cots[n - 2]))
            assert stepped == cots[n - 1]


def _stacked_forms(flow, u, n_max, window):
    """Constraint forms the direct way: at every step all constraint rows
    so far are stacked and row-reduced from scratch."""
    dim = flow.discrete_dim + window
    stack = np.zeros((0, dim), dtype=np.int64)
    forms = []
    for block in _constraint_blocks(flow, _dead_indices(flow, u), n_max, window):
        rows = np.zeros((block.shape[0], dim), dtype=np.int64)
        rows[:, : block.shape[1]] = block
        stack = np.concatenate([stack, rows])
        red, pivots = _rref_array(flow.field, stack.copy())
        forms.append(red[: len(pivots)])
    return forms


def _scalar_towers():
    """(F <= K, K <= L) for GF(2) <= GF(4) <= GF(16) and GF(3) <= GF(9) <= GF(81)."""
    out = []
    for p in (2, 3):
        base = make_prime_field(p)
        mid, inner = make_extension(base, least_irreducible(base, 2))
        _, outer = make_extension(mid, least_irreducible(mid, 2))
        out.append((inner, outer))
    return out


class TestCotrajectoryRunIncremental:
    """``cotrajectory_run`` extends each form by the step's rows; its forms
    equal those of the stacked rows reduced from scratch, entry for entry,
    on seeded flows over K and their images over F and L."""

    @pytest.mark.parametrize("tower", _scalar_towers(), ids=lambda t: repr(t[0].target))
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_stacked_reduction(self, tower, seed):
        from flowent.functors import ind_flow, res_flow, res_good

        e_fk, e_kl = tower
        flow = random_stencil_flow(e_fk.target, seed)
        for m in (0, 2):
            u = U(m)
            window = default_window(flow, u, 10)
            cases = [
                (flow, u, window),
                (res_flow(e_fk, flow), res_good(e_fk, u), e_fk.degree * window),
                (ind_flow(e_kl, flow), u, window),
            ]
            for fl, fu, w in cases:
                got = cotrajectory_run(fl, fu, 10, w)
                want = _stacked_forms(fl, fu, 10, w)
                assert len(got) == len(want) == 10
                for n, (form, ref) in enumerate(zip(got, want), start=1):
                    assert form.field == fl.field
                    assert form.data.shape == ref.shape, (fl.label, m, n)
                    assert np.array_equal(form.data, ref), (fl.label, m, n)


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
            assert trace.is_monotone()
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


def _reference_codims(flow, dead, counts, n_max, window):
    """Codimension traces straight from the definition: the rank of the
    stacked constraint rows (the dead rows of M^0, ..., M^(n-1)), keeping
    the first ``count`` dead rows of each power, less ``count``."""
    mat = Matrix(flow.field, dense_truncation(flow, window)[0])
    field = flow.field
    power = Matrix(field, np.eye(mat.rows, dtype=np.int64)[dead])
    blocks = []
    for _ in range(n_max):
        blocks.append(power)
        power = power @ mat
    return [
        [
            rank(vstack([Matrix(field, b.data[:count]) for b in blocks[:n]])) - count
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



def _dense_blocks(flow, dead, n_max, window):
    """The constraint blocks of ``_constraint_blocks`` from the reference
    window matrix: each block of width w times the matrix's first w rows,
    trimmed to its first w + bandwidth columns."""
    field = flow.field
    mat = dense_truncation(flow, window)[0]
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


def _prefix_shift_flow(r):
    """Compact rows 0..r-1 read the next coordinate; every later row reads
    itself."""
    gf2 = make_prime_field(2)
    prefix = np.zeros((r, r + 1), dtype=np.int64)
    prefix[np.arange(r), np.arange(r) + 1] = 1
    endo = EndoSpec(gf2, {0: 1}, prefix=Matrix(gf2, prefix))
    return Flow(SpaceShape(gf2, 0), endo, label=f"prefix-shift[{r}]")


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
        window = default_window(flow, u, n_max)
        dead = _dead_indices(flow, u)
        mat, meta = truncate(flow, window)
        want, spill_rows, spill_cols = dense_truncation(flow, window)
        assert np.array_equal(mat.data, want), (flow.label, window)
        assert (meta.spill_rows, meta.spill_columns) == (spill_rows, spill_cols), (flow.label, window)
        pairs = zip(_constraint_blocks(flow, dead, n_max, window), _dense_blocks(flow, dead, n_max, window))
        for n, (got, want) in enumerate(pairs, start=1):
            assert got.shape == want.shape and np.array_equal(got, want), (flow.label, u, n)

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
        for r in range(8, 81, 6):
            self.assert_blocks_match_dense(_prefix_shift_flow(r), U(8), 24)

    def test_int64_guard(self, monkeypatch):
        # 2^32 entries over GF(65521) could sum past 2^63; broadcast arrays
        # stand in for them without the memory
        import flowent.entropy as entropy

        def huge(flow, window):
            return (np.broadcast_to(np.int64(0), (1 << 32,)),) * 3

        monkeypatch.setattr(entropy, "window_nonzeros", huge)
        flow = make_bernoulli(make_prime_field(65521), 1)
        with pytest.raises(TooLarge):
            next(_constraint_blocks(flow, [0], 2, 4))


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


def _flag_stack(p, bounds):
    return _FlagStack2(bounds) if p == 2 else _FlagStackOdd(p, bounds)


def _holder_rows(stack, width):
    """The holders of an odd-p tracker, lead -> (codes of ``width``
    columns, level), unpacked from their lanes."""
    dtype = np.dtype(f"<u{stack.lane // 8}")
    return {
        lead: (np.frombuffer(doublings[0].to_bytes(width * dtype.itemsize, "little"), dtype).tolist(), level)
        for lead, (doublings, level) in stack.holders.items()
    }


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
        stack = _flag_stack(p, bounds)
        stack.insert(_level_row(bounds, 1, [1, 0]))
        assert stack.ranks == [0, 1]
        stack.insert(_level_row(bounds, 0, [1, 0]))
        assert stack.ranks == [1, 1]

    @pytest.mark.parametrize("p", [2, 3])
    def test_one_insert_displaces_across_three_levels(self, p):
        # y = e1 + e2 at level 2, x = e0 + e1 at level 1, then w = e0 at
        # level 0: w displaces x, x + w = e1 displaces y, and y + e1 = e2
        # settles at level 2
        bounds = [1, 2, 3]
        stack = _flag_stack(p, bounds)
        stack.insert(_level_row(bounds, 2, [0, 1, 1]))
        stack.insert(_level_row(bounds, 1, [1, 1, 0]))
        assert stack.ranks == [0, 1, 2]
        stack.insert(_level_row(bounds, 0, [1, 0, 0]))
        assert stack.ranks == [1, 2, 3]
        assert {lead: level for lead, (_, level) in stack.holders.items()} == {0: 0, 1: 1, 2: 2}

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
            stack = _flag_stack(p, bounds)
            width = int(rng.integers(1, 4))
            inserted = []
            for _ in range(int(rng.integers(1, 12))):
                width += int(rng.integers(0, 3))
                rows = rng.integers(0, p, size=(bounds[-1], width))
                rows *= rng.random((bounds[-1], 1)) < 0.7  # some zero rows
                if inserted and rng.random() < 0.3:
                    old = inserted[int(rng.integers(len(inserted)))]
                    rows[:, : old.shape[1]] = old  # the same rows again
                stack.insert(rows)
                inserted.append(rows)
                want = []
                for bound in bounds:
                    stacked = np.zeros((len(inserted) * bound, width), dtype=np.int64)
                    for i, block in enumerate(inserted):
                        stacked[i * bound : (i + 1) * bound, : block.shape[1]] = block[:bound]
                    want.append(_prime_rank(stacked, p) if stacked.size else 0)
                assert stack.ranks == want, (p, trial, bounds)

    @pytest.mark.parametrize("q", [2, 4, 16])
    def test_default_chain_char2(self, q):
        # the default nine members, where exchanges between levels are most
        # frequent, against the per-member reference
        gf2 = make_prime_field(2)
        degree = q.bit_length() - 1
        field = gf2 if q == 2 else make_extension(gf2, least_irreducible(gf2, degree))[0]
        n_max = 20
        for seed in range(4):
            flow = random_stencil_flow(field, seed)
            traces = chain_traces(flow, n_max, DEFAULT_CONFIG)
            d = flow.discrete_dim
            dead = list(range(d)) + [d + i for i in range(DEFAULT_CONFIG.m_max)]
            counts = [d + m for m in range(DEFAULT_CONFIG.m_max + 1)]
            expected = _reference_codims(flow, dead, counts, n_max, traces[0].window)
            assert [list(t.values) for t in traces] == expected, (q, seed)



def _raw_row_traces(flow, dead, counts, n_max, window):
    """``_rank_traces`` on the raw rows: the blocks of ``_constraint_blocks``
    iterated without carrying anything back, each inserted into a fresh
    flag tracker."""
    field = flow.field
    stack = _flag_stack(field.p, [count * field.d for count in counts])
    values = [[] for _ in counts]
    for block in _constraint_blocks(flow, dead, n_max, window):
        stack.insert(_restrict(field, block))
        for count, rank_m, vals in zip(counts, stack.ranks, values):
            vals.append(rank_m // field.d - count)
    return values


class _Int64FlagStack(_FlagStack):
    """The odd-p tracker on int64 rows of codes, a reference for the packed
    ``_FlagStackOdd``.  Entries are reduced mod p after every step, so each
    value is at most (p-1)^2 in magnitude before it is reduced: int64 is
    exact below ``_PRIME_CAP``.  ``holders`` maps a lead to (row, level)."""

    def __init__(self, p, bounds):
        super().__init__(bounds)
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
            packed, ref = _FlagStackOdd(p, bounds), _Int64FlagStack(p, bounds)
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
                got, want = packed.insert(rows), ref.insert(rows)
                assert got.dtype == np.int64 and np.array_equal(got, want), (trial, bounds)
                assert packed.per_level == ref.per_level and packed.ranks == ref.ranks
                assert _holder_rows(packed, width) == {
                    lead: (np.pad(row, (0, width - row.size)).tolist(), level)
                    for lead, (row, level) in ref.holders.items()
                }, (trial, bounds)
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


class TestCarriedRows:
    """Blocks multiplied out from carried rows, not raw ones, give the same
    traces and constraint forms as the raw rows."""

    @pytest.mark.parametrize("p", [2, 3])
    def test_insert_returns_placed_values(self, p):
        # each tracker hands back where each row settled
        bounds = [1, 2, 3]
        stack = _flag_stack(p, bounds)
        placed = stack.insert(np.array([[1, 0, 0], [0, 1, 1], [1, 1, 1]]))
        # row 2 climbs past e0 and e1 + e2 to 0: dependent at its level
        assert placed.dtype == (np.uint8 if p == 2 else np.int64)
        assert placed.tolist() == [[1, 0, 0], [0, 1, 1], [0, 0, 0]]

    def test_odd_values_are_recorded_before_scaling(self):
        # over GF(3) the holders are 2*e0 / 2 = e0 and (2*e1 + e2) / 2 =
        # e1 + 2*e2; row 2 climbs past both to e0 + e1 + e2 - e0 - (e1 + 2*e2)
        # = 2*e2 and is handed back unscaled
        bounds = [1, 2, 3]
        stack = _FlagStackOdd(3, bounds)
        placed = stack.insert(np.array([[2, 0, 0], [0, 2, 1], [1, 1, 1]]))
        assert placed.tolist() == [[2, 0, 0], [0, 2, 1], [0, 0, 2]]
        assert {lead: row for lead, (row, _) in _holder_rows(stack, 3).items()} == {
            0: [1, 0, 0],
            1: [0, 1, 2],
            2: [0, 0, 1],
        }
        assert stack.ranks == [1, 2, 3]

    def test_odd_exchange_returns_the_row_where_it_displaced(self):
        # level 1 holds e1 + 2*e2 at lead 1; a level-0 row 2*e0 + e1 climbs
        # past the level-0 holder e0 as e1 and displaces the level-1 holder,
        # which goes on as (e1 + 2*e2) - e1 = 2*e2, scaled to e2, at level 1
        bounds = [1, 2]
        stack = _FlagStackOdd(5, bounds)
        stack.insert(_level_row(bounds, 1, [0, 1, 2]))
        stack.insert(_level_row(bounds, 0, [1, 0, 0]))
        placed = stack.insert(np.array([[2, 1, 0], [0, 0, 0]]))
        assert placed.tolist() == [[0, 1, 0], [0, 0, 0]]
        assert {lead: level for lead, (_, level) in stack.holders.items()} == {0: 0, 1: 0, 2: 1}
        assert _holder_rows(stack, 3)[2][0] == [0, 0, 1]
        assert stack.ranks == [2, 3]

    def test_exchange_returns_the_row_where_it_displaced(self):
        # level 1 holds e1 + e2 at lead 1; a level-0 row e0 + e1 climbs past
        # the level-0 holder e0 and displaces it as e1, which is its value;
        # the displaced e1 + e2 goes on as e2 at level 1
        bounds = [1, 2]
        stack = _FlagStack2(bounds)
        stack.insert(_level_row(bounds, 1, [0, 1, 1]))
        stack.insert(_level_row(bounds, 0, [1, 0, 0]))
        placed = stack.insert(np.array([[1, 1, 0], [0, 0, 0]]))
        assert placed.tolist() == [[0, 1, 0], [0, 0, 0]]
        assert {lead: level for lead, (_, level) in stack.holders.items()} == {0: 0, 1: 0, 2: 1}
        assert stack.ranks == [2, 3]

    @staticmethod
    def check_placed_values(p, seed):
        """Each placed value is its row plus an element of the span of the
        rows of no higher level inserted before it, and 0 exactly when the
        row lies in that span."""
        rng = np.random.default_rng(seed)
        for trial in range(30):
            bounds = np.cumsum(rng.integers(1, 4, size=int(rng.integers(1, 4)))).tolist()
            stack = _flag_stack(p, bounds)
            levels = np.searchsorted(bounds, np.arange(bounds[-1]), side="right")
            before: list[tuple[int, np.ndarray]] = []  # (level, row) in insertion order
            width = int(rng.integers(2, 6))
            for _ in range(int(rng.integers(1, 8))):
                width += int(rng.integers(0, 2))
                rows = rng.integers(0, p, size=(bounds[-1], width))
                placed = stack.insert(rows)
                assert placed.shape == rows.shape
                for row, value, level in zip(rows, placed, levels):
                    span = [np.pad(r, (0, width - r.size)) for lv, r in before if lv <= level]
                    base = _prime_rank(np.array(span), p) if span else 0
                    with_row = _prime_rank(np.array(span + [row]), p)
                    with_diff = _prime_rank(np.array(span + [(value - row) % p]), p)
                    assert with_diff == base, trial
                    assert (not value.any()) == (with_row == base), trial
                    before.append((level, row))

    def test_placed_values_on_random_streams(self):
        self.check_placed_values(2, 11)

    @pytest.mark.parametrize("p", [3, 5, 65521])
    def test_odd_placed_values_on_random_streams(self, p):
        self.check_placed_values(p, p)

    @staticmethod
    def record_inserts(monkeypatch, tracker=_FlagStack2):
        """Counts, over every ``tracker.insert``, the nonzero rows that came
        back 0 and the inserts in which a row displaced a holder of a
        higher level."""
        seen = {"dependent": 0, "exchanges": 0}
        insert = tracker.insert

        def counting(self, rows):
            held = {lead: level for lead, (_, level) in self.holders.items()}
            placed = insert(self, rows)
            seen["dependent"] += int((rows.any(axis=1) & ~placed.any(axis=1)).sum())
            seen["exchanges"] += any(
                level < held.get(lead, level) for lead, (_, level) in self.holders.items()
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

        flows = [_prefix_shift_flow(r) for r in (8, 62, 74, 80)]
        got = [json.dumps(entropy_report(f, ent_star(f), DEFAULT_CONFIG)) for f in flows]
        monkeypatch.setattr(entropy, "_rank_traces", _raw_row_traces)
        want = [json.dumps(entropy_report(f, ent_star(f), DEFAULT_CONFIG)) for f in flows]
        assert got == want

    @pytest.mark.parametrize("field", _char2_fields() + [make_prime_field(3)], ids=repr)
    def test_forms_match_stacked_raw_rows(self, field):
        # cotrajectory_run carries one reduced residue per new pivot; an
        # identity flow adds none after step 1, so its blocks run empty
        flows = [_random_phase_flow(field, seed) for seed in range(8)]
        flows.append(make_identity(SpaceShape(field, 1)))
        for flow in flows:
            for u in (U(3), GoodSubspace(frozenset({0, 2}))):
                window = default_window(flow, u, 10)
                got = cotrajectory_run(flow, u, 10, window)
                want = _stacked_forms(flow, u, 10, window)
                for n, (form, ref) in enumerate(zip(got, want), start=1):
                    assert np.array_equal(form.data, ref), (flow.label, u, n)

    @pytest.mark.parametrize("field", _sparse_fields()[1:], ids=repr)
    def test_unrestrict_reads_back_the_first_restricted_rows(self, field):
        rng = np.random.default_rng(field.q)
        block = field.random_codes(rng, (5, 7))
        assert np.array_equal(_unrestrict(field, _restrict(field, block)), block)

    def test_gf2_products_in_uint8(self, gf2):
        # the word-lane product skips the multiply by codes; it takes uint8
        # and int64 rows alike
        _check_products(gf2)

    @pytest.mark.parametrize("field", _sparse_fields()[1:], ids=repr)
    def test_products_in_int64(self, field):
        _check_products(field)


def _check_products(field):
    """``_times_nonzeros`` against the dense product by the reference window
    matrix: row counts on both sides of GF(2)'s 8-row words, output widths
    at and below the window's dimension, and entries of negative offsets
    and of the dc block that read rows past the block's width, which zero
    padding stands in for.  GF(2) products come back as uint8, others as
    int64."""
    rng = np.random.default_rng(5)
    past_width = 0
    for seed in range(12):
        flow = _random_phase_flow(field, seed)
        window = 30
        dense = dense_truncation(flow, window)[0]
        nonzeros = _Nonzeros.of(*window_nonzeros(flow, window))
        dim = dense.shape[0]
        width = int(rng.integers(1, dim))
        cols = min(dim, width + flow.endo.bandwidth)
        cases = [(field.random_codes(rng, (6, width)), cols)]
        for count in (0, 1, 7, 8, 9, 63, 64, 65, 130):
            rows = field.random_codes(rng, (count, width))
            cases += [(rows, c) for c in (cols, dim, int(rng.integers(1, dim)))]
        for rows, cols in cases:
            want = field.arr_matmul(rows, dense[:width, :cols])
            entries = np.searchsorted(nonzeros.cols, cols)
            past_width += bool(entries) and bool(nonzeros.row_bound[entries - 1] > width)
            if field.q == 2:
                blocks, dtype = (rows.astype(np.uint8), rows.astype(np.int64)), np.uint8
            else:
                blocks, dtype = (rows.astype(np.int64),), np.int64
            for block in blocks:
                got = _times_nonzeros(field, block, nonzeros, cols)
                assert got.dtype == dtype and np.array_equal(got, want), (field, seed, rows.shape, cols)
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
        assert est.h_top_pair == (1, 4)

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
        assert trace.is_monotone() and trace.is_subadditive()

    def test_odd_extension_field_engine(self, gf3):
        from flowent.fields import least_irreducible, make_extension

        gf9, _ = make_extension(gf3, least_irreducible(gf3, 2))
        assert ent_star(make_bernoulli(gf9, 1), FAST).value == 1
        flow = random_stencil_flow(gf9, 0, discrete=False)
        for slack in (4, 8):
            cfg = EngineConfig(n_max=10, window_slack=slack)
            trace = codim_sequence(flow, U(1), 10, cfg)
            assert trace.is_monotone()
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
        mat, _ = truncate(flow, w)
        big = np.eye(d + w, dtype=np.int64)
        big[: d + 5, : d + 5] = a.data
        big_inv = np.eye(d + w, dtype=np.int64)
        big_inv[: d + 5, : d + 5] = inverse(a).data
        want = gf4.arr_matmul(gf4.arr_matmul(big, mat.data), big_inv)
        got, _ = truncate(conj, w)
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
            truncate(back, w)[0].data[:keep, :keep],
            truncate(flow, w)[0].data[:keep, :keep],
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_power_flow_matches_iterated_matrix(self, gf4, seed):
        flow = random_stencil_flow(gf4, seed, discrete=False)
        squared = power_flow(flow, 2)
        w = 40
        m = truncate(flow, w)[0]
        got = truncate(squared, w)[0]
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
