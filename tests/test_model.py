"""Space/flow model: truncation exactness, decomposition, flow algebra."""

import copy
import json
import pickle

import numpy as np
import pytest

from flowent.errors import FieldMismatch, WindowTooSmall
from flowent.fields import least_irreducible, make_extension, make_prime_field
from flowent.linalg import Matrix
from flowent.model import (
    EndoSpec,
    Flow,
    GoodSubspace,
    SpaceShape,
    TruncationMeta,
    _element_from_json,
    _flow_from_window,
    _matrix_from_json,
    compose_flow,
    decompose,
    default_window,
    direct_sum,
    flow_from_dict,
    flow_to_dict,
    good_direct_sum,
    load_flow,
    make_bernoulli,
    make_identity,
    random_stencil_flow,
    save_flow,
    truncate,
    window_nonzeros,
)

from conftest import dense_truncation


class TestGoodSubspace:
    def test_principal_chain_cofinal(self):
        u = GoodSubspace(frozenset({1, 3}))
        for m in range(u.extent, u.extent + 3):
            chain = GoodSubspace.principal(m)
            assert chain.zero_set >= u.zero_set  # U_m is contained in U

    def test_extent(self):
        assert GoodSubspace(frozenset()).extent == 0
        assert GoodSubspace(frozenset({0, 4})).extent == 5


class TestBernoulli:
    def test_one_dimensional_stencil(self, gf2):
        flow = make_bernoulli(gf2, 1)
        assert flow.endo.stencil == (((1, 1),),)
        assert flow.discrete_dim == 0

    def test_same_stencil_over_gf4(self, gf4):
        flow = make_bernoulli(gf4, 1)
        assert flow.endo.stencil == (((1, 1),),)

    def test_block_shift_flattens(self, gf2):
        flow = make_bernoulli(gf2, 3)
        assert flow.endo.stencil == (((3, 1),),)


class TestTruncate:
    def test_bernoulli_superdiagonal(self, gf2):
        flow = make_bernoulli(gf2, 1)
        mat, meta = truncate(flow, 4)
        expected = np.zeros((4, 4), dtype=np.int64)
        expected[0, 1] = expected[1, 2] = expected[2, 3] = 1
        assert np.array_equal(mat.data, expected)
        assert meta.spill_columns == (4,)
        assert meta.spill_rows == (3,)

    def test_identity_no_spill(self, gf4):
        flow = make_identity(SpaceShape(gf4, 2))
        mat, meta = truncate(flow, 5)
        assert mat == Matrix.eye(gf4, 7)
        assert meta.spill_columns == ()

    def test_window_below_prefix(self, gf2):
        prefix = Matrix(gf2, [[1, 0, 1, 1, 0, 1]])
        endo = EndoSpec(gf2, {1: 1}, prefix=prefix)
        flow = Flow(SpaceShape(gf2, 0), endo)
        with pytest.raises(WindowTooSmall):
            truncate(flow, 3)

    @pytest.mark.parametrize("code", [2, 3, -1])
    def test_stencil_codes_out_of_range_raise(self, gf2, code):
        with pytest.raises(ValueError):
            EndoSpec(gf2, {1: code})

    def test_spec_integers_read_mod_p(self):
        flow = flow_from_dict({"field": {"p": 2, "tower": []}, "stencil": {"1": 3, "2": [2]}})
        assert flow.endo.stencil == (((1, 1),),)

    def test_negative_offsets_need_prefix(self, gf2):
        with pytest.raises(WindowTooSmall):
            EndoSpec(gf2, {-1: 1})

    def test_stencil_changed_to_read_below_zero_raises(self, gf2):
        # EndoSpec checks reads at construction and is frozen after it, so
        # no stencil reading below 0 reaches truncate or window_nonzeros
        endo = EndoSpec(gf2, {1: 1})
        with pytest.raises(AttributeError):
            endo.stencil = (((-1, 1),),)
        assert endo.stencil == (((1, 1),),)
        for name in EndoSpec.__slots__:
            with pytest.raises(AttributeError):
                setattr(endo, name, getattr(endo, name))
            with pytest.raises(AttributeError):
                delattr(endo, name)

    @pytest.mark.parametrize("seed", range(4))
    def test_frozen_spec_copies_and_pickles(self, gf4, seed):
        flow = random_stencil_flow(gf4, seed)
        for clone in (copy.copy(flow), copy.deepcopy(flow), pickle.loads(pickle.dumps(flow))):
            assert flow_to_dict(clone) == flow_to_dict(flow)
            assert clone.endo.stencil == flow.endo.stencil
        with pytest.raises(AttributeError):
            copy.deepcopy(flow.endo).stencil = ()

    def test_right_shift_with_prefix(self, gf2):
        endo = EndoSpec(gf2, {-1: 1}, prefix=Matrix.zeros(gf2, 1, 1))
        flow = Flow(SpaceShape(gf2, 0), endo)
        mat, _ = truncate(flow, 4)
        expected = np.zeros((4, 4), dtype=np.int64)
        expected[1, 0] = expected[2, 1] = expected[3, 2] = 1
        assert np.array_equal(mat.data, expected)


class TestWindowNonzeros:
    """The nonzeros, and the truncation that scatters them, against the
    row-by-row reference truncation."""

    @staticmethod
    def assert_matches_reference(flow, window):
        want, spill_rows, spill_cols = dense_truncation(flow, window)
        rows, cols, codes = window_nonzeros(flow, window)
        assert np.all(np.diff(cols) >= 0)
        assert codes.all()
        got = np.zeros_like(want)
        np.add.at(got, (rows, cols), codes)  # a repeated entry would show as a sum
        assert np.array_equal(got, want), (flow.label, window)
        mat, meta = truncate(flow, window)
        assert np.array_equal(mat.data, want), (flow.label, window)
        assert meta == TruncationMeta(window, spill_rows, spill_cols), (flow.label, window)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_flows(self, gf4, seed):
        flow = random_stencil_flow(gf4, seed)
        pair = direct_sum(flow, random_stencil_flow(gf4, seed + 40))
        for f in (flow, pair):
            low = max(1, f.endo.prefix_rows, f.endo.prefix_cols, f.endo.dc.rows, f.endo.cd.cols)
            for window in (low, low + 1, low + 7):
                self.assert_matches_reference(f, window)

    def test_phase_cyclic_stencil_with_prefix(self, gf2):
        # phases {-1, 2}, {}, {0}: the runs start past the 2 prefix rows
        prefix = Matrix(gf2, [[0, 1, 1, 0], [1, 0, 0, 1]])
        endo = EndoSpec(gf2, [{-1: 1, 2: 1}, {}, {0: 1}], prefix=prefix)
        flow = Flow(SpaceShape(gf2, 0), endo)
        for window in range(4, 12):
            self.assert_matches_reference(flow, window)

    def test_window_below_blocks(self, gf2):
        endo = EndoSpec(gf2, {1: 1}, prefix=Matrix(gf2, [[1, 0, 1, 1, 0, 1]]))
        with pytest.raises(WindowTooSmall):
            window_nonzeros(Flow(SpaceShape(gf2, 0), endo), 3)


class TestDecompose:
    def test_block_diagonal_case(self, gf4):
        shape = SpaceShape(gf4, 2)
        dd = Matrix(gf4, [[1, 2], [0, 3]])
        endo = EndoSpec(gf4, {1: 1}, dd=dd)
        flow = Flow(shape, endo)
        dec = decompose(flow, GoodSubspace.principal(0), window=5)
        assert dec.dd == dd
        assert not dec.cd.data.any() and not dec.dc.data.any()
        # cc is the pure stencil block
        expected = truncate(make_bernoulli(gf4, 1), 5)[0]
        assert dec.cc == expected

    def test_bernoulli_quotient_row(self, gf2):
        flow = make_bernoulli(gf2, 1)
        dec = decompose(flow, GoodSubspace.principal(1), window=5)
        # the quotient line reads coordinate 1, the first U coordinate
        assert dec.cd.shape == (1, 4)
        assert np.array_equal(dec.cd.data, [[1, 0, 0, 0]])

    def test_identity_blocks(self, gf2):
        flow = make_identity(SpaceShape(gf2, 1))
        dec = decompose(flow, GoodSubspace.principal(2), window=6)
        assert dec.cc == Matrix.eye(gf2, 4)
        assert dec.dd == Matrix.eye(gf2, 3)
        assert not dec.cd.data.any() and not dec.dc.data.any()

    @pytest.mark.parametrize("seed", range(4))
    def test_reassemble_reproduces_truncation(self, gf4, seed):
        flow = random_stencil_flow(gf4, seed)
        u = GoodSubspace(frozenset({0, 2}))
        window = default_window(flow, u, 1)
        dec = decompose(flow, u, window=window)
        assert dec.reassemble() == truncate(flow, window)[0]


class TestDirectSum:
    def test_same_field_required(self, gf2, gf4):
        with pytest.raises(FieldMismatch):
            direct_sum(make_bernoulli(gf2, 1), make_bernoulli(gf4, 1))

    def test_shift_plus_shift_is_block_shift(self, gf2):
        two = direct_sum(make_bernoulli(gf2, 1), make_bernoulli(gf2, 1))
        assert two.endo.stencil == make_bernoulli(gf2, 2).endo.stencil

    def test_shift_plus_identity_shape(self, gf2):
        s = direct_sum(make_bernoulli(gf2, 1), make_identity(SpaceShape(gf2, 2)))
        assert s.discrete_dim == 2
        assert s.endo.period == 2

    def test_interleaved_truncation(self, gf2):
        f = make_bernoulli(gf2, 1)
        g = make_identity(SpaceShape(gf2, 0))
        s = direct_sum(f, g)
        mat, _ = truncate(s, 6)
        mf, _ = truncate(f, 3)
        mg, _ = truncate(g, 3)
        assert np.array_equal(mat.data[0::2, 0::2], mf.data)
        assert np.array_equal(mat.data[1::2, 1::2], mg.data)
        assert not mat.data[0::2, 1::2].any()

    def test_good_direct_sum_interleaves(self):
        u = GoodSubspace.principal(2)
        v = GoodSubspace.principal(1)
        assert good_direct_sum(u, v).zero_set == {0, 1, 2}

    @pytest.mark.parametrize("seed", range(4))
    def test_random_pair_truncation(self, gf4, seed):
        # full block scramble: prefixes, discrete parts, dc/cd wiring
        f = random_stencil_flow(gf4, seed)
        g = random_stencil_flow(gf4, seed + 50)
        s = direct_sum(f, g)
        w = 10
        mat = truncate(s, 2 * w)[0].data
        mf = truncate(f, w)[0].data
        mg = truncate(g, w)[0].data
        df, dg = f.discrete_dim, g.discrete_dim
        d = df + dg
        # index maps into the interleaved layout
        fi = list(range(df)) + [d + 2 * u for u in range(w)]
        gi = list(range(df, d)) + [d + 2 * u + 1 for u in range(w)]
        assert np.array_equal(mat[np.ix_(fi, fi)], mf)
        assert np.array_equal(mat[np.ix_(gi, gi)], mg)
        assert not mat[np.ix_(fi, gi)].any()
        assert not mat[np.ix_(gi, fi)].any()


class TestCompose:
    @pytest.mark.parametrize("seed", range(8))
    def test_truncation_functorial(self, gf4, seed):
        f = random_stencil_flow(gf4, seed)
        offset = next(
            k for k in range(100, 300)
            if random_stencil_flow(gf4, seed + k).discrete_dim == f.discrete_dim
        )
        g = random_stencil_flow(gf4, seed + offset)
        fg = compose_flow(f, g)
        # on a window comfortably past every boundary, matrices must agree
        # wherever the composite rows are exact (no spill in either factor)
        w = 30
        m_fg = truncate(fg, w)[0]
        big = 60
        mf = truncate(f, big)[0]
        mg = truncate(g, big)[0]
        prod = (mf @ mg).data
        d = f.discrete_dim
        safe = w - fg.endo.bandwidth - 1
        got = m_fg.data[: d + safe, : d + safe]
        want = prod[: d + safe, : d + safe]
        assert np.array_equal(got, want)

    def test_bernoulli_squares_to_double_shift(self, gf2):
        b = make_bernoulli(gf2, 1)
        bb = compose_flow(b, b)
        assert bb.endo.stencil == (((2, 1),),)

    def test_field_mismatch(self, gf2, gf4):
        with pytest.raises(FieldMismatch):
            compose_flow(make_bernoulli(gf2, 1), make_bernoulli(gf4, 1))

    def test_window_must_pass_trusted_rows(self, gf2):
        # a window of boundary + 1 coordinates leaves no untrusted row
        shape = SpaceShape(gf2, 0)
        mat = np.zeros((4, 4), dtype=np.int64)
        with pytest.raises(WindowTooSmall):
            _flow_from_window(shape, [{1: 1}], 3, mat, 4, "w")
        wider = np.zeros((5, 5), dtype=np.int64)
        assert _flow_from_window(shape, [{1: 1}], 3, wider, 5, "w").discrete_dim == 0


class TestFlowSpecJson:
    def test_roundtrip_bernoulli(self, gf4, tmp_path):
        flow = make_bernoulli(gf4, 2)
        path = tmp_path / "flow.json"
        save_flow(flow, path)
        loaded = load_flow(path)
        assert loaded.endo.stencil == flow.endo.stencil
        assert loaded.field == gf4
        assert loaded.label == flow.label

    def test_roundtrip_random(self, gf16):
        for seed in range(5):
            flow = random_stencil_flow(gf16, seed)
            again = flow_from_dict(flow_to_dict(flow))
            assert again.endo.stencil == flow.endo.stencil
            assert again.endo.prefix == flow.endo.prefix
            assert again.endo.dd == flow.endo.dd
            assert again.endo.cd == flow.endo.cd
            assert again.endo.dc == flow.endo.dc
            assert again.discrete_dim == flow.discrete_dim

    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError):
            flow_from_dict({"field": {"p": 2, "tower": []}})

    def test_rejects_bare_ints_for_extension_fields(self, gf4):
        spec = {"field": gf4.descriptor, "discrete_dim": 0, "stencil": {"1": 2}}
        with pytest.raises(ValueError):
            flow_from_dict(spec)

    @pytest.mark.parametrize("q", [2, 4, 9])
    def test_spec_file_roundtrip(self, q, tmp_path):
        p = 3 if q == 9 else 2
        base = make_prime_field(p)
        field = base if q == p else make_extension(base, least_irreducible(base, 2))[0]
        for seed in range(8):
            flow = direct_sum(random_stencil_flow(field, seed), random_stencil_flow(field, seed + 20))
            path = tmp_path / f"flow-{seed}.json"
            save_flow(flow, path)
            again = load_flow(path)
            for name in ("prefix", "dd", "cd", "dc"):
                assert getattr(again.endo, name) == getattr(flow.endo, name), (q, seed, name)
            assert again.endo.stencil == flow.endo.stencil
            assert flow_to_dict(again) == flow_to_dict(flow)

    def test_spec_bytes_match_streamed_dump(self, tmp_path):
        """``save_flow`` writes one string with the bytes of ``json.dump``
        streamed to the file: the 13 prefix-shift flows and random flows
        over GF(2), GF(4) and GF(9)."""
        import io

        gf2, gf3 = make_prime_field(2), make_prime_field(3)
        flows = []
        for r in range(8, 81, 6):
            prefix = np.zeros((r, r + 1), dtype=np.int64)
            prefix[np.arange(r), np.arange(r) + 1] = 1
            endo = EndoSpec(gf2, {0: 1}, prefix=Matrix(gf2, prefix))
            flows.append(Flow(SpaceShape(gf2, 0), endo, label=f"prefix-shift[{r}]"))
        for field in (
            gf2,
            make_extension(gf2, least_irreducible(gf2, 2))[0],
            make_extension(gf3, least_irreducible(gf3, 2))[0],
        ):
            flows += [random_stencil_flow(field, seed) for seed in range(6)]
            flows.append(direct_sum(random_stencil_flow(field, 1), random_stencil_flow(field, 2)))
        for i, flow in enumerate(flows):
            buf = io.StringIO()
            json.dump(flow_to_dict(flow), buf, indent=2, sort_keys=True)
            buf.write("\n")
            path = tmp_path / f"flow-{i}.json"
            save_flow(flow, path)
            assert path.read_bytes() == buf.getvalue().encode(), flow.label

    def test_matrix_elements_read_as_one_by_one(self, gf4):
        # coordinate lists of any length with zeros past the degree, negative
        # digits, integers and lists mixed over a prime field, and integers
        # past int64
        cases = [
            (gf4, [[[1], [0, 1, 0], [-1, -1]], [[], [1, 1, 0, 0], [3, 2]]]),
            (make_prime_field(3), [[1, [2], -1], [[1, 0], 5, 7]]),
            (make_prime_field(3), [[2**70, 1], [4, -2**65]]),
            (make_prime_field(5), [[[1, 0], [4]], [[7], [-1, 5]]]),
        ]
        for field, rows in cases:
            want = [[_element_from_json(field, v) for v in row] for row in rows]
            assert _matrix_from_json(field, rows, "prefix") == Matrix(field, want), rows

    def test_matrix_rejects_ints_in_extension_fields(self, gf4):
        spec = flow_to_dict(make_bernoulli(gf4, 1))
        spec["prefix"] = [[1, 0], [0, 1]]
        with pytest.raises(ValueError, match="coordinate lists"):
            flow_from_dict(spec)

    @pytest.mark.parametrize("digits", [[1, 0, 1], [0, 0, 0, 1]])
    @pytest.mark.parametrize("first", [None, [1, 0]], ids=["equal-lengths", "mixed-lengths"])
    def test_matrix_rejects_digits_past_the_degree(self, gf4, digits, first):
        spec = flow_to_dict(make_bernoulli(gf4, 1))
        spec["prefix"] = [[first or [0] * len(digits), digits]]
        with pytest.raises(ValueError, match="longer than field degree"):
            flow_from_dict(spec)

    @pytest.mark.parametrize("rows", [[1, 0], [[1, 0], 1], [[1], "01"], {"0": [1]}])
    def test_matrix_rejects_rows_that_are_not_lists(self, gf2, rows):
        spec = flow_to_dict(make_bernoulli(gf2, 1))
        spec["prefix"] = rows
        with pytest.raises(ValueError, match="list of rows"):
            flow_from_dict(spec)

    def test_period_two_stencil_roundtrips(self, gf2):
        flow = direct_sum(make_bernoulli(gf2, 1), make_identity(SpaceShape(gf2, 0)))
        again = flow_from_dict(flow_to_dict(flow))
        assert again.endo.stencil == flow.endo.stencil
