"""Space/flow model: truncation exactness, flow algebra."""

import copy
import json
import pickle

import enum
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowent.cli import main
from flowent.errors import FieldMismatch, WindowTooSmall
from flowent.fields import least_irreducible, make_extension, make_prime_field
from flowent.linalg import Matrix, random_invertible
from flowent.model import (
    EndoSpec,
    Flow,
    GoodSubspace,
    SpaceShape,
    _element_from_json,
    _flow_from_window,
    _matrix_from_json,
    compose_flow,
    conjugate_flow,
    default_window,
    direct_sum,
    flow_from_dict,
    flow_to_dict,
    good_direct_sum,
    json_text,
    load_flow,
    make_bernoulli,
    make_identity,
    power_flow,
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
        mat = truncate(flow, 4)
        expected = np.zeros((4, 4), dtype=np.int64)
        expected[0, 1] = expected[1, 2] = expected[2, 3] = 1
        assert np.array_equal(mat.data, expected)

    def test_identity_no_spill(self, gf4):
        flow = make_identity(SpaceShape(gf4, 2))
        assert truncate(flow, 5) == Matrix.eye(gf4, 7)

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
        mat = truncate(flow, 4)
        expected = np.zeros((4, 4), dtype=np.int64)
        expected[1, 0] = expected[2, 1] = expected[3, 2] = 1
        assert np.array_equal(mat.data, expected)


class TestWindowNonzeros:
    """The nonzeros, and the truncation that scatters them, against the
    row-by-row reference truncation."""

    @staticmethod
    def assert_matches_reference(flow, window):
        want = dense_truncation(flow, window)
        rows, cols, codes = window_nonzeros(flow, window)
        assert np.all(np.diff(cols) >= 0)
        assert codes.all()
        got = np.zeros_like(want)
        np.add.at(got, (rows, cols), codes)  # a repeated entry would show as a sum
        assert np.array_equal(got, want), (flow.label, window)
        assert np.array_equal(truncate(flow, window).data, want), (flow.label, window)

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
        mat = truncate(s, 6)
        mf = truncate(f, 3)
        mg = truncate(g, 3)
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
        mat = truncate(s, 2 * w).data
        mf = truncate(f, w).data
        mg = truncate(g, w).data
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
        m_fg = truncate(fg, w)
        big = 60
        mf = truncate(f, big)
        mg = truncate(g, big)
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

    # Each input with the codes it reads as, or the ValueError it raises: the
    # decisions of the nested ``np.asarray`` decode that the flat one replaced.
    _DECODE_TABLE = [
        ("ragged", 2, [[1, 0], [1]], "prefix has rows of lengths [1, 2]; every row must have the same length"),
        ("one-empty-row", 2, [[]], [[]]),
        ("one-empty-row-ext", 4, [[]], [[]]),
        ("two-empty-rows", 2, [[], []], [[], []]),
        ("no-rows", 2, [], []),
        ("int-and-list", 3, [[1, [2]], [0, 1]], [[1, 2], [0, 1]]),
        ("float", 3, [[1.0, 2]], "element 1.0 is not a list of prime-field coefficients"),
        ("float-digit", 9, [[[1.0, 0]]], "coefficients [1.0, 0] must be integers"),
        ("bools", 2, [[True, False], [False, True]], [[1, 0], [0, 1]]),
        ("bool-and-int", 3, [[True, 2]], [[1, 2]]),
        ("bool-digits", 4, [[[True, False]]], [[1]]),
        ("numeric-string", 3, [["1", 2]], "element '1' is not a list of prime-field coefficients"),
        ("numeric-string-digits", 9, [[["1", "0"]]], "coefficients ['1', '0'] must be integers"),
        ("past-int64", 3, [[2**63, 1]], [[2, 1]]),
        ("past-uint64", 3, [[2**64, -(2**63) - 1]], [[1, 0]]),
        ("past-int64-digit", 9, [[[2**70, 1]]], [[4]]),
        ("zero-tails-mixed", 4, [[[1, 0, 0, 0], [0, 1]]], [[1, 2]]),
        ("zero-tails", 4, [[[1, 0, 0], [0, 1, 0]]], [[1, 2]]),
        ("nonzero-tail", 4, [[[1, 0, 1], [0, 1, 0]]], "coefficient vector longer than field degree"),
        ("tail-zero-mod-p", 9, [[[1, 2, 3]]], [[7]]),
        ("tail-nonzero-mod-p", 9, [[[1, 2, 4]]], "coefficient vector longer than field degree"),
        ("prime-field-tail", 2, [[[1, 0, 2]]], [[1]]),
        ("ints-over-ext", 4, [[1, 0], [0, 1]], "elements of a non-prime field must be prime-field coordinate lists"),
        ("int-over-ext", 9, [[0]], "elements of a non-prime field must be prime-field coordinate lists"),
        ("null", 2, [[None]], "element None is not a list of prime-field coefficients"),
        ("too-deep", 2, [[[[1]]]], "coefficients [[1]] must be integers"),
        ("empty-digits", 4, [[[]]], [[0]]),
        ("ragged-digits", 4, [[[1], [1, 1]], [[0, 1], []]], [[1, 3], [2, 0]]),
        ("negative", 2, [[-1, 3], [4, -2]], [[1, 1], [0, 0]]),
        ("negative-digits", 9, [[[-1, -2], [4, 5]]], [[5, 7]]),
        ("object", 3, [[{"a": 1}]], "coefficients ['a'] must be integers"),
    ]

    @pytest.mark.parametrize("q, rows, want", [case[1:] for case in _DECODE_TABLE], ids=[case[0] for case in _DECODE_TABLE])
    def test_matrix_decode_table(self, q, rows, want):
        p = 3 if q in (3, 9) else 2
        base = make_prime_field(p)
        field = base if q == p else make_extension(base, least_irreducible(base, 2))[0]
        if isinstance(want, str):
            with pytest.raises(ValueError) as info:
                _matrix_from_json(field, rows, "prefix")
            assert str(info.value) == want
        else:
            got = _matrix_from_json(field, rows, "prefix")
            assert got.field == field
            assert got.data.shape == (len(want), len(want[0]) if want else 0)
            assert got.data.tolist() == want

    _ELEMENTS = st.one_of(
        st.integers(-3, 9),
        st.integers(),
        st.booleans(),
        st.lists(st.integers(-3, 9), max_size=4),
        st.lists(st.one_of(st.integers(), st.booleans()), min_size=2, max_size=2),
        st.floats(allow_nan=False),
        st.sampled_from(["1", None, [[1]], [1.0, 0], []]),
    )

    @given(
        q=st.sampled_from([2, 3, 4, 9]),
        shape=st.tuples(st.integers(1, 3), st.integers(0, 3)),
        pool=st.lists(_ELEMENTS, min_size=1, max_size=3),
        picks=st.lists(st.integers(0, 2), min_size=9, max_size=9),
    )
    def test_matrix_decode_matches_one_by_one(self, q, shape, pool, picks):
        """The flat decode reads every matrix as ``_element_from_json`` reads
        its elements, or raises the ValueError that reading them raises."""
        p = 3 if q in (3, 9) else 2
        base = make_prime_field(p)
        field = base if q == p else make_extension(base, least_irreducible(base, 2))[0]
        r, c = shape
        rows = [[pool[picks[i * c + j] % len(pool)] for j in range(c)] for i in range(r)]
        try:
            want = Matrix(field, [[_element_from_json(field, v) for v in row] for row in rows])
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                _matrix_from_json(field, rows, "prefix")
            assert str(info.value) == str(exc)
        else:
            got = _matrix_from_json(field, rows, "prefix")
            assert got == want and got.data.shape == (r, c)

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


def _stdlib_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _outcome(write, payload):
    """The text ``write`` makes of ``payload``, or the type of what it raises."""
    try:
        return write(payload)
    except (TypeError, ValueError) as exc:
        return type(exc)


class _Code(enum.IntEnum):
    ONE = 1


class _Text(str):
    pass


# JSON values, with ints past 2^63 and strings of any code point
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2**70), 2**70) | st.text(),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=4), inner, max_size=5),
    max_leaves=30,
)
# values json.dumps also writes: tuples, floats, and non-string keys
_LOOSE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=3), inner, max_size=4)
        | st.dictionaries(st.integers(-5, 5) | st.booleans() | st.none(), inner, max_size=3)
        | st.dictionaries(st.floats(allow_nan=False), inner, max_size=3)
    ),
    max_leaves=20,
)


class TestJsonText:
    """``json_text`` writes what ``json.dumps(x, indent=2, sort_keys=True)``
    writes, plus a newline, and raises TypeError where it does."""

    @pytest.mark.parametrize("path", sorted(Path(__file__).parent.glob("golden/*.json")), ids=lambda p: p.name)
    def test_goldens(self, path):
        text = path.read_text()
        assert json_text(json.loads(text)) == _stdlib_text(json.loads(text)) == text

    @pytest.mark.parametrize("q", [4, 9])
    def test_derived_flows(self, q):
        p = 3 if q == 9 else 2
        base = make_prime_field(p)
        field = make_extension(base, least_irreducible(base, 2))[0]
        for s in range(3):
            f, g = random_stencil_flow(field, s), random_stencil_flow(field, s + 5)
            a = random_invertible(field, np.random.default_rng(s), f.discrete_dim + 2 + s)
            for flow in (direct_sum(f, g), conjugate_flow(f, a), power_flow(f, 2)):
                spec = flow_to_dict(flow)
                assert json_text(spec) == _stdlib_text(spec), flow.label

    @pytest.mark.parametrize("field", ["2", "9", "16"])
    @pytest.mark.parametrize("name", ["bernoulli", "identity", "entropy-n", "direct-sum"])
    def test_example_specs(self, tmp_path, field, name):
        out = tmp_path / "spec.json"
        assert main(["example", name, "--field", field, "--dim", "2", "--discrete", "2", "--out", str(out)]) == 0
        text = out.read_text()
        assert text == _stdlib_text(json.loads(text))
        save_flow(load_flow(out), tmp_path / "again.json")
        assert (tmp_path / "again.json").read_text() == text

    @given(_JSON)
    def test_json_payloads(self, payload):
        text = json_text(payload)
        assert text == _stdlib_text(payload)
        assert json.loads(text) == payload

    @given(_LOOSE)
    def test_loose_payloads(self, payload):
        assert _outcome(json_text, payload) == _outcome(_stdlib_text, payload)

    @pytest.mark.parametrize(
        "payload",
        [
            [1, True, False, None, -0],
            {"a": [True, 1], "b": (2, 3), "c": ()},
            {"\u00e9\"\\\n\x00\ud800": "\U0001f600\t"},
            [_Code.ONE, _Text("x"), {_Text("k"): _Code.ONE}, np.float64(0.5), math.inf, -math.inf, math.nan],
            [{1: "a", -2: "b"}, {2.5: "x", -0.5: "y"}, {True: 1, False: 0}, {None: 1}, {math.inf: 0}],
            {"\x7f": {}, "": []},
        ],
    )
    def test_special_values(self, payload):
        assert json_text(payload) == _stdlib_text(payload)

    @pytest.mark.parametrize(
        "payload",
        [
            np.int64(1),
            [1, np.int64(2)],
            {"a": {1, 2}},
            {(1, 2): 1},
            {1: "a", "b": 2},
            [object()],
            b"bytes",
            {"rows": [[1, 2], [3, np.int32(4)]]},
        ],
    )
    def test_refused_values_raise_type_error(self, payload):
        assert _outcome(_stdlib_text, payload) is TypeError
        with pytest.raises(TypeError):
            json_text(payload)
