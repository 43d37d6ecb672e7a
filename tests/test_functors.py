"""Scalar change: restriction, induction, tensor levels, theorem checks."""

import numpy as np
import pytest

from flowent.entropy import EngineConfig, brute_force_codim, codim_sequence, ent_star
from flowent.errors import FieldMismatch
from flowent.fields import compose, identity_embedding
from flowent import functors
from flowent.functors import (
    _identity_checks,
    adjunction_dim_check,
    ind_flow,
    ind_subspace,
    make_entropy_n,
    res_flow,
    res_good,
    res_subspace,
    verify_theorem,
)
from flowent.linalg import (
    Matrix,
    Subspace,
    block_expand,
    entry_embed,
    kernel,
    kronecker,
    random_matrix,
)
from flowent.model import (
    EndoSpec,
    Flow,
    GoodSubspace,
    SpaceShape,
    default_window,
    make_bernoulli,
    make_identity,
    random_stencil_flow,
    truncate,
)

from conftest import raw_forms

U = GoodSubspace.principal
FAST = EngineConfig(n_max=24, m_max=4)


class TestResFlow:
    def test_bernoulli_restricts_to_block_shift(self, gf2, gf4_pair):
        gf4, emb = gf4_pair
        restricted = res_flow(emb, make_bernoulli(gf4, 1))
        assert restricted.field == gf2
        assert restricted.endo.stencil == make_bernoulli(gf2, 2).endo.stencil

    def test_identity_restricts_to_identity(self, gf4_pair):
        gf4, emb = gf4_pair
        restricted = res_flow(emb, make_identity(SpaceShape(gf4, 1)))
        w = 6
        mat = truncate(restricted, 2 * w)
        assert mat == Matrix.eye(emb.source, 2 * (w + 1))
        assert restricted.discrete_dim == 2

    def test_multiplication_prefix_expands(self, gf4_pair):
        gf4, emb = gf4_pair
        prefix = Matrix(gf4, [[gf4.generator]])
        endo = EndoSpec(gf4, {1: 1}, prefix=prefix)
        flow = Flow(SpaceShape(gf4, 0), endo)
        restricted = res_flow(emb, flow)
        assert np.array_equal(restricted.endo.prefix.data, [[0, 1], [1, 1]])

    @pytest.mark.parametrize("seed", range(5))
    def test_truncation_commutes(self, gf4_pair, seed):
        gf4, emb = gf4_pair
        flow = random_stencil_flow(gf4, seed)
        w = 12
        lhs = truncate(res_flow(emb, flow), 2 * w)
        rhs = block_expand(truncate(flow, w), emb)
        assert lhs == rhs

    def test_periodic_stencil_restricts(self, gf4_pair):
        # restriction of an interleaved sum: phases multiply out correctly
        gf4, emb = gf4_pair
        from flowent.model import direct_sum

        flow = direct_sum(make_bernoulli(gf4, 1), make_identity(SpaceShape(gf4, 0)))
        w = 10
        lhs = truncate(res_flow(emb, flow), 2 * w)
        rhs = block_expand(truncate(flow, w), emb)
        assert lhs == rhs

    def test_field_mismatch(self, gf2, gf4_pair):
        _, emb = gf4_pair
        with pytest.raises(FieldMismatch):
            res_flow(emb, make_bernoulli(gf2, 1))


class TestResGood:
    def test_principal_blocks(self, gf4_pair):
        _, emb = gf4_pair
        assert res_good(emb, U(1)).zero_set == {0, 1}

    def test_full_stays_full(self, gf4_pair):
        _, emb = gf4_pair
        assert res_good(emb, U(0)).zero_set == frozenset()

    def test_degree_three_block(self, gf2):
        from flowent.fields import least_irreducible, make_extension

        gf8, emb = make_extension(gf2, least_irreducible(gf2, 3))
        assert res_good(emb, GoodSubspace(frozenset({2}))).zero_set == {6, 7, 8}


class TestSubspaceMaps:
    @pytest.mark.parametrize("seed", range(5))
    def test_res_dimension_scaling(self, gf4_pair, seed):
        gf4, emb = gf4_pair
        rng = np.random.default_rng(seed)
        s = Subspace.from_rows(gf4, random_matrix(gf4, rng, 2, 5))
        assert res_subspace(emb, s).dim == emb.degree * s.dim

    def test_res_subspace_is_pointwise_restriction(self, gf4_pair):
        gf4, emb = gf4_pair
        s = Subspace.from_rows(gf4, [[1, gf4.generator]])
        got = res_subspace(emb, s)
        # oracle: coordinates of every scalar multiple of the basis vector
        rows = []
        for alpha in gf4.elements():
            vec = gf4.arr_mul(np.int64(alpha), s.basis.data[0])
            coords = [int(c) for v in vec for c in emb.coords_in_basis(int(v))]
            rows.append(coords)
        assert got == Subspace.from_rows(emb.source, rows)

    def test_ind_subspace_keeps_echelon(self, gf4_pair, rng):
        gf4, emb = gf4_pair
        s = Subspace.from_rows(emb.source, random_matrix(emb.source, rng, 2, 5))
        out = ind_subspace(emb, s)
        assert out.dim == s.dim
        assert np.array_equal(out.basis.data, s.basis.data)

    @pytest.mark.parametrize("ambient", [0, 1, 3])
    def test_zero_subspace_maps_to_zero(self, gf4_pair, gf16_pair, ambient):
        for emb in (gf4_pair[1], gf16_pair[1]):
            res = res_subspace(emb, Subspace.zero(emb.target, ambient))
            assert res == Subspace.zero(emb.source, emb.degree * ambient)
            ind = ind_subspace(emb, Subspace.zero(emb.source, ambient))
            assert ind == Subspace.zero(emb.target, ambient)

    @pytest.mark.parametrize("seed", range(3))
    def test_res_commutes_with_cotrajectories(self, gf4_pair, seed):
        gf4, emb = gf4_pair
        flow = random_stencil_flow(gf4, seed)
        flow_f = res_flow(emb, flow)
        n_max, ms = 8, (0, 1, 2)
        w = default_window(flow, ms[-1], n_max)
        for m in ms:
            assert res_good(emb, U(m)) == U(2 * m)
            c_k = _cotrajectories(flow, m, n_max, w)
            c_f = _cotrajectories(flow_f, 2 * m, n_max, 2 * w)
            assert [res_subspace(emb, c) for c in c_k] == c_f

    @pytest.mark.parametrize("seed", range(3))
    def test_ind_preserves_codim(self, gf4_pair, gf16_pair, seed):
        gf4, _ = gf4_pair
        _, e_kl = gf16_pair
        flow = random_stencil_flow(gf4, seed)
        flow_l = ind_flow(e_kl, flow)
        for m in (0, 2):
            tk = codim_sequence(flow, U(m), 8)
            tl = codim_sequence(flow_l, U(m), 8)
            assert tk.values == tl.values


class TestIndFlow:
    def test_bernoulli_induces_to_bernoulli(self, gf4_pair):
        gf4, emb = gf4_pair
        induced = ind_flow(emb, make_bernoulli(emb.source, 1))
        assert induced.field == gf4
        assert induced.endo.stencil == make_bernoulli(gf4, 1).endo.stencil

    def test_identity_flow(self, gf4_pair):
        gf4, emb = gf4_pair
        induced = ind_flow(emb, make_identity(SpaceShape(emb.source, 2)))
        mat = truncate(induced, 5)
        assert mat == Matrix.eye(gf4, 7)

    def test_ind_along_identity_is_identity(self, gf4):
        e = identity_embedding(gf4)
        flow = random_stencil_flow(gf4, 11)
        same = ind_flow(e, flow)
        assert same.endo.stencil == flow.endo.stencil
        assert same.endo.prefix == flow.endo.prefix
        assert same.endo.dd == flow.endo.dd
        w = 14
        assert truncate(same, w) == truncate(flow, w)

    @pytest.mark.parametrize("seed", range(5))
    def test_truncation_commutes(self, gf4_pair, seed):
        gf4, emb = gf4_pair
        flow = random_stencil_flow(emb.source, seed)
        w = 12
        lhs = truncate(ind_flow(emb, flow), w)
        rhs = entry_embed(truncate(flow, w), emb)
        assert lhs == rhs


class TestFunctoriality:
    @pytest.mark.parametrize("seed", range(3))
    def test_res_composes_along_towers(self, gf4_pair, gf16_pair, seed):
        # restricting in two steps equals restricting along the composite
        # embedding; this pins the composite basis ordering
        from flowent.fields import compose

        gf4, e_fk = gf4_pair
        gf16, e_kl = gf16_pair
        e_fl = compose(e_fk, e_kl)
        flow = random_stencil_flow(gf16, seed)
        two_step = res_flow(e_fk, res_flow(e_kl, flow))
        one_step = res_flow(e_fl, flow)
        w = 8
        assert truncate(two_step, 4 * w) == truncate(one_step, 4 * w)
        assert two_step.discrete_dim == one_step.discrete_dim

    @pytest.mark.parametrize("seed", range(3))
    def test_ind_composes_along_towers(self, gf2, gf4_pair, gf16_pair, seed):
        from flowent.fields import compose

        _, e_fk = gf4_pair
        _, e_kl = gf16_pair
        e_fl = compose(e_fk, e_kl)
        flow = random_stencil_flow(gf2, seed)
        two_step = ind_flow(e_kl, ind_flow(e_fk, flow))
        one_step = ind_flow(e_fl, flow)
        w = 12
        assert truncate(two_step, w) == truncate(one_step, w)

    @pytest.mark.parametrize("seed", range(4))
    def test_res_matrix_functorial(self, gf4_pair, seed):
        gf4, emb = gf4_pair
        rng = np.random.default_rng(seed)
        a = random_matrix(gf4, rng, 4, 4)
        b = random_matrix(gf4, rng, 4, 4)
        assert block_expand(a @ b, emb) == block_expand(a, emb) @ block_expand(b, emb)
        assert block_expand(a + b, emb) == block_expand(a, emb) + block_expand(b, emb)

    @pytest.mark.parametrize("seed", range(4))
    def test_ind_matrix_functorial(self, gf4_pair, seed):
        gf4, emb = gf4_pair
        rng = np.random.default_rng(seed)
        a = random_matrix(emb.source, rng, 4, 4)
        b = random_matrix(emb.source, rng, 4, 4)
        assert entry_embed(a @ b, emb) == entry_embed(a, emb) @ entry_embed(b, emb)
        assert entry_embed(a + b, emb) == entry_embed(a, emb) + entry_embed(b, emb)


class TestTensorLevels:
    def test_unit_factor_gives_other_map(self, gf2, rng):
        g = random_matrix(gf2, rng, 3, 3)
        one = Matrix.eye(gf2, 1)
        assert kronecker(one, g) == g

    def test_dimension_product(self, gf2, rng):
        f = random_matrix(gf2, rng, 2, 2)
        g = random_matrix(gf2, rng, 3, 3)
        assert kronecker(f, g).shape == (6, 6)

    def test_transition_compatibility(self, gf2, rng):
        f = random_matrix(gf2, rng, 3, 2)
        f2 = random_matrix(gf2, rng, 2, 3)
        g = random_matrix(gf2, rng, 2, 2)
        g2 = random_matrix(gf2, rng, 2, 2)
        assert kronecker(f @ f2, g @ g2) == kronecker(f, g) @ kronecker(f2, g2)


class TestAdjunction:
    def test_unit_case(self, gf4_pair):
        _, emb = gf4_pair
        assert adjunction_dim_check(emb, 1, 1)

    def test_small_grid(self, gf2, gf4_pair, gf16_pair):
        e2 = gf4_pair[1]
        e4 = compose(gf4_pair[1], gf16_pair[1])
        for e in (e2, e4):
            for a in range(4):
                for b in range(4):
                    assert adjunction_dim_check(e, a, b)

    def test_degenerate(self, gf4_pair):
        _, emb = gf4_pair
        assert adjunction_dim_check(emb, 0, 0)


class TestEntropyN:
    def test_one_is_plain_shift(self, gf2):
        assert make_entropy_n(gf2, 1).endo.stencil == make_bernoulli(gf2, 1).endo.stencil

    @pytest.mark.parametrize("n", [2, 3])
    def test_block_shift_structure(self, gf2, n):
        flow = make_entropy_n(gf2, n)
        assert flow.endo.stencil == make_bernoulli(gf2, n).endo.stencil

    def test_three_trace(self, gf2):
        flow = make_entropy_n(gf2, 3)
        trace = codim_sequence(flow, U(4), 4)
        assert trace.values == (0, 3, 6, 9)


class TestVerifyTheorem:
    def test_bernoulli_tower(self, gf2, gf4_pair, gf16_pair):
        gf4, e_fk = gf4_pair
        _, e_kl = gf16_pair
        report = verify_theorem(e_fk, e_kl, make_bernoulli(gf4, 1), FAST)
        assert report.verdict == "PASS"
        assert (report.ent_f.value, report.ent_k.value, report.ent_l.value) == (2, 1, 1)
        assert all(report.identities.values())

    def test_identity_flow(self, gf4_pair, gf16_pair):
        gf4, e_fk = gf4_pair
        _, e_kl = gf16_pair
        report = verify_theorem(e_fk, e_kl, make_identity(SpaceShape(gf4, 1)), FAST)
        assert report.verdict == "PASS"
        assert (report.ent_f.value, report.ent_k.value, report.ent_l.value) == (0, 0, 0)

    def test_seeded_random_flow_with_oracle(self, gf4_pair, gf16_pair):
        gf4, e_fk = gf4_pair
        _, e_kl = gf16_pair
        flow = random_stencil_flow(gf4, 2, offset_range=(0, 1), discrete=False)
        report = verify_theorem(e_fk, e_kl, flow, FAST)
        assert report.verdict in ("PASS", "INCONCLUSIVE")
        assert all(report.identities.values())
        # brute-force confirmation of the restricted side over GF(2)
        flow_f = res_flow(e_fk, flow)
        for m in (0, 1):
            u_f = res_good(e_fk, U(m))
            trace = codim_sequence(flow, U(m), 3)
            for n in (1, 2, 3):
                w = max(2 * m, 1) + n * flow_f.endo.bandwidth + flow_f.endo.extent
                if w > 12:
                    continue
                got = brute_force_codim(flow_f, u_f, n, w)
                assert got == e_fk.degree * trace.values[n - 1]

    def test_degree_four_restriction(self, gf2, gf4_pair, gf16_pair):
        # tower GF(2) <= GF(16) <= GF(256): entropy scales by four downward
        from flowent.fields import compose, least_irreducible, make_extension

        gf16 = gf16_pair[0]
        e_fk = compose(gf4_pair[1], gf16_pair[1])
        _, e_kl = make_extension(gf16, least_irreducible(gf16, 2))
        cfg = EngineConfig(n_max=16, m_max=6)
        report = verify_theorem(e_fk, e_kl, make_bernoulli(gf16, 1), cfg, identity_n_max=4)
        assert report.verdict == "PASS"
        assert (report.ent_f.value, report.ent_k.value, report.ent_l.value) == (4, 1, 1)

    def test_report_shape(self, gf4_pair, gf16_pair):
        gf4, e_fk = gf4_pair
        _, e_kl = gf16_pair
        report = verify_theorem(e_fk, e_kl, make_bernoulli(gf4, 1), FAST, identity_n_max=4)
        d = report.to_dict()
        assert set(d) == {
            "flow",
            "tower",
            "degree_FK",
            "ent_F",
            "ent_K",
            "ent_L",
            "identities",
            "verdict",
        }
        assert list(d["identities"]) == ["1", "2", "3", "4"]


def _cotrajectories(flow, m, n_max, window):
    """The n-step cotrajectories of U_m, n = 1..n_max, inside ``window``:
    the kernels of the raw-row constraint forms."""
    dead = list(range(flow.discrete_dim + m))
    return [kernel(Matrix(flow.field, red)) for red in raw_forms(flow, dead, n_max, window)]


def _kernel_route(e_fk, e_kl, flow, flow_f, flow_l, n_max, ms, slack):
    """Reference for ``_identity_checks``: map the cotrajectories of the
    raw rows by ``res_subspace`` and ``ind_subspace`` and compare them and
    their dimensions.  Each member runs alone at its own certified window,
    and no rank tracker runs."""
    deg = e_fk.degree
    cells = {}
    for m in ms:
        w = default_window(flow, m, n_max, slack)
        c_k = _cotrajectories(flow, m, n_max, w)
        c_f = _cotrajectories(flow_f, deg * m, n_max, deg * w)
        c_l = _cotrajectories(flow_l, m, n_max, w)
        dead = flow.discrete_dim + m
        for n in range(1, n_max + 1):
            sub_k, sub_f, sub_l = c_k[n - 1], c_f[n - 1], c_l[n - 1]
            codim_k = sub_k.ambient - dead - sub_k.dim
            cells[m, n] = (
                sub_f.ambient - deg * dead - sub_f.dim == deg * codim_k,
                res_subspace(e_fk, sub_k) == sub_f,
                ind_subspace(e_kl, sub_k) == sub_l,
                sub_l.ambient - dead - sub_l.dim == codim_k,
            )
    return cells


def _shared_cells(e_fk, e_kl, flow, flow_f, flow_l, n_max, ms, slack):
    """The cells of ``_identity_checks`` to depth ``n_max``, in the shape of
    ``_kernel_route``'s, with a chain of members 0..2 traced to that depth."""
    assert ms == functors._IDENTITY_MS
    cfg = EngineConfig(n_max=n_max, m_max=2, window_slack=slack)
    return _identity_checks(e_fk, e_kl, flow, flow_f, flow_l, n_max, cfg)[0]


def _without_windows(est):
    """An estimate with the window of each trace left out: verify's runs
    may use a wider certified window than ``ent_star``'s."""
    per_u = [(m, res.value, res.lower_bound, res.trace.u, res.trace.values, res.streak, res.subadditive)
             for m, res in est.per_u]
    return est.value, est.field_order, est.lower_bound, per_u


def _perturb(flow):
    """The flow with 1 added to one stencil coefficient of phase 0."""
    endo, field = flow.endo, flow.field
    stencil = [dict(endo.phase(rho)) for rho in range(endo.period)]
    k = min(stencil[0]) if stencil[0] else 0
    stencil[0][k] = field.add(stencil[0].get(k, 0), 1)
    spec = EndoSpec(field, stencil, prefix=endo.prefix, dd=endo.dd, cd=endo.cd, dc=endo.dc)
    return Flow(flow.shape, spec, label=flow.label)


@pytest.fixture(scope="module")
def towers(gf2, gf4_pair, gf16_pair):
    """(F <= K, K <= L) for GF(2) <= GF(4) <= GF(16), GF(2) <= GF(8) <=
    GF(64), GF(3) <= GF(9) <= GF(81), GF(2) <= GF(16) <= GF(256) along
    the composed embedding, and GF(2) <= GF(32) <= GF(1024)."""
    from flowent.fields import least_irreducible, make_extension, make_prime_field

    gf3 = make_prime_field(3)
    gf9, e39 = make_extension(gf3, least_irreducible(gf3, 2))
    _, e981 = make_extension(gf9, least_irreducible(gf9, 2))
    gf8, e28 = make_extension(gf2, least_irreducible(gf2, 3))
    _, e8_64 = make_extension(gf8, least_irreducible(gf8, 2))
    gf16 = gf16_pair[0]
    _, e16_256 = make_extension(gf16, least_irreducible(gf16, 2))
    gf32, e2_32 = make_extension(gf2, least_irreducible(gf2, 5))
    _, e32_1024 = make_extension(gf32, least_irreducible(gf32, 2))
    return {
        4: (gf4_pair[1], gf16_pair[1]),
        8: (e28, e8_64),
        9: (e39, e981),
        16: (compose(gf4_pair[1], gf16_pair[1]), e16_256),
        32: (e2_32, e32_1024),
    }


FLOWS = (
    [(4, s) for s in range(12)]
    + [(8, s) for s in range(10)]
    + [(9, s) for s in range(10)]
    + [(16, s) for s in range(10)]
)


class TestIdentityChecks:
    n_max = 6
    ms = functors._IDENTITY_MS  # the chain members verify_theorem checks

    def cells(self, route, e_fk, e_kl, flow, flow_f, flow_l):
        return route(e_fk, e_kl, flow, flow_f, flow_l, self.n_max, self.ms, 4)

    @pytest.mark.parametrize("q,seed", FLOWS)
    def test_forms_match_kernel_route(self, towers, q, seed):
        e_fk, e_kl = towers[q]
        flow = random_stencil_flow(e_fk.target, seed)
        args = (e_fk, e_kl, flow, res_flow(e_fk, flow), ind_flow(e_kl, flow))
        got = self.cells(_shared_cells, *args)
        assert got == self.cells(_kernel_route, *args)
        assert all(all(c) for c in got.values())

    def test_one_raw_block_stream_per_field(self, towers, monkeypatch):
        # a whole verify runs one block stream for each of K, F and L and
        # no other, so no ent_star of its own, to depth max(n_max,
        # identity_n) = 10, carrying the placed values of every step into
        # the next: K and L zero max(m_max, 2) = 3 coordinates, F
        # max(m_max, deg * 2) = 4
        import flowent.entropy as entropy

        original, streams = entropy._constraint_blocks, []

        def spy(flow, dead, n_max, window):
            streams.append((flow.field, len(dead) - flow.discrete_dim, n_max))
            blocks = original(flow, dead, n_max, window)
            carried = None
            for step in range(n_max):
                carried = yield blocks.send(carried)
                assert carried is not None, step

        monkeypatch.setattr(entropy, "_constraint_blocks", spy)
        e_fk, e_kl = towers[4]
        report = verify_theorem(e_fk, e_kl, random_stencil_flow(e_fk.target, 3), EngineConfig(8, m_max=3), 10)
        assert len(report.identities) == 10 and all(report.identities.values())
        assert streams == [(e_fk.target, 3, 10), (e_fk.source, 4, 10), (e_kl.target, 3, 10)]

    @pytest.mark.parametrize("side", ["plain", "res", "ind"])
    @pytest.mark.parametrize(
        "q,seed,m_max,n_max,identity_n",
        [(4, 0, 0, 12, 8), (4, 1, 1, 12, 8), (9, 0, 1, 8, 6), (32, 0, 4, 10, 6), (4, 2, 2, 6, 14), (9, 1, 3, 6, 10)],
    )
    def test_shared_runs_match_references(self, towers, side, q, seed, m_max, n_max, identity_n):
        # the runs verify shares between its identity checks and its three
        # estimates: cells as the kernel route has them, and estimates as
        # ent_star has them on each side, windows aside; with chains of one
        # and two members, F's chain shorter than deg * 2 (GF(32) over
        # GF(2)), and identity checks deeper than the traces
        e_fk, e_kl = towers[q]
        flow = random_stencil_flow(e_fk.target, seed)
        flow_f, flow_l = res_flow(e_fk, flow), ind_flow(e_kl, flow)
        if side == "res":
            flow_f = _perturb(flow_f)
        elif side == "ind":
            flow_l = _perturb(flow_l)
        cfg = EngineConfig(n_max=n_max, m_max=m_max)
        cells, estimates = _identity_checks(e_fk, e_kl, flow, flow_f, flow_l, identity_n, cfg)
        ref = _kernel_route(e_fk, e_kl, flow, flow_f, flow_l, identity_n, self.ms, cfg.window_slack)
        assert cells == ref
        assert all(map(all, ref.values())) == (side == "plain")
        for image, got in zip((flow, flow_f, flow_l), estimates):
            assert _without_windows(got) == _without_windows(ent_star(image, cfg)), image.label

    def test_deep_checks_hold_one_depth(self, gf4_pair, gf16_pair):
        # every depth's blocks are dropped once inserted: at depth 60 the
        # peak stays far below what holding all 60 depths of constraint
        # forms takes (about 68 MB)
        import tracemalloc

        (gf4, e_fk), (_, e_kl) = gf4_pair, gf16_pair
        flow = random_stencil_flow(gf4, 3)
        flow_f, flow_l = res_flow(e_fk, flow), ind_flow(e_kl, flow)
        cfg = EngineConfig(n_max=8)  # the default nine members, carried to depth 60
        tracemalloc.start()
        try:
            cells, _ = _identity_checks(e_fk, e_kl, flow, flow_f, flow_l, 60, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cells) == 60 * len(self.ms) and all(all(c) for c in cells.values())
        assert peak < 4 * 2**20, peak

    @pytest.mark.parametrize("side", ["plain", "res", "ind"])
    @pytest.mark.parametrize("q,seed", [(4, 0), (4, 1), (4, 2), (4, 3), (9, 0), (9, 1)])
    def test_deep_cells_match_kernel_route(self, towers, side, q, seed):
        # cell for cell at depth 24, failing cells of a perturbed side included
        e_fk, e_kl = towers[q]
        flow = random_stencil_flow(e_fk.target, seed)
        flow_f, flow_l = res_flow(e_fk, flow), ind_flow(e_kl, flow)
        if side == "res":
            flow_f = _perturb(flow_f)
        elif side == "ind":
            flow_l = _perturb(flow_l)
        args = (e_fk, e_kl, flow, flow_f, flow_l, 24, self.ms, 4)
        ref = _kernel_route(*args)
        assert _shared_cells(*args) == ref
        assert all(map(all, ref.values())) == (side == "plain")

    @pytest.mark.parametrize("side", ["plain", "res", "ind"])
    @pytest.mark.parametrize("q,seed", [(4, 0), (4, 3), (9, 1)])
    def test_members_to_five_match_kernel_route(self, towers, monkeypatch, side, q, seed):
        # members 0..5: the same two trackers a side decide the cells of
        # members past 2, failing cells of a perturbed side included
        ms = tuple(range(6))
        monkeypatch.setattr(functors, "_IDENTITY_MS", ms)
        e_fk, e_kl = towers[q]
        flow = random_stencil_flow(e_fk.target, seed)
        flow_f, flow_l = res_flow(e_fk, flow), ind_flow(e_kl, flow)
        if side == "res":
            flow_f = _perturb(flow_f)
        elif side == "ind":
            flow_l = _perturb(flow_l)
        args = (e_fk, e_kl, flow, flow_f, flow_l, 10, ms, 4)
        ref = _kernel_route(*args)
        assert _shared_cells(*args) == ref
        assert all(map(all, ref.values())) == (side == "plain")

    @pytest.mark.parametrize("ms", [(0, 1, 2), tuple(range(6))])
    def test_two_identity_trackers_a_side(self, towers, monkeypatch, ms):
        # one chain tracker per field's run, and two identity trackers a
        # side, over F and over L, however many members are checked: the
        # images' chain and the images interleaved with the side's rows
        import flowent.entropy as entropy

        original, runs, checks = entropy._flag_stack, [], []

        def spy(built):
            def build(field, counts):
                built.append((field, len(counts)))
                return original(field, counts)

            return build

        monkeypatch.setattr(entropy, "_flag_stack", spy(runs))
        monkeypatch.setattr(functors, "_flag_stack", spy(checks))
        monkeypatch.setattr(functors, "_IDENTITY_MS", ms)
        e_fk, e_kl = towers[4]
        report = verify_theorem(e_fk, e_kl, random_stencil_flow(e_fk.target, 3), EngineConfig(8, m_max=3), 6)
        assert all(report.identities.values())
        assert [field for field, _ in runs] == [e_fk.target, e_fk.source, e_kl.target]
        k = len(ms)
        assert checks == [(e_fk.source, k), (e_fk.source, 2 * k), (e_kl.target, k), (e_kl.target, 2 * k)]

    @pytest.mark.parametrize("q", [4, 8, 9])
    @pytest.mark.parametrize("k_flow", ["identity", "shift"])
    def test_nested_spans_fail(self, towers, q, k_flow):
        # the identity's cotrajectories against the images of the shift's,
        # and the other way round: from depth 2 on, U_m's rows under the
        # identity span strictly less than under the shift, so every cell
        # fails, the codimensions included, though one side's span lies in
        # the other's
        e_fk, e_kl = towers[q]
        shift = make_bernoulli(e_fk.target, 1)
        ident = make_identity(SpaceShape(e_fk.target, 0))
        flow, other = (ident, shift) if k_flow == "identity" else (shift, ident)
        args = (e_fk, e_kl, flow, res_flow(e_fk, other), ind_flow(e_kl, other), self.n_max, self.ms, 12)
        got = _shared_cells(*args)
        assert got == _kernel_route(*args)
        for (m, n), cell in got.items():
            assert cell == (m == 0 or n == 1,) * 4, (m, n)

    @pytest.mark.parametrize("side", ["res", "ind"])
    @pytest.mark.parametrize("q,seed", [(4, 0), (4, 3), (8, 4), (8, 5), (9, 1), (16, 2)])
    def test_perturbed_flow_fails(self, towers, monkeypatch, side, q, seed):
        e_fk, e_kl = towers[q]
        flow = random_stencil_flow(e_fk.target, seed)
        flow_f, flow_l = res_flow(e_fk, flow), ind_flow(e_kl, flow)
        if side == "res":
            flow_f = _perturb(flow_f)
        else:
            flow_l = _perturb(flow_l)
        args = (e_fk, e_kl, flow, flow_f, flow_l)
        ref = self.cells(_kernel_route, *args)
        assert self.cells(_shared_cells, *args) == ref
        failing = sorted({n for (m, n), c in ref.items() if not all(c)})
        assert failing

        # the same fault injected into verify_theorem
        name = "res_flow" if side == "res" else "ind_flow"
        original = getattr(functors, name)
        monkeypatch.setattr(functors, name, lambda e, fl: _perturb(original(e, fl)))
        cfg = EngineConfig(n_max=12, m_max=2)
        report = verify_theorem(e_fk, e_kl, flow, cfg, self.n_max)
        assert report.verdict == "FAIL"
        assert sorted(n for n, ok in report.identities.items() if not ok) == failing

    @pytest.mark.parametrize("side", ["res", "ind"])
    @pytest.mark.parametrize("q,seed", [(4, 0), (4, 3), (8, 4), (8, 5), (9, 1), (16, 2)])
    def test_fail_names_first_failing_cell(self, towers, monkeypatch, side, q, seed):
        """The fault of ``test_perturbed_flow_fails``: the FAIL report names
        the reference's first failing cell, by depth, then member, then
        check."""
        e_fk, e_kl = towers[q]
        flow = random_stencil_flow(e_fk.target, seed)
        flow_f, flow_l = res_flow(e_fk, flow), ind_flow(e_kl, flow)
        if side == "res":
            flow_f = _perturb(flow_f)
        else:
            flow_l = _perturb(flow_l)
        ref = self.cells(_kernel_route, e_fk, e_kl, flow, flow_f, flow_l)
        names = ("res_codim", "res", "ind", "ind_codim")
        first = next(
            {"check": check, "m": m, "n": n}
            for n in range(1, self.n_max + 1)
            for m in self.ms
            for check, ok in zip(names, ref[m, n])
            if not ok
        )
        name = "res_flow" if side == "res" else "ind_flow"
        original = getattr(functors, name)
        monkeypatch.setattr(functors, name, lambda e, fl: _perturb(original(e, fl)))
        cfg = EngineConfig(n_max=12, m_max=2)
        report = verify_theorem(e_fk, e_kl, flow, cfg, self.n_max)
        assert report.verdict == "FAIL"
        assert report.to_dict()["first_failure"] == first


class TestFirstFailure:
    """A FAIL on the formulas alone names the formula; PASS and
    INCONCLUSIVE reports carry no ``first_failure`` key."""

    @pytest.mark.parametrize("side,check", [("F", "restriction_formula"), ("L", "induction_formula")])
    def test_formula_failure_is_named(self, gf4_pair, gf16_pair, monkeypatch, side, check):
        import dataclasses

        gf4, e_fk = gf4_pair
        _, e_kl = gf16_pair
        wrong = (e_fk.source if side == "F" else e_kl.target).q
        original = functors._chain_estimate

        def shifted(traces, field_order, cfg):
            est = original(traces, field_order, cfg)
            return dataclasses.replace(est, value=est.value + 1) if field_order == wrong else est

        monkeypatch.setattr(functors, "_chain_estimate", shifted)
        report = verify_theorem(e_fk, e_kl, make_bernoulli(gf4, 1), FAST, identity_n_max=4)
        assert report.verdict == "FAIL" and all(report.identities.values())
        assert report.to_dict()["first_failure"] == {"check": check}

    def test_pass_and_inconclusive_have_no_key(self, gf4_pair, gf16_pair):
        gf4, e_fk = gf4_pair
        _, e_kl = gf16_pair
        passed = verify_theorem(e_fk, e_kl, make_bernoulli(gf4, 1), FAST, identity_n_max=4)
        # ent_F of this flow stays unresolved at the default config
        unsure = verify_theorem(e_fk, e_kl, random_stencil_flow(gf4, 2), identity_n_max=4)
        assert (passed.verdict, unsure.verdict) == ("PASS", "INCONCLUSIVE")
        for report in (passed, unsure):
            assert report.first_failure is None
            assert "first_failure" not in report.to_dict()
