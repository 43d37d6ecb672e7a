"""Acceptance gate: every criterion at its stated tolerance.

All assertions are exact (integer or canonical-form equality); the only
numeric knobs are runtime budgets.  Each criterion prints one line.
"""

import json
import time

import numpy as np

from flowent.cli import main as cli_main
from flowent.entropy import (
    EngineConfig,
    brute_force_codim,
    chain_traces,
    codim_sequence,
    ent_star,
)
from flowent.fields import compose, least_irreducible, make_extension, make_prime_field
from flowent.functors import adjunction_dim_check, ind_flow, make_entropy_n, res_flow
from flowent.linalg import Matrix, block_expand, kronecker, random_invertible, random_matrix, rank
from flowent.model import (
    EndoSpec,
    Flow,
    GoodSubspace,
    SpaceShape,
    conjugate_flow,
    direct_sum,
    make_bernoulli,
    make_identity,
    power_flow,
    random_stencil_flow,
    save_flow,
)

U = GoodSubspace.principal

GF2 = make_prime_field(2)
GF4, E_24 = make_extension(GF2, (1, 1, 1))
GF16, E_416 = make_extension(GF4, (GF4.generator, 1, 1))


def report(number: int, name: str, t0: float) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS ({time.perf_counter() - t0:.2f}s)")


def test_criterion_1_bernoulli_baseline():
    t0 = time.perf_counter()
    flow = make_bernoulli(GF4, 1)
    trace = codim_sequence(flow, U(1), 6)
    assert trace.values == (0, 1, 2, 3, 4, 5)
    est = ent_star(flow)
    assert est.resolved and est.value == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, "bernoulli baseline", t0)


def test_criterion_2_restriction_formula():
    t0 = time.perf_counter()
    restricted = res_flow(E_24, make_bernoulli(GF4, 1))
    est = ent_star(restricted)
    assert est.resolved and est.value == 2 == E_24.degree * 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(2, "restriction formula", t0)


def test_criterion_3_induction_formula():
    t0 = time.perf_counter()
    induced = ind_flow(E_416, make_bernoulli(GF4, 1))
    est = ent_star(induced)
    assert est.resolved and est.value == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(3, "induction formula", t0)


def test_criterion_4_theorem_sweep(tmp_path, capsys):
    t0 = time.perf_counter()
    results = []
    for seed in range(25):
        path = tmp_path / f"flow{seed}.json"
        save_flow(random_stencil_flow(GF4, seed), path)
        code = cli_main(["verify", str(path), "--identity-n", "8", "--out", str(tmp_path / f"rep{seed}.json")])
        payload = json.loads((tmp_path / f"rep{seed}.json").read_text())
        assert all(payload["identities"][str(n)] for n in range(1, 9))
        results.append((code, payload["verdict"]))
    codes = [c for c, _ in results]
    assert all(c in (0, 2) for c in codes), "no verify run may fail"
    inconclusive = sum(1 for c in codes if c == 2)
    rate = inconclusive / 25
    assert rate <= 0.20
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    capsys.readouterr()
    print(f"  sweep: {25 - inconclusive} PASS, {inconclusive} INCONCLUSIVE (rate {rate:.0%})")
    report(4, "theorem sweep over 25 seeded flows", t0)


def test_criterion_5_oracle_equivalence():
    t0 = time.perf_counter()
    fixtures = [
        make_bernoulli(GF2, 1),
        make_bernoulli(GF2, 2),
        make_identity(SpaceShape(GF2, 0)),
        make_identity(SpaceShape(GF2, 2)),
        direct_sum(make_bernoulli(GF2, 1), make_bernoulli(GF2, 1)),
        make_entropy_n(GF2, 2),
        make_entropy_n(GF2, 3),
    ] + [random_stencil_flow(GF2, seed, offset_range=(-1, 2)) for seed in range(7)]
    comparisons = 0
    for flow in fixtures:
        endo = flow.endo
        for m in range(4):
            u = U(m)
            trace = codim_sequence(flow, u, 6)
            for n in range(1, 7):
                window = max(u.extent, endo.cd.cols, 1) + n * endo.bandwidth + endo.extent
                if flow.discrete_dim + window > 12:
                    continue
                assert brute_force_codim(flow, u, n, window) == trace.values[n - 1]
                comparisons += 1
    assert comparisons >= 200
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"  oracle comparisons: {comparisons}")
    report(5, "oracle equivalence", t0)


def test_criterion_6_entropy_properties():
    t0 = time.perf_counter()
    cfg = EngineConfig(n_max=32, m_max=6)
    deep = EngineConfig(n_max=32, m_max=8)

    # conjugation invariance: 20 random finite-window conjugators
    for base, expected in ((make_bernoulli(GF2, 1), 1), (make_entropy_n(GF2, 2), 2)):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            a = random_invertible(GF2, rng, 6)
            est = ent_star(conjugate_flow(base, a), cfg)
            assert est.resolved and est.value == expected

    # logarithmic law on bernoulli and entropy-n fixtures
    for base, unit in ((make_bernoulli(GF2, 1), 1), (make_entropy_n(GF2, 2), 2)):
        for k in (1, 2, 3):
            est = ent_star(power_flow(base, k), deep)
            assert est.resolved and est.value == k * unit

    # discrete flows have zero entropy
    rng = np.random.default_rng(3)
    for d in (1, 2, 4):
        dd = Matrix(GF2, GF2.random_codes(rng, (d, d)))
        flow = Flow(SpaceShape(GF2, d), EndoSpec(GF2, {}, dd=dd), label=f"discrete[{d}]")
        assert ent_star(flow, cfg).value == 0

    # direct sums dominate both summands
    pairs = [
        (make_bernoulli(GF2, 1), make_bernoulli(GF2, 1)),
        (make_bernoulli(GF2, 1), make_identity(SpaceShape(GF2, 1))),
        (make_bernoulli(GF2, 2), make_bernoulli(GF2, 1)),
    ]
    for f, g in pairs:
        ef, eg = ent_star(f, deep), ent_star(g, deep)
        es = ent_star(direct_sum(f, g), deep)
        assert es.resolved
        assert es.value >= max(ef.value, eg.value)
    report(6, "entropy laws", t0)


def test_criterion_7_entropy_n_generator(tmp_path, capsys):
    t0 = time.perf_counter()
    for n in (1, 2, 3):
        spec = tmp_path / f"ent{n}.json"
        out = tmp_path / f"ent{n}.report.json"
        assert cli_main(["example", "entropy-n", "--field", "2", "--n", str(n), "--out", str(spec)]) == 0
        assert cli_main(["compute", str(spec), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["value"] == n
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    capsys.readouterr()
    report(7, "entropy-n generator", t0)


def test_criterion_8_algebra_layer():
    t0 = time.perf_counter()

    # regular representation is a ring homomorphism, exhaustive for |K| <= 256
    _, e_2_256 = make_extension(GF2, least_irreducible(GF2, 8))
    _, e_16_256 = make_extension(GF16, least_irreducible(GF16, 2))
    towers = [E_24, E_416, compose(E_24, E_416), e_2_256, e_16_256]
    for emb in towers:
        tgt, src = emb.target, emb.source
        assert tgt.q <= 256
        reps = np.stack([emb.rep(a) for a in tgt.elements()])
        deg = emb.degree
        codes = np.arange(tgt.q, dtype=np.int64)
        mul = tgt.arr_mul(codes[:, None], codes[None, :])
        add = tgt.arr_add(codes[:, None], codes[None, :])
        # additive law on all q^2 pairs at once
        assert np.array_equal(src.arr_add(reps[:, None], reps[None, :]), reps[add])
        # multiplicative law: all products rep(a) @ rep(b) in one sweep per a
        stacked = np.ascontiguousarray(reps.transpose(1, 0, 2)).reshape(deg, tgt.q * deg)
        for a in range(tgt.q):
            prods = src.arr_matmul(reps[a], stacked).reshape(deg, tgt.q, deg)
            assert np.array_equal(np.moveaxis(prods, 1, 0), reps[mul[a]])

    # block expansion is functorial on 100 random matrix pairs
    rng = np.random.default_rng(8)
    for _ in range(100):
        a = random_matrix(GF4, rng, 3, 3)
        b = random_matrix(GF4, rng, 3, 3)
        assert block_expand(a @ b, E_24) == block_expand(a, E_24) @ block_expand(b, E_24)

    # Kronecker rank multiplicativity on 100 random pairs
    for _ in range(100):
        a = random_matrix(GF2, rng, 3, 3)
        b = random_matrix(GF2, rng, 3, 3)
        assert rank(kronecker(a, b)) == rank(a) * rank(b)

    # adjunction dimension count on the full small grid
    for emb in (E_24, compose(E_24, E_416)):
        for a in range(4):
            for b in range(4):
                assert adjunction_dim_check(emb, a, b)
    report(8, "algebra layer", t0)


def test_criterion_9_window_independence():
    t0 = time.perf_counter()
    fixtures = [
        make_bernoulli(GF4, 1),
        make_entropy_n(GF2, 3),
        random_stencil_flow(GF4, 5),
        random_stencil_flow(GF2, 9),
    ]
    for flow in fixtures:
        reference = None
        for slack in (4, 6, 8, 12, 16):
            cfg = EngineConfig(n_max=16, m_max=4, window_slack=slack)
            values = tuple(tr.values for tr in chain_traces(flow, 16, cfg))
            if reference is None:
                reference = values
            else:
                assert values == reference
    report(9, "window independence", t0)
