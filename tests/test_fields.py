"""Field and embedding layer: construction, arithmetic laws, towers."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowent.errors import FlowentError, Mismatch, NotPrime, Reducible, TooLarge
from flowent.fields import (
    FiniteField,
    _poly_is_irreducible,
    check_float_exact,
    compose,
    field_from_descriptor,
    identity_embedding,
    least_irreducible,
    make_extension,
    make_prime_field,
    modulus_codes,
    tower_from_descriptor,
)
from flowent.linalg import block_expand, entry_embed, random_matrix

from conftest import code_rows, digit_rows


class TestPrimeFields:
    def test_gf2_characteristic_two_identity(self, gf2):
        assert gf2.q == 2
        assert sorted(gf2.elements()) == [0, 1]
        assert gf2.add(1, 1) == 0

    def test_gf3_modular_product(self, gf3):
        assert gf3.mul(2, 2) == 1

    def test_four_is_not_prime(self):
        with pytest.raises(NotPrime):
            make_prime_field(4)

    def test_modulus_is_x(self, gf2):
        assert gf2.modulus == (0, 1)

    @given(st.integers(0, 2), st.integers(0, 2))
    def test_gf3_inverses(self, a, b):
        gf3 = make_prime_field(3)
        if a != 0:
            assert gf3.mul(a, gf3.inv(a)) == 1
        assert gf3.add(a, gf3.neg(a)) == 0
        assert gf3.mul(a, b) == (a * b) % 3


class TestExtensions:
    def test_gf4_no_root_check(self, gf2, gf4_pair):
        # oracle: x^2 + x + 1 has no root over GF(2)
        for x in gf2.elements():
            assert gf2.add(gf2.add(gf2.mul(x, x), x), 1) != 0
        gf4, emb = gf4_pair
        assert gf4.q == 4
        assert emb.degree == 2

    def test_reducible_modulus_rejected(self, gf2):
        # oracle: x = 1 is a root of x^2 + 1 over GF(2)
        assert gf2.add(gf2.mul(1, 1), 1) == 0
        with pytest.raises(Reducible):
            make_extension(gf2, (1, 0, 1))

    def test_gf16_over_gf4(self, gf4, gf16_pair):
        # oracle: exhaustive root check of x^2 + x + g over all of GF(4)
        g = gf4.generator
        for a in gf4.elements():
            val = gf4.add(gf4.add(gf4.mul(a, a), a), g)
            assert val != 0
        gf16, emb = gf16_pair
        assert gf16.q == 16
        assert emb.degree == 2
        assert emb.source == gf4

    def test_field_axioms_exhaustive_gf16(self, gf16):
        codes = np.arange(16, dtype=np.int64)
        a, b = np.meshgrid(codes, codes, indexing="ij")
        assert np.array_equal(gf16.arr_add(a, b), gf16.arr_add(b, a))
        assert np.array_equal(gf16.arr_mul(a, b), gf16.arr_mul(b, a))
        for x in range(1, 16):
            assert gf16.mul(x, gf16.inv(x)) == 1
        # distributivity on all triples
        c = codes[None, None, :]
        lhs = gf16.arr_mul(a[..., None], gf16.arr_add(b[..., None], c))
        rhs = gf16.arr_add(gf16.arr_mul(a[..., None], b[..., None]), gf16.arr_mul(a[..., None], c))
        assert np.array_equal(lhs, rhs)

    def test_odd_characteristic_extension(self, gf3):
        gf9, emb = make_extension(gf3, least_irreducible(gf3, 2))
        assert gf9.q == 9
        for x in range(1, 9):
            assert gf9.mul(x, gf9.inv(x)) == 1
        # Frobenius sanity: (a+b)^3 = a^3 + b^3
        for a in gf9.elements():
            for b in gf9.elements():
                lhs = gf9.power(gf9.add(a, b), 3)
                rhs = gf9.add(gf9.power(a, 3), gf9.power(b, 3))
                assert lhs == rhs

    @pytest.mark.parametrize("p,m", [(2, 2), (2, 16), (3, 7), (251, 2)])
    def test_prime_base_keeps_modulus_and_power_basis(self, p, m):
        base = make_prime_field(p)
        modulus = least_irreducible(base, m)
        ext, emb = make_extension(base, modulus)
        assert ext.modulus == tuple(modulus)
        assert ext.descriptor == {"p": p, "tower": [[[c] for c in modulus]]}
        assert emb.basis == tuple(p**j for j in range(m))
        e0 = np.zeros((m, 1), dtype=np.int64)
        e0[0, 0] = 1
        assert np.array_equal(emb.matrix, e0)

    def test_matmul_matches_scalar_mul(self, gf16, rng):
        a = gf16.random_codes(rng, (5, 4))
        b = gf16.random_codes(rng, (4, 3))
        prod = gf16.arr_matmul(a, b)
        for i in range(5):
            for j in range(3):
                acc = 0
                for k in range(4):
                    acc = gf16.add(acc, gf16.mul(int(a[i, k]), int(b[k, j])))
                assert acc == prod[i, j]


def _prime_extension(p: int, d: int):
    base = make_prime_field(p)
    return make_extension(base, least_irreducible(base, d))[0]


def _ref_mul(field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise a*b without the field's tables: the schoolbook product
    of the two digit vectors mod p, reduced by the modulus from the top
    degree down."""
    p, d = field.p, field.d
    ppow = p ** np.arange(d, dtype=np.int64)
    da = (np.asarray(a, dtype=np.int64)[:, None] // ppow) % p
    db = (np.asarray(b, dtype=np.int64)[:, None] // ppow) % p
    prod = np.zeros((len(da), 2 * d - 1), dtype=np.int64)
    for i in range(d):
        prod[:, i : i + d] += da[:, i : i + 1] * db
    low = np.asarray(field.modulus[:d], dtype=np.int64)  # x^d = -low
    for k in range(2 * d - 2, d - 1, -1):
        prod[:, k - d : k] -= prod[:, k : k + 1] * low
        prod[:, k - d : k] %= p
    return (prod[:, :d] % p) @ ppow


class TestLogTables:
    """Element products, inverses and powers from the log tables against
    a product of digit vectors reduced by the modulus."""

    @pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (3, 4), (2, 8)])
    def test_all_pairs(self, p, d):
        field = _prime_extension(p, d)
        q = field.q
        codes = np.arange(q, dtype=np.int64)
        ref = _ref_mul(field, np.repeat(codes, q), np.tile(codes, q)).reshape(q, q)
        assert np.array_equal(field.arr_mul(codes[:, None], codes[None, :]), ref)
        assert [[field.mul(a, b) for b in range(q)] for a in range(q)] == ref.tolist()
        for a in range(1, q):
            assert ref[a, field.inv(a)] == 1
        with pytest.raises(ZeroDivisionError):
            field.inv(0)
        acc = np.ones(q, dtype=np.int64)
        for k in range(q + 2):  # past a^(q-1) = 1 and a^q = a
            assert [field.power(a, k) for a in range(q)] == acc.tolist()
            acc = ref[acc, codes]
        with pytest.raises(ValueError):
            field.power(field.generator, -1)

    @pytest.mark.parametrize("p,d", [(2, 10), (3, 7), (2, 16)])
    def test_random_pairs(self, p, d):
        field = _prime_extension(p, d)
        rng = np.random.default_rng(d)
        a = field.random_codes(rng, 2000)
        b = field.random_codes(rng, 2000)
        a[:40] = 0
        b[20:60] = 0
        ref = _ref_mul(field, a, b)
        assert np.array_equal(field.arr_mul(a, b), ref)
        assert [field.mul(x, y) for x, y in zip(a.tolist(), b.tolist())] == ref.tolist()
        nonzero = a[a != 0]
        inverses = np.array([field.inv(x) for x in nonzero.tolist()])
        assert (_ref_mul(field, nonzero, inverses) == 1).all()
        # square-and-multiply with reference products, on 200 bases
        k = rng.integers(0, 3 * field.q, 200)
        acc, base, e = np.ones(200, dtype=np.int64), a[:200].copy(), k.copy()
        while e.any():
            acc = np.where(e & 1, _ref_mul(field, acc, base), acc)
            base = _ref_mul(field, base, base)
            e >>= 1
        assert [field.power(x, int(n)) for x, n in zip(a[:200].tolist(), k)] == acc.tolist()


class TestOrderCap:
    @pytest.mark.parametrize(
        "build",
        [
            lambda gf2: make_extension(gf2, (1,) + (0,) * 16 + (1,)),
            lambda gf2: least_irreducible(gf2, 17),
            lambda gf2: least_irreducible(make_extension(gf2, (1, 1, 1))[0], 9),
            lambda gf2: least_irreducible(gf2, 10**9),
            lambda gf2: FiniteField(2, (1,) + (0,) * 16 + (1,)),
        ],
        ids=["make_extension", "least_irreducible", "least_irreducible_gf4", "huge_degree", "FiniteField"],
    )
    def test_larger_orders_raise(self, gf2, build):
        with pytest.raises(TooLarge):
            build(gf2)


# Builds GF(2^10) and GF(2^16) and takes one product in each; prints the
# peak resident set size in MB.  That is VmHWM, the peak of this process
# image: ru_maxrss also counts the peak of the process that started it,
# carried over the exec.
_BUILD_SCRIPT = """
import re
from flowent.fields import least_irreducible, make_extension, make_prime_field

gf2 = make_prime_field(2)
for d in (10, 16):
    field, _ = make_extension(gf2, least_irreducible(gf2, d))
    assert field.mul(3, field.q - 1) != 0
with open("/proc/self/status") as fh:
    print(int(re.search(r"VmHWM:\\s+(\\d+) kB", fh.read()).group(1)) / 1024)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux /proc")
def test_build_cost(run_python):
    """The tables of GF(2^16) are O(q): a fresh process stays under 100 MB."""
    out = run_python("-c", _BUILD_SCRIPT)
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) < 100


class TestEmbeddings:
    def test_power_basis_starts_with_one(self, gf4_pair, gf16_pair):
        for _, emb in (gf4_pair, gf16_pair):
            assert emb.basis[0] == emb.target.one

    def test_embed_project_roundtrip(self, gf16_pair):
        gf16, emb = gf16_pair
        for a in emb.source.elements():
            coords = emb.coords_in_basis(emb.apply(a))
            assert coords[0] == a
            assert not coords[1:].any()

    def test_composition_degree(self, gf2, gf4_pair, gf16_pair):
        _, e_24 = gf4_pair
        _, e_416 = gf16_pair
        e_216 = compose(e_24, e_416)
        assert e_216.degree == 4
        assert e_216.source == gf2
        for a in gf2.elements():
            assert e_216.apply(a) == e_416.apply(e_24.apply(a))

    def test_identity_composition_law(self, gf4_pair):
        _, e = gf4_pair
        assert compose(identity_embedding(e.source), e) == e
        assert compose(e, identity_embedding(e.target)) == e

    def test_mismatched_composition(self, gf3, gf4_pair):
        _, e_24 = gf4_pair
        gf9, e_39 = make_extension(gf3, least_irreducible(gf3, 2))
        with pytest.raises(Mismatch):
            compose(e_24, e_39)


class TestRegularRepresentation:
    def test_one_maps_to_identity(self, gf4_pair):
        _, emb = gf4_pair
        assert np.array_equal(emb.rep(1), np.eye(2, dtype=np.int64))

    def test_zero_maps_to_zero(self, gf4_pair):
        _, emb = gf4_pair
        assert not emb.rep(0).any()

    def test_gf4_generator_matrix(self, gf4_pair):
        gf4, emb = gf4_pair
        # x * 1 = x and x * x = x + 1, so columns are (0,1) and (1,1)
        got = emb.rep(gf4.generator)
        assert np.array_equal(got, np.array([[0, 1], [1, 1]]))
        # oracle: coords(alpha * beta) = M @ coords(beta) for all 16 pairs
        for alpha in gf4.elements():
            m = emb.rep(alpha)
            for beta in gf4.elements():
                lhs = emb.coords_in_basis(gf4.mul(alpha, beta))
                rhs = (m @ emb.coords_in_basis(beta)) % 2
                assert np.array_equal(lhs, rhs)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("which", ["inner", "outer", "composite"])
    def test_rep_columns(self, p, which):
        """Column j of rep(alpha) holds the coordinates of alpha * basis[j],
        along GF(p) <= GF(p^2) <= GF(p^4) and the composite."""
        base = make_prime_field(p)
        mid, inner = make_extension(base, least_irreducible(base, 2))
        _, outer = make_extension(mid, least_irreducible(mid, 2))
        emb = {"inner": inner, "outer": outer, "composite": compose(inner, outer)}[which]
        for alpha in emb.target.elements():
            cols = [emb.coords_in_basis(emb.target.mul(alpha, b)) for b in emb.basis]
            m = emb.rep(alpha)
            assert np.array_equal(m, np.stack(cols, axis=1))
            m[...] = 0  # a copy: nothing the embedding keeps changes
        assert np.array_equal(emb.rep(1), np.eye(emb.degree, dtype=np.int64))

    @pytest.mark.parametrize("tower", ["gf4_over_gf2", "gf16_over_gf4", "gf16_over_gf2"])
    def test_rep_is_ring_homomorphism(self, tower, gf2, gf4_pair, gf16_pair):
        if tower == "gf4_over_gf2":
            emb = gf4_pair[1]
        elif tower == "gf16_over_gf4":
            emb = gf16_pair[1]
        else:
            emb = compose(gf4_pair[1], gf16_pair[1])
        field, src = emb.target, emb.source
        reps = np.stack([emb.rep(a) for a in field.elements()])
        for a in field.elements():
            for b in field.elements():
                ab = field.mul(a, b)
                prod = src.arr_matmul(reps[a], reps[b])
                assert np.array_equal(prod, reps[ab])
                s = field.add(a, b)
                assert np.array_equal(src.arr_add(reps[a], reps[b]), reps[s])

    def test_rep_invertible_iff_nonzero(self, gf16_pair):
        _, emb = gf16_pair
        from flowent.fields import _prime_rank

        for a in emb.target.elements():
            m = emb.rep(a)
            # rank over GF(4) via flat prime coordinates of a full sweep:
            # invertibility of rep(a) is equivalent to a != 0
            flat = emb.source.coords_array(m).reshape(m.shape[0], -1)
            full = _prime_rank(flat, emb.source.p) == m.shape[0]
            # a quick determinant-free check: rep(a) @ rep(a^-1) == I
            if a != 0:
                prod = emb.source.arr_matmul(m, emb.rep(emb.target.inv(a)))
                assert np.array_equal(prod, np.eye(m.shape[0], dtype=np.int64))
            else:
                assert not m.any()
                assert not full


class TestIrreducibles:
    def test_least_irreducible_gf2_deg2(self, gf2):
        assert least_irreducible(gf2, 2) == (1, 1, 1)

    def test_least_irreducible_gf2_deg3(self, gf2):
        # constant-first lex order: x^3 + x^2 + 1 precedes x^3 + x + 1
        assert least_irreducible(gf2, 3) == (1, 0, 1, 1)
        # oracle: a cubic over GF(2) is irreducible iff it has no root
        for coeffs in [(1, 0, 1, 1), (1, 1, 0, 1)]:
            for x in gf2.elements():
                val = (coeffs[0] + coeffs[1] * x + coeffs[2] * x * x + coeffs[3] * x**3) % 2
                assert val != 0
            assert _poly_is_irreducible(gf2, coeffs)
        assert not _poly_is_irreducible(gf2, (0, 0, 0, 1))

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_least_irreducible_matches_full_scan(self, q):
        base = make_prime_field(2 if q == 4 else q)
        field = base if q == base.p else make_extension(base, least_irreducible(base, 2))[0]
        for degree in range(1, 7):
            full = next(
                cand
                for lower in itertools.product(field.elements(), repeat=degree)
                if _poly_is_irreducible(field, cand := tuple(lower) + (1,))
            )
            assert least_irreducible(field, degree) == full, (q, degree)

    def test_least_irreducible_over_gf4(self, gf4):
        coeffs = least_irreducible(gf4, 2)
        ext, emb = make_extension(gf4, coeffs)
        assert ext.q == 16


class TestDescriptors:
    def test_roundtrip_prime(self, gf2):
        assert field_from_descriptor(gf2.descriptor) == gf2

    def test_roundtrip_tower(self, gf16):
        rebuilt = field_from_descriptor(gf16.descriptor)
        assert rebuilt == gf16

    def test_tower_embeddings(self, gf16):
        tower = tower_from_descriptor(gf16.descriptor)
        assert [f.q for f in tower.fields] == [2, 4, 16]
        e = tower.embedding(0, 2)
        assert e.degree == 4
        assert e.source.q == 2 and e.target.q == 16

    def test_tower_embedding_composes_only_its_steps(self, gf16):
        # a one-step span is the step itself, an empty one the identity,
        # and a longer one the composite of its steps, with no identity
        # embedding built and composed in
        tower = tower_from_descriptor(gf16.descriptor)
        for i, step in enumerate(tower.steps):
            assert tower.embedding(i, i + 1) is step
        for i, field in enumerate(tower.fields):
            assert tower.embedding(i, i) == identity_embedding(field)
        assert tower.embedding(0, 2) == compose(tower.steps[0], tower.steps[1])

    def test_integer_coefficients_accepted(self):
        tower = tower_from_descriptor({"p": 2, "tower": [[1, 1, 1]]})
        assert tower.top.q == 4


def _unshared_tower(desc):
    """The tower ``desc`` names, built step by step with nothing shared."""
    fields = [make_prime_field(desc["p"])]
    for coeffs in desc.get("tower", []):
        fields.append(make_extension(fields[-1], modulus_codes(fields[-1], coeffs))[0])
    return fields


class TestSharedTowers:
    """``tower_from_descriptor`` builds each tower once per process and
    shares it; each field's descriptor is a new copy on every read."""

    def test_equal_descriptors_share_one_tower(self, gf16):
        desc = gf16.descriptor
        tower = tower_from_descriptor(desc)
        assert tower_from_descriptor(gf16.descriptor) is tower
        assert tower_from_descriptor(json.loads(json.dumps(desc))) is tower
        assert field_from_descriptor(desc) is tower.top

    def test_extension_shares_its_base_tower(self, gf16):
        base = tower_from_descriptor(gf16.descriptor)
        desc = gf16.descriptor
        desc["tower"].append([list(gf16.coords(c)) for c in least_irreducible(gf16, 2)])
        ext = tower_from_descriptor(desc)
        assert ext.fields[:-1] == base.fields
        assert all(a is b for a, b in zip(ext.fields, base.fields))
        assert ext.steps[:-1] == base.steps and ext.top.q == 256

    @pytest.mark.parametrize(
        "forms",
        [
            ({"p": 2}, {"p": 2, "tower": []}),
            ({"p": 2, "tower": [[1, 1, 1]]}, {"p": 2, "tower": [[[1], [1], [1]]]}, {"p": 2, "tower": [[3, -1, 1]]}),
            ({"p": 3, "tower": [[2, 2, 1], [[0, 1], [0], [1]]]}, {"p": 3, "tower": [[[2], [2, 0], [1]], [[0, 1], [0, 0], [1]]]}),
            ({"p": 2, "tower": [[1, 1, 1]], "label": "x"}, {"p": np.int64(2), "tower": [[np.int64(1), 1, 1]]}),
        ],
    )
    def test_each_form_keeps_its_own_descriptor(self, forms):
        for desc in forms:
            want = _unshared_tower(desc)
            for _ in range(2):
                tower = tower_from_descriptor(desc)
                assert list(tower.fields) == want
                assert [f.descriptor for f in tower.fields] == [f.descriptor for f in want]

    @pytest.mark.parametrize(
        "desc",
        [
            {"p": 4},
            {"p": True},
            {"p": 2.0},
            {"p": 2, "tower": [[1, 0, 1]]},
            {"p": 2, "tower": [[1.0, 1, 1]]},
            {"p": 2, "tower": [[True, 1, 1], [1, 0, 1]]},
            {"p": 2, "tower": [["1", 1, 1]]},
            {"p": 2, "tower": [[[1, 1], 1, 1]]},
            {"p": 2, "tower": [(1, 1, 1)]},
            {"p": 2, "tower": [[1, 1, 1], [[1], [1]]]},
        ],
    )
    def test_invalid_descriptors_raise_on_every_call(self, desc):
        tower_from_descriptor({"p": 2, "tower": [[1, 1, 1]]})
        for _ in range(2):
            with pytest.raises((ValueError, FlowentError)):
                tower_from_descriptor(desc)

    def test_monkeypatched_internals_run_uncached(self, gf4, monkeypatch):
        """A shared tower does not stand in for ``make_extension``: with the
        generator search patched to fail, extending GF(4) raises although
        GF(16) over it is shared already."""
        from flowent import fields

        modulus = least_irreducible(gf4, 2)
        desc = gf4.descriptor
        desc["tower"].append([list(gf4.coords(c)) for c in modulus])
        tower_from_descriptor(desc)
        monkeypatch.setattr(fields, "_prime_rank", lambda a, p: 0)
        with pytest.raises(Reducible):
            make_extension(gf4, modulus)

    def test_descriptor_reads_are_copies(self, gf16):
        tower = tower_from_descriptor(gf16.descriptor)
        before = tower.top.descriptor
        edited = tower.top.descriptor
        edited["tower"][0].append([1])
        edited["tower"].append([])
        edited["p"] = 3
        assert tower.top.descriptor == before == gf16.descriptor
        assert tower.fields[1].descriptor == {"p": 2, "tower": before["tower"][:1]}


# Runs the block product's float64 exactness guard one past its bound of
# ``inner * d * (p-1)^2`` over GF(65521) and over GF(251^2), on broadcast
# zero operands that must not be restricted, and assembles a flow from a
# window one coordinate past its trusted rows.  Then checks that the packed
# odd-characteristic rank tracker, which is exact on integer lanes, stays
# exact at the largest prime.  Prints one line per check.
_GUARD_SCRIPT = """
import numpy as np
from flowent.entropy import _FlagStackOdd, _pack_lanes
from flowent.errors import TooLarge, WindowTooSmall
from flowent.fields import _prime_rank, least_irreducible, make_extension, make_prime_field
from flowent.model import SpaceShape, _flow_from_window


def product(field):
    inner = (1 << 53) // (field.d * (field.p - 1) ** 2) + 1
    zeros = np.broadcast_to(np.int64(0), (inner, 1))
    return lambda: field.matmul_prepared(zeros.T, field.prepare_right(zeros))


p = 65521
field = make_prime_field(p)
gf251 = make_prime_field(251)
gf2 = make_prime_field(2)
checks = {
    "matmul": (TooLarge, product(field)),
    "matmul-extension": (TooLarge, product(make_extension(gf251, least_irreducible(gf251, 2))[0])),
    "window": (WindowTooSmall, lambda: _flow_from_window(
        SpaceShape(gf2, 0), [{1: 1}], 3, np.zeros((4, 4), dtype=np.int64), 4, "w"
    )),
}
for name, (error, call) in checks.items():
    try:
        call()
    except error:
        print(name, "raised")
    else:
        print(name, "passed")

# rows full of p - 1, with 1 on a diagonal, and combinations of them with
# coefficients p - 1: the packed tracker's lane sums reach 2(p - 1) < 2^b,
# in b = 17 bit lanes here, and the combinations are found dependent only
# when every step is exact
bounds = [2, 4, 6]
stack = _FlagStackOdd(field, bounds)
inserted, got, want = [], [], []
for width in (12, 16):
    rows = np.full((bounds[-1], width), p - 1, dtype=np.int64)
    rows[np.arange(4), np.arange(4) + width - 12] = 1
    rows[4] = (p - 1) * rows[:4].sum(axis=0) % p
    rows[5] = ((p - 1) * rows[0] + rows[3]) % p
    stack.insert(_pack_lanes(rows, stack.lane))
    inserted.append(np.pad(rows, ((0, 0), (0, 16 - width))))
    got.append(stack.ranks)
    want.append([_prime_rank(np.concatenate([r[:bound] for r in inserted]), p) for bound in bounds])
print("tracker", "exact" if got == want else f"ranks {got} != {want}")
"""


class TestFloatExactness:
    def test_bound(self):
        check_float_exact(2**53 - 1, "largest exact value")
        with pytest.raises(TooLarge):
            check_float_exact(2**53, "first inexact value")

    def test_guards_raise_under_optimize(self, run_python):
        """The guards are typed errors, not asserts that ``python -O``
        strips, and the packed rank tracker stays exact there at the
        largest prime."""
        out = run_python("-O", "-c", _GUARD_SCRIPT)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == [
            "matmul raised",
            "matmul-extension raised",
            "window raised",
            "tracker exact",
        ]


def _product_fields():
    gf2, gf3, gf5, gf251 = (make_prime_field(p) for p in (2, 3, 5, 251))
    return [
        make_extension(gf2, least_irreducible(gf2, 2))[0],
        gf5,
        make_extension(gf3, least_irreducible(gf3, 2))[0],
        make_extension(gf2, least_irreducible(gf2, 4))[0],
        make_extension(gf5, least_irreducible(gf5, 2))[0],
        make_extension(gf2, least_irreducible(gf2, 8))[0],
        make_extension(gf251, least_irreducible(gf251, 2))[0],
    ]


class TestProducts:
    """``arr_matmul``, one float64 product on the restricted right operand,
    against scalar products."""

    @pytest.mark.parametrize("field", _product_fields(), ids=repr)
    def test_chunked_products(self, field):
        """``arr_matmul`` against a scalar triple loop of ``add`` and ``mul``,
        on a dense left operand and on one with zero columns."""
        rng = np.random.default_rng(field.q)
        dense = field.random_codes(rng, (5, 30))
        sparse = dense.copy()
        sparse[:, rng.random(30) < 0.3] = 0
        assert not sparse.any(axis=0).all()
        b = field.random_codes(rng, (30, 17))
        for a in (dense, sparse):
            assert np.array_equal(field.arr_matmul(a, b), _scalar_matmul(field, a, b))

    def test_packed_sums_unpack_before_carry(self):
        """Over GF(3^10) a right operand whose digits are all 2, against
        left rows of ones and random rows: the digit sums of 100 inner
        indices reach up to 100 * 10 * 4 before they are read mod 3."""
        gf3 = make_prime_field(3)
        field = make_extension(gf3, least_irreducible(gf3, 10))[0]
        a = np.ones((4, 100), dtype=np.int64)
        a[2:] = field.random_codes(np.random.default_rng(0), (2, 100))
        b = np.full((100, 3), field.q - 1, dtype=np.int64)
        want = _scalar_matmul(field, a, b)
        assert (want[:2] == field.q - 1).all()
        assert np.array_equal(field.arr_matmul(a, b), want)


def _scalar_matmul(field, a, b):
    """The product of two code arrays, one scalar ``add`` and ``mul`` at a time."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for i, k in itertools.product(range(a.shape[0]), range(b.shape[1])):
        acc = field.zero
        for j in range(a.shape[1]):
            acc = field.add(acc, field.mul(int(a[i, j]), int(b[j, k])))
        out[i, k] = acc
    return out


class TestEmbeddingTable:
    """``apply_array``, the digit map ``matrix`` on code arrays, agrees
    with ``apply`` on every source code and with ``embed_digits``."""

    @pytest.mark.parametrize("tower", ["2<=4", "4<=16", "3<=9", "2<=65536"])
    def test_table_matches_digit_route(self, tower, gf2, gf3, gf4_pair, gf16_pair):
        emb = {
            "2<=4": lambda: gf4_pair[1],
            "4<=16": lambda: gf16_pair[1],
            "3<=9": lambda: make_extension(gf3, least_irreducible(gf3, 2))[1],
            "2<=65536": lambda: make_extension(gf2, least_irreducible(gf2, 16))[1],
        }[tower]()
        codes = np.arange(emb.source.q, dtype=np.int64)
        table = emb.apply_array(codes)
        assert table.tolist() == [emb.apply(int(a)) for a in codes]
        grid = np.random.default_rng(0).integers(0, emb.source.q, (6, 11))
        assert np.array_equal(emb.apply_array(grid), table[grid])
        want = digit_rows(emb.target, table[grid])
        assert np.array_equal(emb.embed_digits(digit_rows(emb.source, grid)), want)


def _digit_map_towers(gf2, gf3, gf4_pair, gf16_pair):
    e_24, e_416 = gf4_pair[1], gf16_pair[1]
    return {
        "2<=4": e_24,
        "4<=16": e_416,
        "2<=16": compose(e_24, e_416),
        "3<=9": make_extension(gf3, least_irreducible(gf3, 2))[1],
        "3<=27": make_extension(gf3, least_irreducible(gf3, 3))[1],
    }


class TestDigitMaps:
    """``embed_digits`` and ``expand_digits`` are ``entry_embed`` and
    ``block_expand`` on digit rows, in the rows' own dtype."""

    @pytest.mark.parametrize(
        "tower, dtype",
        [(t, dt) for t in ("2<=4", "4<=16", "2<=16") for dt in (np.uint8, np.int64)]
        + [("3<=9", np.int64), ("3<=27", np.int64)],
    )
    @pytest.mark.parametrize("shape", [(5, 7), (0, 4), (3, 0), (1, 1)])
    def test_maps_match_the_code_routes(self, tower, dtype, shape, gf2, gf3, gf4_pair, gf16_pair):
        emb = _digit_map_towers(gf2, gf3, gf4_pair, gf16_pair)[tower]
        rng = np.random.default_rng(sum(shape) * 7 + emb.target.q)
        low = random_matrix(emb.source, rng, *shape)
        high = random_matrix(emb.target, rng, *shape)
        embedded = emb.embed_digits(digit_rows(emb.source, low.data).astype(dtype))
        expanded = emb.expand_digits(digit_rows(emb.target, high.data).astype(dtype))
        assert embedded.dtype == expanded.dtype == dtype
        assert np.array_equal(code_rows(emb.target, embedded), entry_embed(low, emb).data)
        assert np.array_equal(code_rows(emb.source, expanded), block_expand(high, emb).data)
        assert embedded.shape == (shape[0], shape[1] * emb.target.d)
        assert expanded.shape == (shape[0] * emb.degree, shape[1] * emb.target.d)

    @pytest.mark.parametrize(
        "p, low, high", [(2, 1, 8), (2, 4, 8), (2, 1, 4), (2, 2, 4), (3, 1, 4), (3, 2, 4), (3, 1, 3), (5, 1, 3)]
    )
    def test_expand_matches_rep_on_every_code(self, p, low, high):
        """Along GF(p^low) <= GF(p^high), every code of the target, as a
        one-column digit row, expands to the digits of its ``rep``."""
        base = make_prime_field(p)
        src = base if low == 1 else make_extension(base, least_irreducible(base, low))[0]
        emb = make_extension(src, least_irreducible(src, high // low))[1]
        tgt, deg = emb.target, emb.degree
        assert tgt.q <= 256
        codes = np.arange(tgt.q, dtype=np.int64)[:, None]
        out = code_rows(emb.source, emb.expand_digits(digit_rows(tgt, codes)))
        reps = out.reshape(tgt.q, deg, deg)
        for a in range(tgt.q):
            assert np.array_equal(reps[a], emb.rep(a))


# Restricts the Bernoulli flow on GF(2^16) to GF(2), as ``example
# entropy-n --n 16`` does, and prints its peak resident set size in MB
# (VmHWM, as in _BUILD_SCRIPT), then whether ``rep`` and ``expand_digits``
# agree with the definition of ``rep`` on 64 sampled codes:
# coords(alpha * beta) = rep(alpha) @ coords(beta).
_RES_FLOW_SCRIPT = """
import re
import numpy as np
from flowent.fields import least_irreducible, make_extension, make_prime_field
from flowent.functors import res_flow
from flowent.model import make_bernoulli

gf2 = make_prime_field(2)
field, emb = make_extension(gf2, least_irreducible(gf2, 16))
flow = res_flow(emb, make_bernoulli(field, 1))
with open("/proc/self/status") as fh:
    print(int(re.search(r"VmHWM:\\s+(\\d+) kB", fh.read()).group(1)) / 1024)
rng = np.random.default_rng(16)
ok = all(dict(flow.endo.phase(r)) == {16: 1} for r in range(16))
alphas = [0, 1, field.q - 1] + rng.integers(0, field.q, 61).tolist()
expanded = emb.expand_digits(field.coords_array(np.array([alphas])).reshape(1, -1)).reshape(16, 64, 16)
for i, alpha in enumerate(alphas):
    rep = emb.rep(alpha)
    ok &= np.array_equal(expanded[:, i, :], rep)
    beta = int(rng.integers(0, field.q))
    lhs = emb.coords_in_basis(field.mul(alpha, beta))
    ok &= np.array_equal(lhs, rep @ emb.coords_in_basis(beta) % 2)
print(bool(ok))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux /proc")
def test_res_flow_memory(run_python):
    """Restriction along GF(2) <= GF(2^16) builds no table of the 2^16
    regular representations: a fresh process stays under 100 MB."""
    out = run_python("-c", _RES_FLOW_SCRIPT)
    assert out.returncode == 0, out.stderr
    peak, ok = out.stdout.split()
    assert float(peak) < 100
    assert ok == "True"


def test_no_primitive_element_raises_typed_error(gf4, monkeypatch):
    """The search for a field generator ends in a typed error, not an
    assert that ``python -O`` strips, if no candidate were found."""
    from flowent import fields

    modulus = least_irreducible(gf4, 2)
    monkeypatch.setattr(fields, "_prime_rank", lambda a, p: 0)
    with pytest.raises(Reducible):
        make_extension(gf4, modulus)
