"""Exact linear algebra: canonical forms, kernels, scalar maps, and the
kernel-built subspace references of the tests."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowent.errors import DimensionMismatch, FieldMismatch, NotInvertible
from flowent import linalg
from flowent.linalg import (
    Matrix,
    Subspace,
    block_expand,
    entry_embed,
    inverse,
    kernel,
    kronecker,
    rank,
    random_invertible,
    random_matrix,
    rref,
)

from conftest import intersect, preimage


def enumerate_vectors(field, n):
    """All q^n coordinate vectors, as an iterator of int64 arrays."""
    for combo in itertools.product(field.elements(), repeat=n):
        yield np.array(combo, dtype=np.int64)


def full(field, n):
    return Subspace.from_rows(field, Matrix.eye(field, n))


def subspace_members(s):
    """Set of tuples in a subspace, by enumerating coefficient combos."""
    field = s.field
    members = set()
    for coeffs in itertools.product(field.elements(), repeat=s.dim):
        vec = np.zeros(s.ambient, dtype=np.int64)
        for c, row in zip(coeffs, s.basis.data):
            vec = field.arr_add(vec, field.arr_mul(np.int64(c), row))
        members.add(tuple(int(v) for v in vec))
    return members


class TestRref:
    def test_identity(self, gf2):
        m = Matrix.eye(gf2, 4)
        r, rk = rref(m)
        assert r == m and rk == 4

    def test_zero(self, gf4):
        m = Matrix.zeros(gf4, 3, 5)
        r, rk = rref(m)
        assert r == m and rk == 0

    def test_gf2_rank_one(self, gf2):
        m = Matrix(gf2, [[1, 1], [1, 1]])
        r, rk = rref(m)
        assert np.array_equal(r.data, [[1, 1], [0, 0]])
        assert rk == 1

    @given(st.integers(0, 200))
    def test_canonical_under_row_mixing(self, seed):
        rng = np.random.default_rng(seed)
        from flowent.fields import make_prime_field

        field = make_prime_field(3)
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        m = random_matrix(field, rng, rows, cols)
        s = Subspace.from_rows(field, m)
        mix = random_invertible(field, rng, rows)
        shuffled = (mix @ m).data[rng.permutation(rows)]
        assert Subspace.from_rows(field, shuffled) == s


class TestKernel:
    def test_identity_kernel_is_zero(self, gf4):
        assert kernel(Matrix.eye(gf4, 3)).dim == 0

    def test_zero_map_kernel_is_full(self, gf2):
        k = kernel(Matrix.zeros(gf2, 3, 3))
        assert k == full(gf2, 3)

    def test_gf2_row_kernel(self, gf2):
        m = Matrix(gf2, [[1, 1, 0]])
        k = kernel(m)
        # oracle: enumerate all 8 vectors
        expected = {tuple(v) for v in enumerate_vectors(gf2, 3) if (v[0] + v[1]) % 2 == 0}
        assert subspace_members(k) == expected
        assert np.array_equal(k.basis.data, [[1, 1, 0], [0, 0, 1]])

    @given(st.integers(0, 100), st.integers(1, 4), st.integers(1, 4))
    def test_kernel_matches_enumeration(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        from flowent.fields import make_prime_field

        field = make_prime_field(2)
        m = random_matrix(field, rng, rows, cols)
        k = kernel(m)
        expected = {
            tuple(int(x) for x in v)
            for v in enumerate_vectors(field, cols)
            if not m.apply(v).any()
        }
        assert subspace_members(k) == expected


class TestPreimage:
    """The reference preimage of ``conftest``, built from ``kernel``."""

    def test_full_target(self, gf4, rng):
        m = random_matrix(gf4, rng, 3, 4)
        assert preimage(m, full(gf4, 3)) == full(gf4, 4)

    def test_identity_pullback(self, gf2, rng):
        m = Matrix.eye(gf2, 3)
        s = Subspace.from_rows(gf2, [[1, 0, 1]])
        assert preimage(m, s) == s

    def test_shift_by_one(self, gf2):
        # M v = (v1, v2, 0); S = {v : v0 = 0}; preimage must be {v : v1 = 0}
        m = Matrix(gf2, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        s = Subspace.from_rows(gf2, [[0, 1, 0], [0, 0, 1]])
        got = preimage(m, s)
        expected = {tuple(v) for v in enumerate_vectors(gf2, 3) if v[1] == 0}
        assert subspace_members(got) == expected

    def test_dimension_mismatch(self, gf2):
        with pytest.raises(DimensionMismatch):
            preimage(Matrix.zeros(gf2, 2, 2), full(gf2, 3))

    @given(st.integers(0, 150))
    @settings(max_examples=60)
    def test_matches_enumeration_and_dim_formula(self, seed):
        rng = np.random.default_rng(seed)
        from flowent.fields import make_prime_field

        field = make_prime_field(2)
        n = int(rng.integers(1, 6))
        rows = int(rng.integers(1, 5))
        m = random_matrix(field, rng, rows, n)
        s = Subspace.from_rows(field, random_matrix(field, rng, int(rng.integers(0, rows + 1)), rows))
        got = preimage(m, s)
        in_s = subspace_members(s)
        members = {
            tuple(int(x) for x in v)
            for v in enumerate_vectors(field, n)
            if tuple(int(x) for x in m.apply(v)) in in_s
        }
        assert subspace_members(got) == members
        lhs = got.dim
        image = Subspace.from_rows(field, m.data.T.copy())
        rhs = kernel(m).dim + intersect(s, image).dim
        assert lhs == rhs


class TestIntersect:
    """The reference intersection of ``conftest``, built from ``kernel``."""

    def test_idempotent(self, gf4, rng):
        s = Subspace.from_rows(gf4, random_matrix(gf4, rng, 2, 4))
        assert intersect(s, s) == s

    def test_with_full(self, gf2, rng):
        s = Subspace.from_rows(gf2, random_matrix(gf2, rng, 2, 4))
        assert intersect(s, full(gf2, 4)) == s

    def test_planes_in_gf2_cubed(self, gf2):
        s = Subspace.from_rows(gf2, [[1, 0, 0], [0, 1, 0]])
        t = Subspace.from_rows(gf2, [[0, 1, 0], [0, 0, 1]])
        got = intersect(s, t)
        assert subspace_members(got) == {(0, 0, 0), (0, 1, 0)}

    @given(st.integers(0, 100))
    def test_dim_inequality(self, seed):
        rng = np.random.default_rng(seed)
        from flowent.fields import make_prime_field

        field = make_prime_field(3)
        n = int(rng.integers(1, 5))
        s = Subspace.from_rows(field, random_matrix(field, rng, int(rng.integers(0, n + 1)), n))
        t = Subspace.from_rows(field, random_matrix(field, rng, int(rng.integers(0, n + 1)), n))
        got = intersect(s, t)
        assert s.dim + t.dim - got.dim <= n
        members = subspace_members(got)
        assert members <= subspace_members(s) and members <= subspace_members(t)


class TestBlockExpand:
    def test_identity_expands_to_identity(self, gf4_pair):
        gf4, emb = gf4_pair
        m = Matrix.eye(gf4, 3)
        assert block_expand(m, emb) == Matrix.eye(emb.source, 6)

    def test_generator_entry(self, gf4_pair):
        gf4, emb = gf4_pair
        m = Matrix(gf4, [[gf4.generator]])
        assert np.array_equal(block_expand(m, emb).data, [[0, 1], [1, 1]])

    def test_zero(self, gf4_pair):
        gf4, emb = gf4_pair
        assert not block_expand(Matrix.zeros(gf4, 2, 3), emb).data.any()

    def test_functorial(self, gf4_pair, rng):
        gf4, emb = gf4_pair
        for _ in range(25):
            a = random_matrix(gf4, rng, 3, 3)
            b = random_matrix(gf4, rng, 3, 3)
            assert block_expand(a @ b, emb) == block_expand(a, emb) @ block_expand(b, emb)
            assert block_expand(a + b, emb) == block_expand(a, emb) + block_expand(b, emb)

    def test_dimension_scaling(self, gf4_pair, rng):
        gf4, emb = gf4_pair
        for _ in range(10):
            s = Subspace.from_rows(gf4, random_matrix(gf4, rng, 2, 4))
            expanded = Subspace.from_rows(emb.source, block_expand(s.basis, emb))
            assert expanded.dim == emb.degree * s.dim

    def test_field_mismatch(self, gf2, gf4_pair):
        _, emb = gf4_pair
        with pytest.raises(FieldMismatch):
            block_expand(Matrix.eye(gf2, 2), emb)


class TestEntryEmbed:
    def test_identity(self, gf4_pair):
        gf2_to_gf4 = gf4_pair[1]
        m = Matrix.eye(gf2_to_gf4.source, 3)
        assert entry_embed(m, gf2_to_gf4) == Matrix.eye(gf2_to_gf4.target, 3)

    def test_pattern_and_rank_preserved(self, gf2, gf4_pair):
        _, emb = gf4_pair
        m = Matrix(gf2, [[1, 1], [0, 1]])
        out = entry_embed(m, emb)
        assert np.array_equal(out.data, m.data)
        assert rank(out) == 2

    def test_rank_one(self, gf2, gf4_pair, rng):
        _, emb = gf4_pair
        col = random_matrix(gf2, rng, 3, 1)
        row = Matrix(gf2, [[1, 0, 1, 1]])
        m = col @ row
        assert rank(m) <= 1
        assert rank(entry_embed(m, emb)) == rank(m)

    def test_pivot_structure_preserved(self, gf4_pair, rng):
        _, emb = gf4_pair
        for _ in range(10):
            m = random_matrix(emb.source, rng, 3, 5)
            r, _ = rref(m)
            s_src = Subspace.from_rows(emb.source, m)
            s_tgt = Subspace.from_rows(emb.target, entry_embed(m, emb))
            assert s_src.pivots == s_tgt.pivots
            assert np.array_equal(s_src.basis.data, s_tgt.basis.data)


class TestKronecker:
    def test_identities(self, gf4):
        assert kronecker(Matrix.eye(gf4, 2), Matrix.eye(gf4, 3)) == Matrix.eye(gf4, 6)

    def test_zero_absorbs(self, gf2, rng):
        a = random_matrix(gf2, rng, 2, 2)
        assert not kronecker(a, Matrix.zeros(gf2, 2, 2)).data.any()

    def test_rank_multiplicative(self, gf2, rng):
        for _ in range(20):
            a = random_matrix(gf2, rng, 3, 3)
            b = random_matrix(gf2, rng, 3, 3)
            assert rank(kronecker(a, b)) == rank(a) * rank(b)

    def test_mixed_product_law(self, gf4, rng):
        a = random_matrix(gf4, rng, 2, 3)
        a2 = random_matrix(gf4, rng, 3, 2)
        b = random_matrix(gf4, rng, 2, 2)
        b2 = random_matrix(gf4, rng, 2, 3)
        lhs = kronecker(a @ a2, b @ b2)
        rhs = kronecker(a, b) @ kronecker(a2, b2)
        assert lhs == rhs


class TestInverse:
    def test_roundtrip(self, gf4, rng):
        m = random_invertible(gf4, rng, 4)
        assert m @ inverse(m) == Matrix.eye(gf4, 4)

    def test_singular(self, gf2):
        with pytest.raises(NotInvertible):
            inverse(Matrix.zeros(gf2, 2, 2))
