"""Exact matrices over a finite field, and canonical subspaces.

Matrices hold numpy arrays of element codes and are immutable after
construction.  The entropy engine and verify's identity checks work on
rank trackers over blocks of constraint rows, whose kernels are the
cotrajectories, and never build a subspace or a reduced form.
``Subspace`` and ``kernel`` remain as the tests' independent reference
for those checks, and ``bench/tracing.py`` times them by name.  A
subspace carries its reduced row-echelon basis, so equal subspaces have
bit-identical representations and equality needs no tolerances.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, FieldMismatch
from .fields import FieldEmbedding, FiniteField, _inverse_array, _rref_array


class Matrix:
    """A dense rows x cols matrix of field-element codes."""

    __slots__ = ("field", "data")

    def __init__(self, field: FiniteField, data):
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.int64))
        if arr.ndim != 2:
            raise DimensionMismatch(f"matrix data must be 2-d, got shape {arr.shape}")
        if arr.size and (arr.min() < 0 or arr.max() >= field.q):
            raise ValueError("entries are not valid field codes")
        arr.setflags(write=False)
        self.field = field
        self.data = arr

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(cls, field: FiniteField, rows: int, cols: int) -> "Matrix":
        return cls(field, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def eye(cls, field: FiniteField, n: int) -> "Matrix":
        return cls(field, np.eye(n, dtype=np.int64))

    # -- shape ----------------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    # -- algebra ----------------------------------------------------------------

    def _check(self, other: "Matrix") -> None:
        if self.field != other.field:
            raise FieldMismatch("matrices live over different fields")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"{self.shape} + {other.shape}")
        return Matrix(self.field, self.field.arr_add(self.data, other.data))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"{self.shape} - {other.shape}")
        return Matrix(self.field, self.field.arr_sub(self.data, other.data))

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, self.field.arr_neg(self.data))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.shape} @ {other.shape}")
        return Matrix(self.field, self.field.arr_matmul(self.data, other.data))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and np.array_equal(self.data, other.data)
        )

    def __repr__(self) -> str:
        return f"Matrix({self.field!r}, {self.rows}x{self.cols})"

    def apply(self, vector: np.ndarray) -> np.ndarray:
        """Matrix-vector product on a 1-d code array."""
        vec = np.asarray(vector, dtype=np.int64).reshape(-1, 1)
        return self.field.arr_matmul(self.data, vec)[:, 0]


# ---------------------------------------------------------------------------
# row reduction
# ---------------------------------------------------------------------------


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Canonical reduced row-echelon form and rank."""
    a, pivots = _rref_array(m.field, m.data.copy())
    return Matrix(m.field, a), len(pivots)


def rank(m: Matrix) -> int:
    return rref(m)[1]


def inverse(m: Matrix) -> Matrix:
    """Inverse of a square matrix; raises NotInvertible when it is singular."""
    return Matrix(m.field, _inverse_array(m.field, m.data))


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


class Subspace:
    """A subspace of K^n held by its reduced row-echelon basis.

    The representation is canonical: two subspaces are equal exactly when
    their basis arrays are identical.
    """

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field: FiniteField, ambient: int, basis: Matrix, pivots: Sequence[int]):
        self.field = field
        self.ambient = ambient
        self.basis = basis
        self.pivots = tuple(pivots)

    @classmethod
    def from_rows(cls, field: FiniteField, rows) -> "Subspace":
        if isinstance(rows, Matrix):
            if rows.field != field:
                raise FieldMismatch("row matrix lives over a different field")
            arr = rows.data.copy()
        else:
            arr = np.asarray(rows, dtype=np.int64)
            if arr.ndim == 1:
                arr = arr.reshape(1, -1)
            if arr.size == 0 and arr.ndim != 2:
                arr = arr.reshape(0, 0)
            arr = arr.copy()
        red, pivots = _rref_array(field, arr)
        return cls(field, arr.shape[1], Matrix(field, red[: len(pivots)]), pivots)

    @classmethod
    def zero(cls, field: FiniteField, ambient: int) -> "Subspace":
        return cls(field, ambient, Matrix.zeros(field, 0, ambient), ())

    @property
    def dim(self) -> int:
        return self.basis.rows

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of {self.field!r}^{self.ambient})"

def kernel(m: Matrix) -> Subspace:
    """Canonical basis of {v : M v = 0}."""
    red, pivots = _rref_array(m.field, m.data.copy())
    n = m.cols
    free = [c for c in range(n) if c not in set(pivots)]
    basis = np.zeros((len(free), n), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = m.field.arr_neg(red[: len(pivots)][:, free].T)  # (rank x free).T
    return Subspace.from_rows(m.field, basis)


# ---------------------------------------------------------------------------
# scalar-change maps on matrices
# ---------------------------------------------------------------------------


def block_expand(m: Matrix, e: FieldEmbedding) -> Matrix:
    """Replace each entry over e.target with its multiplication matrix over
    e.source; realizes the same linear map on re-blocked coordinates."""
    if m.field != e.target:
        raise FieldMismatch("matrix is not over the embedding's target field")
    digits = e.target.coords_array(m.data).reshape(m.rows, m.cols * e.target.d)
    out = e.expand_digits(digits).reshape(m.rows * e.degree, m.cols * e.degree, e.source.d)
    return Matrix(e.source, e.source.encode_array(out))


def entry_embed(m: Matrix, e: FieldEmbedding) -> Matrix:
    """Push every entry through the embedding; shape and rank are kept."""
    if m.field != e.source:
        raise FieldMismatch("matrix is not over the embedding's source field")
    return Matrix(e.target, e.apply_array(m.data))


def kronecker(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; realizes the tensor of the two linear maps."""
    if a.field != b.field:
        raise FieldMismatch("operands live over different fields")
    prod = a.field.arr_mul(a.data[:, None, :, None], b.data[None, :, None, :])
    return Matrix(a.field, prod.reshape(a.rows * b.rows, a.cols * b.cols))


# ---------------------------------------------------------------------------
# randomized helpers (deterministic under a seeded generator)
# ---------------------------------------------------------------------------


def random_matrix(field: FiniteField, rng: np.random.Generator, rows: int, cols: int) -> Matrix:
    return Matrix(field, field.random_codes(rng, (rows, cols)))


def random_invertible(field: FiniteField, rng: np.random.Generator, n: int) -> Matrix:
    while True:
        cand = random_matrix(field, rng, n, n)
        if rank(cand) == n:
            return cand
