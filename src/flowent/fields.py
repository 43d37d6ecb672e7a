"""Exact arithmetic for finite fields and towers of field embeddings.

Every field is presented over its prime field: an element of GF(p^d) is a
length-d coefficient vector over GF(p), packed into an integer code in
``range(p**d)`` whose base-p digits run from the constant term upward.
Element products in a proper extension look up O(q) int32 tables of the
powers and logarithms of a generator.  A matrix product over any field is
one float64 product on the digit rows, digit t of column j in column
j*d + t, with the right operand restricted to GF(p) by ``restrict``: each
entry becomes its d x d regular representation, and every sum stays an
integer below 2^53, so it is exact.  The entropy engine's blocks are
integers, one per row of digits packed in lanes, from the window to the
rank trackers; only verify's maps of constraint rows through embeddings
unpack them into digit rows (``entropy._mapped_rows``).

Fields and embeddings build all their state in the constructor (an
embedding, two small GF(p) matrices that map digit rows) and are immutable
after it: nothing is computed on first use, so concurrent use is safe.
"""

from __future__ import annotations

import functools
import itertools
import json
from typing import Iterable, Sequence

import numpy as np

from .errors import Mismatch, NotInvertible, NotPrime, Reducible, TooLarge

# Desk-scale cap on prime characteristics.
_PRIME_CAP = 1 << 16
# Desk-scale cap on field orders: irreducible scans and the tables grow with q.
_ORDER_CAP = 1 << 16
# float64 holds every integer of magnitude below this exactly.
_FLOAT_EXACT = 1 << 53


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


# ---------------------------------------------------------------------------
# row reduction
# ---------------------------------------------------------------------------


def _rref_array(field: FiniteField, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """In-place reduced row echelon form of an int64 code array over
    ``field``; returns (array, pivot columns).

    Only the columns that are nonzero in the input are visited: row
    operations never make a zero column nonzero.  It serves the set-up of
    fields and embeddings (``_prime_rank``, ``_inverse_array``), ``linalg``
    and the tests' references.  The entropy engine and verify's identity
    checks never call it: they run on the rank trackers.
    """
    rows = a.shape[0]
    pivots: list[int] = []
    r = 0
    for c in np.flatnonzero(a.any(axis=0)):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        if k != r:
            a[[r, k]] = a[[k, r]]
        pv = int(a[r, c])
        if pv != 1:
            a[r] = field.arr_mul(np.int64(field.inv(pv)), a[r])
        col = a[:, c].copy()
        col[r] = 0
        hit = np.flatnonzero(col)
        if hit.size:
            a[hit] = field.arr_sub(a[hit], field.arr_mul(col[hit, None], a[r][None, :]))
        pivots.append(int(c))
        r += 1
    return a, pivots


def check_float_exact(largest: int, what: str) -> None:
    """Raise TooLarge unless integers up to ``largest`` in magnitude, the
    largest intermediate value of a float64 product, are exact in float64."""
    if largest >= _FLOAT_EXACT:
        raise TooLarge(f"{what}: values up to {largest} are not exact in float64")


def check_order(q: int, what: str, degree: int = 1) -> None:
    """Raise TooLarge when a field of order ``q**degree`` exceeds the
    desk-scale cap.  As q >= 2, a degree of the cap's bit length or more
    exceeds it, and the power is not built."""
    if degree >= _ORDER_CAP.bit_length() or q**degree > _ORDER_CAP:
        raise TooLarge(f"{what} exceeds the order cap {_ORDER_CAP}")


def _prime_rank(a: np.ndarray, p: int) -> int:
    return len(_rref_array(FiniteField(p, (0, 1)), np.asarray(a, dtype=np.int64) % p)[1])


def _inverse_array(field: FiniteField, a: np.ndarray) -> np.ndarray:
    """Inverse of a square code array over ``field``, read off the reduced
    row-echelon form of ``[a | I]``; raises NotInvertible when ``a`` is
    not square or singular.  ``a`` is not modified."""
    a = np.asarray(a, dtype=np.int64)
    n = a.shape[0]
    if a.shape != (n, n):
        raise NotInvertible("only square matrices can be inverted")
    red, pivots = _rref_array(field, np.concatenate([a, np.eye(n, dtype=np.int64)], axis=1))
    if pivots[:n] != list(range(n)):
        raise NotInvertible("matrix is singular")
    return red[:, n:]


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


class FiniteField:
    """A finite field GF(p^d) presented as GF(p)[x]/(modulus).

    Two instances compare equal iff they share characteristic and modulus;
    their element codes are then interchangeable.
    """

    def __init__(self, p: int, modulus: Sequence[int], descriptor: dict | None = None):
        if p >= _PRIME_CAP:
            raise ValueError(f"characteristic {p} exceeds the desk-scale cap {_PRIME_CAP}")
        if not _is_prime(p):
            raise NotPrime(f"{p} is not prime")
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) < 2 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree >= 1")
        self.p = p
        self.d = len(modulus) - 1
        check_order(p, f"GF({p}^{self.d})", self.d)
        self.q = p**self.d
        self.modulus = modulus
        self.zero = 0
        self.one = 1
        # x itself when the field is a proper extension, else 1
        self.generator = p if self.d > 1 else 1
        # JSON text, or None for {"p": p, "tower": []}: fields are shared
        # (see ``tower_from_descriptor``), so every read of ``descriptor``
        # gets its own copy
        self._descriptor = json.dumps(descriptor) if descriptor is not None else None
        if self.d > 1:
            if not _poly_is_irreducible(FiniteField(p, (0, 1)), modulus):
                raise Reducible(f"modulus {modulus} is reducible over GF({p})")
            ppow = p ** np.arange(self.d, dtype=np.int64)
            self._ppow = ppow
            codes = np.arange(self.q, dtype=np.int64)
            self._digits = (codes[:, None] // ppow[None, :]) % p
            self._exp, self._log = self._log_tables()

    @property
    def descriptor(self) -> dict:
        """The JSON descriptor that ``tower_from_descriptor`` reads this
        field from: a new dict on every read, so no caller can change
        another's."""
        if self._descriptor is None:
            return {"p": self.p, "tower": []}
        return json.loads(self._descriptor)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FiniteField)
            and self.p == other.p
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.q})"

    # -- element coding ----------------------------------------------------

    def coords(self, a: int) -> tuple[int, ...]:
        """Prime-field coefficient vector of ``a``, constant term first."""
        if self.d == 1:
            return (int(a),)
        return tuple(int(v) for v in self._digits[a])

    def from_coords(self, coeffs: Iterable[int]) -> int:
        """Code of the element with these prime-field coefficients, constant
        term first.  Each is an integer, read mod p; anything else raises
        ValueError rather than being truncated."""
        if isinstance(coeffs, (str, bytes)) or not isinstance(coeffs, Iterable):
            raise ValueError(f"element {coeffs!r} is not a list of prime-field coefficients")
        coeffs = list(coeffs)
        if not all(isinstance(c, (int, np.integer)) for c in coeffs):
            raise ValueError(f"coefficients {coeffs!r} must be integers")
        coeffs = [int(c) % self.p for c in coeffs]
        if len(coeffs) > self.d:
            if any(coeffs[self.d :]):
                raise ValueError("coefficient vector longer than field degree")
            coeffs = coeffs[: self.d]
        code = 0
        for i, c in enumerate(coeffs):
            code += c * self.p**i
        return code

    def coords_array(self, a: np.ndarray) -> np.ndarray:
        """Digits of an array of codes; shape ``a.shape + (d,)``."""
        a = np.asarray(a, dtype=np.int64)
        if self.d == 1:
            return a[..., None]
        return self._digits[a]

    def encode_array(self, digits: np.ndarray) -> np.ndarray:
        digits = np.asarray(digits, dtype=np.int64) % self.p
        if self.d == 1:
            return digits[..., 0]
        return digits @ self._ppow

    def elements(self) -> range:
        return range(self.q)

    # -- scalar arithmetic ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.d == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return int(self.encode_array((self._digits[a] + self._digits[b]) % self.p))

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.d == 1:
            return (-a) % self.p
        return int(self.encode_array((-self._digits[a]) % self.p))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.d == 1:
            return (a * b) % self.p
        return self._exp.item(self._log.item(a) + self._log.item(b))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        if self.d == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp.item(self.q - 1 - self._log.item(a))

    def power(self, a: int, k: int) -> int:
        """``a`` to the power ``k >= 0``; ``power(0, 0)`` is 1."""
        if k < 0:
            raise ValueError(f"exponent {k} is negative")
        if self.d == 1:
            return pow(a, k, self.p)
        if a == 0:
            return int(k == 0)
        return self._exp.item(k * self._log.item(a) % (self.q - 1))

    # -- array arithmetic ----------------------------------------------------

    def arr_add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.d == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return self.encode_array(self.coords_array(a) + self.coords_array(b))

    def arr_neg(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        if self.p == 2:
            return a.copy()
        if self.d == 1:
            return (-a) % self.p
        return self.encode_array(-self.coords_array(a))

    def arr_sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.arr_add(a, self.arr_neg(b))

    def arr_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise product with numpy broadcasting."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.d == 1:
            return (a * b) % self.p
        # a gather casts int32 indices to intp slowly; one cast of the sum is faster
        return self._exp[(self._log[a] + self._log[b]).astype(np.intp)].astype(np.int64)

    def restrict(self, rows: np.ndarray) -> np.ndarray:
        """Digit rows over GF(p^d), digit t of column j in column j*d + t,
        restricted to GF(p) in the same dtype: row v becomes the digit rows
        of x^s * v for s < d, which span over GF(p) what v spans over
        GF(p^d), so their GF(p) rank is d times the GF(p^d) rank, and every
        d-th one from the first is a row itself.  Each x^s * v is the one
        before, its digits shifted up one place, plus its top digit times x^d."""
        d, count, width = self.d, rows.shape[0], rows.shape[1]
        x_d = ((-np.asarray(self.modulus[:d])) % self.p).astype(rows.dtype)  # digits of x^d
        out = np.zeros((count, d, width // d, d), dtype=rows.dtype)
        out[:, 0] = rows.reshape(count, width // d, d)
        for s in range(1, d):
            prev, cur = out[:, s - 1], out[:, s]
            cur[..., 1:] = prev[..., :-1]
            cur += prev[..., -1:] * x_d
            cur %= self.p
        return out.reshape(count * d, width)

    def prepare_right(self, b: np.ndarray):
        """A right matmul operand as ``(shape, R(b))``, converted once for
        repeated use: ``R(b)`` is its restriction to GF(p) in float64.

        TooLarge is raised before ``b`` is restricted when the product's
        sums of ``inner * d * (p-1)^2`` could reach 2^53.
        """
        b = np.asarray(b, dtype=np.int64)
        inner = b.shape[0]
        check_float_exact(inner * self.d * (self.p - 1) ** 2, f"inner dimension {inner} over {self!r}")
        digits = self.coords_array(b).reshape(inner, b.shape[1] * self.d)
        return (b.shape, self.restrict(digits).astype(np.float64))

    def matmul_prepared(self, a: np.ndarray, prepared) -> np.ndarray:
        """Exact product against a prepared right operand: one float64 product.

        ``coords(a·b) = coords(a) @ R(b)``, with ``coords(a)`` the
        ``(rows, inner*d)`` digits of ``a``, column j*d + t digit t of
        column j, and row j*d + t of ``R(b)`` ``coords(x^t * b[j])``.
        Proof: ``a[i, j] = sum_t a_ijt x^t``, so ``a[i, j] * b[j, k]`` is
        ``sum_t a_ijt (x^t * b[j, k])`` and its coordinates are that sum of
        the coordinates of ``x^t * b[j, k]``, by GF(p)-linearity of coords.
        Each of the ``inner * d`` terms of an entry is an integer in
        ``[0, (p-1)^2]``, and ``prepare_right`` checked that their sum stays
        below 2^53, so every partial sum is exact in float64 whatever order
        BLAS adds them in, and the digits are read off mod p.  Over a prime
        field, d = 1 and ``R(b)`` is ``b``.
        """
        shape, right = prepared
        a = np.asarray(a, dtype=np.int64)
        rows, inner = a.shape
        if inner != shape[0]:
            raise ValueError(f"matmul shape mismatch {a.shape} @ {shape}")
        digits = self.coords_array(a).reshape(rows, inner * self.d).astype(np.float64)
        return self.encode_array((digits @ right).astype(np.int64).reshape(rows, shape[1], self.d))

    def arr_matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact matrix product of two code arrays."""
        return self.matmul_prepared(a, self.prepare_right(b))

    def random_codes(self, rng: np.random.Generator, shape) -> np.ndarray:
        return rng.integers(0, self.q, size=shape, dtype=np.int64)

    # -- internals -----------------------------------------------------------

    def _log_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """int32 antilog and log tables of the first code g that generates
        the multiplicative group (one does: the group is cyclic).

        ``exp[i]`` is g^i below 2(q-1) and 0 from there to 4(q-1), and
        ``log[0]`` is 2(q-1), so ``exp[log a + log b]`` is a*b for every
        pair, zero included.  Row j of the multiplication matrix of g holds
        the digits of x^j * g, each row the one before shifted up a degree
        and reduced by the modulus.  The powers are built by doubling: the
        digit rows of g^0 .. g^(k-1) times the multiplication matrix of g^k
        are those of g^k .. g^(2k-1).
        """
        d, p, q = self.d, self.p, self.q
        low = np.asarray(self.modulus[:d], dtype=np.int64)  # x^d = -low
        for g in range(p, q):
            step = np.empty((d, d), dtype=np.int64)  # row j: digits of x^j * g
            row = self._digits[g]
            for j in range(d):
                step[j] = row
                row = (np.concatenate(([0], row[:-1])) - row[-1] * low) % p
            rows = np.eye(1, d, dtype=np.int64)
            while len(rows) < q - 1:
                rows = np.concatenate([rows, rows @ step % p])
                step = step @ step % p
            cycle = self.encode_array(rows[: q - 1]).astype(np.int32)
            if np.count_nonzero(cycle == 1) == 1:
                break
        exp = np.zeros(4 * (q - 1) + 1, dtype=np.int32)
        exp[: 2 * (q - 1)] = np.tile(cycle, 2)
        log = np.empty(q, dtype=np.int32)
        log[cycle] = np.arange(q - 1, dtype=np.int32)
        log[0] = 2 * (q - 1)
        return exp, log


# ---------------------------------------------------------------------------
# polynomial helpers over an arbitrary FiniteField (coefficient lists of codes)
# ---------------------------------------------------------------------------


def _poly_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_mul(field: FiniteField, f: Sequence[int], g: Sequence[int]) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] = field.add(out[i + j], field.mul(a, b))
    return _poly_trim(out)


def _poly_rem(field: FiniteField, f: Sequence[int], g: Sequence[int]) -> list[int]:
    f = _poly_trim(list(f))
    g = _poly_trim(list(g))
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    lead_inv = field.inv(g[-1])
    while len(f) >= len(g):
        coeff = field.mul(f[-1], lead_inv)
        shift = len(f) - len(g)
        for i, b in enumerate(g):
            f[shift + i] = field.sub(f[shift + i], field.mul(coeff, b))
        f = _poly_trim(f)
    return f


def _poly_is_irreducible(field: FiniteField, coeffs: Sequence[int]) -> bool:
    """Trial division by all monic polynomials of degree <= deg/2."""
    coeffs = list(coeffs)
    deg = len(coeffs) - 1
    if deg < 1:
        return False
    for e in range(1, deg // 2 + 1):
        for lower in itertools.product(field.elements(), repeat=e):
            divisor = list(lower) + [1]
            if not _poly_rem(field, coeffs, divisor):
                return False
    return True


def least_irreducible(field: FiniteField, degree: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of the given degree.

    Coefficient tuples (constant term first, codes ordered as integers)
    are scanned in ascending lexicographic order; deterministic.  From
    degree 2 on, x divides every candidate with constant term 0; the
    constant term varies slowest, so those come first, and the scan skips
    them by starting at constant term 1.
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    check_order(field.q, f"a degree-{degree} extension of {field!r}", degree)
    constants = field.elements() if degree == 1 else range(1, field.q)
    for lower in itertools.product(constants, *[field.elements()] * (degree - 1)):
        cand = list(lower) + [1]
        if _poly_is_irreducible(field, cand):
            return tuple(cand)
    raise RuntimeError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------


class FieldEmbedding:
    """An arithmetic-preserving inclusion of one finite field in another.

    Attributes:
        source, target: the two fields.
        matrix: prime-linear matrix (target.d x source.d) sending source
            coordinates to target coordinates.
        basis: the ``[target:source]`` target codes of the chosen basis of
            the target as a source-vector-space; ``basis[0]`` is 1.
        degree: ``[target:source]``.
        _rep_digits: (target.d x deg*deg*source.d); row v holds the
            source digits of ``rep(x^v)``, row-major.  Built in the
            constructor, like ``matrix``; ``expand_digits`` reads it.
    """

    def __init__(
        self,
        source: FiniteField,
        target: FiniteField,
        matrix: np.ndarray,
        basis: Sequence[int],
    ):
        if source.p != target.p:
            raise Mismatch("embeddings require equal characteristic")
        if target.d % source.d != 0 or len(basis) * source.d != target.d:
            raise Mismatch("degree arithmetic is inconsistent")
        self.source = source
        self.target = target
        self.matrix = np.asarray(matrix, dtype=np.int64) % source.p
        self.matrix.setflags(write=False)
        self.basis = tuple(int(b) for b in basis)
        self.degree = len(basis)
        self._spread_inv = self._build_spread_inverse()
        powers = target.p ** np.arange(target.d, dtype=np.int64)  # the codes of x^v
        self._rep_digits = source.coords_array(self._reps(powers)).reshape(target.d, -1)
        self._rep_digits.setflags(write=False)
        self._validate_hom()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldEmbedding)
            and self.source == other.source
            and self.target == other.target
            and np.array_equal(self.matrix, other.matrix)
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.basis, self.matrix.tobytes()))

    def __repr__(self) -> str:
        return f"{self.source!r} -> {self.target!r} (degree {self.degree})"

    # -- maps ----------------------------------------------------------------

    def apply(self, a: int) -> int:
        return int(self.apply_array(a))

    def apply_array(self, a: np.ndarray) -> np.ndarray:
        """Images of an array of source codes through the digit map ``matrix``."""
        return self.target.encode_array(self.source.coords_array(a) @ self.matrix.T)

    def embed_digits(self, rows: np.ndarray) -> np.ndarray:
        """``entry_embed`` on digit rows (digit t of column j in column
        j*d + t), in the rows' dtype.  The embedding is GF(p)-linear in the
        digits: a's target digits are ``matrix @ coords(a)`` mod p.  A sum
        has source.d <= 16 terms below p^2: uint8 holds it for p = 2, int64
        for every p."""
        count, d_s = rows.shape[0], self.source.d
        width = rows.shape[1] // d_s
        out = rows.reshape(count * width, d_s) @ self.matrix.T.astype(rows.dtype)
        out %= self.source.p
        return out.reshape(count, width * self.target.d)

    def expand_digits(self, rows: np.ndarray) -> np.ndarray:
        """``block_expand`` on digit rows, in the rows' dtype: row i becomes
        rows ``i*deg + s``, s < deg, whose source columns ``j*deg ..
        j*deg + deg - 1`` hold row s of ``rep(a_ij)``.  ``rep`` is
        GF(p)-linear in the digits, as multiplication and coordinates in
        ``basis`` are: ``rep(sum_v c_v x^v) = sum_v c_v rep(x^v)``, so its
        digits are the c_v times ``_rep_digits`` mod p.  A sum has
        target.d <= 16 terms below p^2: uint8 holds it for p = 2, int64
        for every p."""
        count, d_t, deg = rows.shape[0], self.target.d, self.degree
        width = rows.shape[1] // d_t
        out = rows.reshape(count * width, d_t) @ self._rep_digits.astype(rows.dtype)
        out %= self.source.p
        out = out.reshape(count, width, deg, d_t).transpose(0, 2, 1, 3)
        return out.reshape(count * deg, width * d_t)

    def coords_in_basis(self, alpha: int) -> np.ndarray:
        """Source-field coordinates of a target element in ``self.basis``."""
        flat = (self._spread_inv @ np.asarray(self.target.coords(alpha), dtype=np.int64)) % self.source.p
        return self.source.encode_array(flat.reshape(self.degree, self.source.d))

    def rep(self, alpha: int) -> np.ndarray:
        """Matrix of multiplication-by-alpha on the target as a source space.

        Column j holds the source coordinates of ``alpha * basis[j]``, so
        ``coords(alpha * beta) = rep(alpha) @ coords(beta)`` for every beta.
        """
        return self._reps(np.array([alpha]))[0]

    # -- internals -------------------------------------------------------------

    def _reps(self, codes: np.ndarray) -> np.ndarray:
        """Regular-representation matrices of the given target codes."""
        tgt, src = self.target, self.source
        prods = tgt.arr_mul(codes[:, None], np.asarray(self.basis, dtype=np.int64)[None, :])
        digits = tgt.coords_array(prods)  # (codes, deg, target.d)
        flat = np.tensordot(digits, self._spread_inv, axes=([-1], [1])) % src.p
        coords = src.encode_array(flat.reshape(len(codes), self.degree, self.degree, src.d))
        return np.ascontiguousarray(np.swapaxes(coords, 1, 2))

    def _build_spread_inverse(self) -> np.ndarray:
        d_t, d_s = self.target.d, self.source.d
        spread = np.zeros((d_t, d_t), dtype=np.int64)
        for j, b in enumerate(self.basis):
            for i in range(d_s):
                elt = self.target.mul(b, self.apply(self.source.p**i))
                spread[:, j * d_s + i] = self.target.coords(elt)
        try:
            return _inverse_array(make_prime_field(self.source.p), spread)
        except NotInvertible as exc:  # pragma: no cover - guarded by constructors
            raise Mismatch("basis is not free over the source field") from exc

    def _validate_hom(self) -> None:
        src, tgt = self.source, self.target
        if self.apply(src.one) != tgt.one:
            raise Mismatch("embedding does not preserve 1")
        if src.q <= 256:
            codes = np.arange(src.q, dtype=np.int64)
            pairs_a, pairs_b = np.meshgrid(codes, codes, indexing="ij")
        else:
            rng = np.random.default_rng(0)
            pairs_a = src.random_codes(rng, 256)
            pairs_b = src.random_codes(rng, 256)
        img_a = self.apply_array(pairs_a)
        img_b = self.apply_array(pairs_b)
        ok_add = np.array_equal(self.apply_array(src.arr_add(pairs_a, pairs_b)), tgt.arr_add(img_a, img_b))
        ok_mul = np.array_equal(self.apply_array(src.arr_mul(pairs_a, pairs_b)), tgt.arr_mul(img_a, img_b))
        if not (ok_add and ok_mul):
            raise Mismatch("embedding is not a ring homomorphism")


def identity_embedding(field: FiniteField) -> FieldEmbedding:
    return FieldEmbedding(field, field, np.eye(field.d, dtype=np.int64), (field.one,))


def compose(inner: FieldEmbedding, outer: FieldEmbedding) -> FieldEmbedding:
    """Composite embedding F -> L of F -> K and K -> L.

    The composite basis at index ``j * inner.degree + i`` is
    ``outer(inner.basis[i]) * outer.basis[j]``, matching nested block
    expansion of coordinates.
    """
    if inner.target != outer.source:
        raise Mismatch("inner.target and outer.source differ")
    matrix = (outer.matrix @ inner.matrix) % inner.source.p
    basis = [
        outer.target.mul(outer.apply(bi), bj)
        for bj in outer.basis
        for bi in inner.basis
    ]
    return FieldEmbedding(inner.source, outer.target, matrix, basis)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def make_prime_field(p: int) -> FiniteField:
    """The field of p elements, presented with modulus x."""
    return FiniteField(int(p), (0, 1))


def make_extension(base: FiniteField, modulus: Sequence[int]) -> tuple[FiniteField, FieldEmbedding]:
    """Extension of ``base`` by a monic irreducible modulus over ``base``.

    Returns the extension field (always re-presented over the prime field)
    together with the canonical embedding whose basis is the power basis
    ``{1, y, ..., y^(deg-1)}`` of the modulus root y.
    """
    coeffs = [int(c) for c in modulus]
    if any(not 0 <= c < base.q for c in coeffs):
        raise ValueError("modulus coefficients must be base-field codes")
    deg = len(coeffs) - 1
    if deg < 2:
        raise ValueError("extension degree must be at least 2")
    if coeffs[-1] != base.one:
        raise ValueError("modulus must be monic")
    check_order(base.q, f"a degree-{deg} extension of {base!r}", deg)
    if not _poly_is_irreducible(base, coeffs):
        raise Reducible(f"modulus {tuple(coeffs)} is reducible over {base!r}")

    descriptor = {
        "p": base.p,
        "tower": list(base.descriptor["tower"]) + [[list(base.coords(c)) for c in coeffs]],
    }
    return _relative_extension(base, coeffs, descriptor)


def _relative_extension(
    base: FiniteField, coeffs: list[int], descriptor: dict
) -> tuple[FiniteField, FieldEmbedding]:
    """Extension of any base, rebuilt on a prime-field modulus.

    The extension is presented by the minimal polynomial over GF(p) of a
    generator gamma: the modulus root y when its powers span the field over
    GF(p), else the first element that does.  Over a prime base y always
    does, its power matrix is the identity, and the result keeps the given
    modulus, the power basis of y and the embedding matrix e_0.
    """
    p = base.p
    deg = len(coeffs) - 1
    d = deg * base.d

    def flat(vec: tuple[int, ...]) -> np.ndarray:
        out = np.zeros(d, dtype=np.int64)
        for j, c in enumerate(vec):
            out[j * base.d : (j + 1) * base.d] = base.coords(c)
        return out

    def kmul(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
        prod = _poly_mul(base, list(u), list(v))
        rem = _poly_rem(base, prod, coeffs) if len(prod) > deg else prod
        rem = list(rem) + [0] * (deg - len(rem))
        return tuple(rem)

    def power_matrix(gamma: tuple[int, ...], count: int) -> np.ndarray:
        rows = []
        cur = (base.one,) + (base.zero,) * (deg - 1)
        for _ in range(count):
            rows.append(flat(cur))
            cur = kmul(cur, gamma)
        return np.stack(rows, axis=1)  # columns are gamma powers

    y = tuple(base.one if j == 1 else base.zero for j in range(deg))
    candidates = itertools.chain([y], (_unflatten_codes(t, base, deg) for t in range(base.q**deg)))
    for gamma in candidates:
        if _prime_rank(power_matrix(gamma, d), p) == d:
            break
    else:  # unreachable: a field has a primitive element
        raise Reducible(f"modulus {tuple(coeffs)} has no root generating a field over {base!r}")
    powers = power_matrix(gamma, d + 1)  # columns gamma^0 .. gamma^d
    # flat base coords -> power-basis-of-gamma coords
    psi = _inverse_array(make_prime_field(p), powers[:, :d])
    c = psi @ powers[:, d] % p
    minpoly = tuple(int((-v) % p) for v in c) + (1,)
    ext = FiniteField(p, minpoly, descriptor)
    emb_matrix = psi[:, : base.d]
    basis = tuple(int(ext.encode_array(psi[:, j * base.d] % p)) for j in range(deg))
    return ext, FieldEmbedding(base, ext, emb_matrix, basis)


def _unflatten_codes(t: int, base: FiniteField, deg: int) -> tuple[int, ...]:
    out = []
    for _ in range(deg):
        out.append(t % base.q)
        t //= base.q
    return tuple(out)


# ---------------------------------------------------------------------------
# field descriptors (configuration-file format)
# ---------------------------------------------------------------------------


class Tower:
    """A chain of fields F_0 <= F_1 <= ... with single-step embeddings."""

    def __init__(self, fields: Sequence[FiniteField], steps: Sequence[FieldEmbedding]):
        self.fields = tuple(fields)
        self.steps = tuple(steps)

    @property
    def top(self) -> FiniteField:
        return self.fields[-1]

    def embedding(self, lo: int, hi: int) -> FieldEmbedding:
        """Composite embedding fields[lo] -> fields[hi]: the identity when
        ``lo == hi``, else the composite of the steps it spans alone."""
        if not 0 <= lo <= hi < len(self.fields):
            raise ValueError("tower indices out of range")
        if lo == hi:
            return identity_embedding(self.fields[lo])
        return functools.reduce(compose, self.steps[lo:hi])


def tower_from_descriptor(desc: dict) -> Tower:
    """Build the full tower named by a field descriptor.

    The descriptor holds ``p`` and ``tower``, a list of modulus coefficient
    lists (innermost first).  Coefficients are integers reduced mod p, or
    prime-field coordinate lists when the base of that step is non-prime.

    A descriptor of plain JSON values (``p`` and every coefficient a plain
    int, every coordinate list a list of them) names its tower by value, so
    its tower is built once per process and shared, and so is each tower
    it extends.  Fields and embeddings are immutable, and a field's
    ``descriptor`` is a new copy on every read.  Any other descriptor is
    read and checked anew on every call.
    """
    if not isinstance(desc, dict) or "p" not in desc:
        raise ValueError("field descriptor must be an object with a key 'p'")
    p, tower = desc["p"], desc.get("tower", [])
    if not isinstance(p, (int, np.integer)):
        raise ValueError(f"field characteristic {p!r} must be an integer")
    if not isinstance(tower, list):
        raise ValueError(f"field descriptor's tower {tower!r} must be a list of moduli")
    moduli = _plain_moduli(tower)
    if type(p) is int and moduli is not None:
        return _shared_tower(p, moduli)
    built = Tower([make_prime_field(int(p))], [])
    for coeffs in tower:
        built = _extend(built, coeffs)
    return built


def _plain_moduli(tower: list) -> tuple | None:
    """The moduli as a key, a tuple of tuples whose coefficients are ints
    or tuples of ints; None unless every modulus is a list and every
    coefficient a plain int or a list of plain ints.  Bools, floats and
    numpy integers get no key: a key must not equal that of another
    descriptor that reads differently, as ``True == 1`` and ``1.0 == 1``
    would."""
    moduli = []
    for coeffs in tower:
        if type(coeffs) is not list:
            return None
        step = []
        for c in coeffs:
            if type(c) is list and all(type(v) is int for v in c):
                c = tuple(c)
            elif type(c) is not int:
                return None
            step.append(c)
        moduli.append(tuple(step))
    return tuple(moduli)


@functools.lru_cache(maxsize=16)
def _shared_tower(p: int, moduli: tuple) -> Tower:
    """The tower of a descriptor with plain values, one step past the
    shared tower of its first ``len(moduli) - 1`` steps.  A descriptor that
    fails a check raises on every call, as nothing is cached for it."""
    if not moduli:
        return Tower([make_prime_field(p)], [])
    return _extend(_shared_tower(p, moduli[:-1]), list(moduli[-1]))


def _extend(tower: Tower, coeffs) -> Tower:
    """``tower`` with one more step, by a modulus read as ``modulus_codes``
    reads it."""
    ext, emb = make_extension(tower.top, modulus_codes(tower.top, coeffs))
    return Tower(tower.fields + (ext,), tower.steps + (emb,))


def field_from_descriptor(desc: dict) -> FiniteField:
    return tower_from_descriptor(desc).top


def modulus_codes(base: FiniteField, coeffs) -> list[int]:
    """Base-field codes of a modulus read from JSON: a list whose entries
    are integers reduced mod p, or prime-field coordinate lists."""
    if not isinstance(coeffs, list):
        raise ValueError(f"modulus {coeffs!r} must be a list of coefficients")
    return [int(c) % base.p if isinstance(c, (int, np.integer)) else base.from_coords(c) for c in coeffs]
