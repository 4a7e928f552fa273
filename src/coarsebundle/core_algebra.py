"""Exact matrix algebra over Q plus the float-only symmetric-space helpers.

A matrix is stored as its size n, a flat row-major tuple of Python-int
numerators and one positive common denominator, reduced so that integral
matrices have denominator 1.  Exact paths (products, determinants, inverses,
Hermite form and the word ball of a generating set) run on those ints and
never touch floats; `rows` and `m[i, j]` are exact `fractions.Fraction`
views.  The one float operation, `gl_distance`, is numerical by nature and
says so.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import RankMismatch, SingularMatrix


def _as_fraction(x) -> Fraction:
    if isinstance(x, (Fraction, int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


@lru_cache(maxsize=None)
def _eye(n: int) -> tuple[int, ...]:
    return tuple(int(i == j) for i in range(n) for j in range(n))


def _int_rows(nums: tuple[int, ...], n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(nums[i:i + n] for i in range(0, n * n, n))


def _int_det(a: tuple[int, ...], n: int) -> int:
    """Determinant of an integer matrix: closed form for n <= 2, else
    fraction-free (Bareiss) elimination, whose divisions are all exact."""
    if n == 2:
        return a[0] * a[3] - a[1] * a[2]
    if n < 2:
        return a[0] if n else 1
    m = [list(row) for row in _int_rows(a, n)]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


class RatMatrix:
    """Square matrix over Q, immutable by convention (like Fraction).

    ``nums`` holds the n*n integer numerators row by row and ``den`` their
    positive common denominator, with gcd(den, *nums) == 1; all arithmetic
    is exact.  Instances are hashable so they can be interned (holonomy
    labels are deduplicated heavily); the hash is that of ``rows``.
    """

    __slots__ = ("n", "nums", "den", "_rows", "_hash")
    _coerce = staticmethod(_as_fraction)

    def __init__(self, rows: Sequence[Sequence]):
        n = len(rows)
        entries = []
        for row in rows:
            if len(row) != n:
                raise RankMismatch(f"expected a square matrix, got row of length {len(row)} in size {n}")
            entries.extend(x if isinstance(x, int) else self._coerce(x) for x in row)
        den = math.lcm(*(x.denominator for x in entries))
        nums = tuple(x.numerator * (den // x.denominator) for x in entries)
        self.n, self.nums, self.den, self._rows, self._hash = n, nums, den, None, None

    @classmethod
    def _make(cls, n: int, nums: tuple[int, ...], den: int = 1):
        """The matrix nums / den, reduced to lowest terms."""
        if den != 1:
            if den < 0:
                den, nums = -den, tuple(-x for x in nums)
            g = math.gcd(den, *nums)
            if g != 1:
                den //= g
                nums = tuple(x // g for x in nums)
        m = object.__new__(cls)
        m.n, m.nums, m.den, m._rows, m._hash = n, nums, den, None, None
        return m

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int):
        return cls._make(n, _eye(n))

    @staticmethod
    def diagonal(values: Iterable) -> "RatMatrix":
        vals = list(values)
        return RatMatrix([[v if i == j else 0 for j in range(len(vals))] for i, v in enumerate(vals)])

    # -- entry views ---------------------------------------------------

    @property
    def rows(self) -> tuple[tuple, ...]:
        rows = self._rows
        if rows is None:
            den = self.den
            rows = tuple(tuple(self._scalar(x, den) for x in row) for row in _int_rows(self.nums, self.n))
            self._rows = rows
        return rows

    def _scalar(self, num: int, den: int):
        """The exact value num / den as an entry of this class."""
        return Fraction(num, den)

    # -- basic protocol ------------------------------------------------

    def __eq__(self, other):
        # an IntMatrix never equals a RatMatrix, whatever its entries
        return type(other) is type(self) and self.nums == other.nums and self.den == other.den

    def __hash__(self):
        h = self._hash
        if h is None:
            # int rows hash like the Fraction rows they equal
            self._hash = h = hash(_int_rows(self.nums, self.n) if self.den == 1 else self.rows)
        return h

    def __repr__(self):
        body = "; ".join(", ".join(str(x) for x in row) for row in self.rows)
        return f"{type(self).__name__}[{body}]"

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    # -- arithmetic ----------------------------------------------------

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        n = self.n
        if n != other.n:
            raise RankMismatch("matrix sizes differ")
        a, b = self.nums, other.nums
        if n == 2:
            a0, a1, a2, a3 = a
            b0, b1, b2, b3 = b
            nums = (a0 * b0 + a1 * b2, a0 * b1 + a1 * b3,
                    a2 * b0 + a3 * b2, a2 * b1 + a3 * b3)
        elif n == 1:
            nums = (a[0] * b[0],)
        else:
            cols = [b[j::n] for j in range(n)]
            nums = tuple(sum(x * y for x, y in zip(a[i:i + n], col))
                         for i in range(0, n * n, n) for col in cols)
        cls = type(self) if type(other) is type(self) else RatMatrix
        return cls._make(n, nums, self.den * other.den)

    def __mul__(self, scalar) -> "RatMatrix":
        s = _as_fraction(scalar)
        return RatMatrix._make(self.n, tuple(x * s.numerator for x in self.nums),
                               self.den * s.denominator)

    __rmul__ = __mul__

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        den = math.lcm(self.den, other.den)
        p, q = den // self.den, den // other.den
        return RatMatrix._make(self.n, tuple(x * p + y * q for x, y in zip(self.nums, other.nums)), den)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self + other * -1

    def transpose(self) -> "RatMatrix":
        n = self.n
        return RatMatrix._make(n, tuple(x for j in range(n) for x in self.nums[j::n]), self.den)

    def trace(self) -> Fraction:
        return self._scalar(sum(self.nums[::self.n + 1]), self.den)

    def determinant(self) -> Fraction:
        return self._scalar(_int_det(self.nums, self.n), self.den ** self.n)

    def inverse(self) -> "RatMatrix":
        # (N / d)^-1 = d adj(N) / det(N), all on the integer numerators N
        n, a = self.n, self.nums
        det = _int_det(a, n)
        if det == 0:
            raise SingularMatrix("matrix is singular")
        if n == 2:
            adj = (a[3], -a[1], -a[2], a[0])
        else:  # adj[i][j] is the signed minor of entry (j, i)
            adj = tuple((-1) ** (i + j) * _int_det(tuple(
                a[r * n + c] for r in range(n) if r != j for c in range(n) if c != i), n - 1)
                for i in range(n) for j in range(n))
        return RatMatrix._make(n, tuple(x * self.den for x in adj), det)

    def pow(self, k: int) -> "RatMatrix":
        if k < 0:
            return self.inverse().pow(-k)
        out = type(self).identity(self.n)
        base = self
        while k:
            if k & 1:
                out = out @ base
            base = base @ base
            k >>= 1
        return out

    def apply(self, vec: Sequence) -> tuple:
        """Exact matrix-vector product (column vector)."""
        v = [_as_fraction(x) for x in vec]
        n = self.n
        if len(v) != n:
            raise RankMismatch("vector length differs from matrix size")
        a, den = self.nums, self.den
        return tuple(sum(x * y for x, y in zip(a[i:i + n], v)) / den for i in range(0, n * n, n))

    def is_identity(self) -> bool:
        return self.den == 1 and self.nums == _eye(self.n)

    def is_integral(self) -> bool:
        return self.den == 1

    def to_int_matrix(self) -> "IntMatrix":
        if self.den != 1:
            raise ValueError("matrix has non-integer entries")
        return IntMatrix._make(self.n, self.nums)

    def to_float(self) -> np.ndarray:
        # int / int rounds correctly, exactly like float(Fraction)
        return np.array([x / self.den for x in self.nums], dtype=float).reshape(self.n, self.n)


class IntMatrix(RatMatrix):
    """Square integer matrix (fiber-lattice maps).

    A RatMatrix fixed at denominator 1 whose entry views (``rows``,
    ``m[i, j]``, ``determinant``) are ints.  It never equals a RatMatrix.
    """

    __slots__ = ()
    _coerce = int
    # its own entry, so that per-class wrappers of the product see it
    __matmul__ = RatMatrix.__matmul__

    def _scalar(self, num: int, den: int) -> int:
        return num

    def is_unimodular(self) -> bool:
        return abs(self.determinant()) == 1

    def to_rat(self) -> RatMatrix:
        return RatMatrix._make(self.n, self.nums)


# -- words ------------------------------------------------------------------

Letter = tuple[int, int]  # (generator index, exponent +1 or -1)


def word_ball(gens: Sequence[RatMatrix], depth: Optional[int] = None
              ) -> Iterator[RatMatrix]:
    """Distinct products of the generators, breadth-first.

    The identity comes first, then the new products of each length in turn:
    every element of the previous sphere, in the order it was found, times
    each generator in the given order.  Products of length at most ``depth``
    are yielded, or the whole generated semigroup when ``depth`` is None
    (which ends only when it is finite).  Callers bound the work with
    ``itertools.islice``; the enumeration is lazy.
    """
    identity = RatMatrix.identity(gens[0].n)
    seen = {identity}
    yield identity
    frontier = [identity]
    length = 0
    while frontier and (depth is None or length < depth):
        nxt = []
        for m in frontier:
            for g in gens:
                p = m @ g
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
                    yield p
        frontier = nxt
        length += 1


# -- float-only helpers ------------------------------------------------------

def _floats(labels: Sequence[RatMatrix]) -> np.ndarray:
    # each entry rounded once from its exact value, as in to_float
    return np.array([[x / m.den for x in m.nums] for m in labels]).reshape(
        len(labels), labels[0].n, -1)


def gl_distance_table(labels_a: Sequence[RatMatrix],
                      labels_b: Sequence[RatMatrix]) -> np.ndarray:
    """``gl_distance`` for every pair of two nonempty label lists, shape
    (len(labels_a), len(labels_b)).

    Rank one is the log ratio.  Rank two reads the singular values of
    M = A^-1 B off sigma_1 = (|(p + s, q - r)| + |(p - s, q + r)|) / 2 and
    sigma_1 sigma_2 = |det M|, which has no cancellation near orthogonal M;
    inverses and determinants are exact, since long products of integer
    labels can be singular in float64.  Higher ranks take a batched SVD.
    Rows are chunked so that each block of products stays small.
    """
    ka, kb = len(labels_a), len(labels_b)
    n = labels_a[0].n
    if n == 1:
        la, lb = (np.log(np.abs(_floats(labels)[:, 0, 0]))
                  for labels in (labels_a, labels_b))
        return np.abs(la[:, None] - lb[None, :])
    inv_a = _floats([m.inverse() for m in labels_a])
    fb = _floats(labels_b)
    if n == 2:
        log_det_a, log_det_b = (
            np.log(np.abs([float(m.determinant()) for m in labels]))
            for labels in (labels_a, labels_b))
        log_det = log_det_b[None, :] - log_det_a[:, None]
    out = np.empty((ka, kb))
    chunk = max(1, 8_000_000 // (kb * n * n))
    for lo in range(0, ka, chunk):
        prod = np.einsum("aij,bjk->abik", inv_a[lo:lo + chunk], fb)
        # floored: float products of huge labels can cancel to zero
        if n == 2:
            p, q = prod[..., 0, 0], prod[..., 0, 1]
            r, s = prod[..., 1, 0], prod[..., 1, 1]
            l1 = np.log(np.maximum(
                (np.hypot(p + s, q - r) + np.hypot(p - s, q + r)) / 2, 1e-150))
            logs = np.stack([l1, log_det[lo:lo + chunk] - l1], axis=-1)
        else:
            logs = np.log(np.maximum(
                np.linalg.svd(prod, compute_uv=False), 1e-150))
        out[lo:lo + chunk] = np.sqrt(np.sum(logs * logs, axis=-1))
    return out


def gl_distance(a: RatMatrix, b: RatMatrix) -> float:
    """Symmetric-space proxy metric on GL_n(R).

    d(A, B) = sqrt(sum_i log^2 sigma_i(A^-1 B)).  Zero exactly when A^-1 B is
    orthogonal; symmetric and left-invariant.  The one-pair case of
    ``gl_distance_table``.
    """
    return float(gl_distance_table([a], [b])[0, 0])
