"""Reference matrix classes for the core algebra tests.

These are the `RatMatrix` and `IntMatrix` that `coarsebundle.core_algebra`
had before matrices became int numerators over one common denominator:
every entry is a `fractions.Fraction` (or an int) in nested row tuples, and
products are computed entry by entry.  `test_matrix_oracle.py` compares the
library classes against them operation by operation, hashes and cross-type
equality included.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from coarsebundle.errors import RankMismatch, SingularMatrix

def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class RatMatrix:
    """Immutable square matrix over Q.

    Entries are Fractions; all arithmetic is exact.  Instances are hashable so
    they can be interned (holonomy labels are deduplicated heavily).
    """

    __slots__ = ("rows", "n", "_hash")

    def __init__(self, rows: Sequence[Sequence]):
        n = len(rows)
        tup = tuple(tuple(_as_fraction(x) for x in row) for row in rows)
        for row in tup:
            if len(row) != n:
                raise RankMismatch(f"expected a square matrix, got row of length {len(row)} in size {n}")
        object.__setattr__(self, "rows", tup)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_hash", hash(tup))

    def __setattr__(self, *a):
        raise AttributeError("RatMatrix is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @staticmethod
    def diagonal(values: Sequence) -> "RatMatrix":
        vals = [_as_fraction(v) for v in values]
        n = len(vals)
        return RatMatrix([[vals[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)])

    # -- basic protocol ------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, RatMatrix) and self.rows == other.rows

    def __hash__(self):
        return self._hash

    def __repr__(self):
        body = "; ".join(", ".join(str(x) for x in row) for row in self.rows)
        return f"RatMatrix[{body}]"

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    # -- arithmetic ----------------------------------------------------

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.n != other.n:
            raise RankMismatch("matrix sizes differ")
        n = self.n
        a, b = self.rows, other.rows
        return RatMatrix(
            [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        )

    def __mul__(self, scalar) -> "RatMatrix":
        s = _as_fraction(scalar)
        return RatMatrix([[x * s for x in row] for row in self.rows])

    __rmul__ = __mul__

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return RatMatrix([[x - y for x, y in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        return RatMatrix([[x + y for x, y in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def transpose(self) -> "RatMatrix":
        return RatMatrix(list(zip(*self.rows)))

    def trace(self) -> Fraction:
        return sum(self.rows[i][i] for i in range(self.n))

    def determinant(self) -> Fraction:
        # Exact Gaussian elimination; partial pivot on the first nonzero entry.
        n = self.n
        m = [list(row) for row in self.rows]
        det = Fraction(1)
        for c in range(n):
            pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
            if pivot is None:
                return Fraction(0)
            if pivot != c:
                m[c], m[pivot] = m[pivot], m[c]
                det = -det
            det *= m[c][c]
            inv = 1 / m[c][c]
            for r in range(c + 1, n):
                if m[r][c] != 0:
                    f = m[r][c] * inv
                    for k in range(c, n):
                        m[r][k] -= f * m[c][k]
        return det

    def inverse(self) -> "RatMatrix":
        n = self.n
        m = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(self.rows)]
        for c in range(n):
            pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
            if pivot is None:
                raise SingularMatrix("matrix is singular")
            m[c], m[pivot] = m[pivot], m[c]
            inv = 1 / m[c][c]
            m[c] = [x * inv for x in m[c]]
            for r in range(n):
                if r != c and m[r][c] != 0:
                    f = m[r][c]
                    m[r] = [x - f * y for x, y in zip(m[r], m[c])]
        return RatMatrix([row[n:] for row in m])

    def pow(self, k: int) -> "RatMatrix":
        if k < 0:
            return self.inverse().pow(-k)
        out = RatMatrix.identity(self.n)
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
        if len(v) != self.n:
            raise RankMismatch("vector length differs from matrix size")
        return tuple(sum(row[j] * v[j] for j in range(self.n)) for row in self.rows)

    def is_identity(self) -> bool:
        return all(self.rows[i][j] == (1 if i == j else 0) for i in range(self.n) for j in range(self.n))

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for row in self.rows for x in row)

    def to_int_matrix(self) -> "IntMatrix":
        if not self.is_integral():
            raise ValueError("matrix has non-integer entries")
        return IntMatrix([[int(x) for x in row] for row in self.rows])

    def to_float(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.rows], dtype=float)


class IntMatrix:
    """Immutable square integer matrix (fiber-lattice maps)."""

    __slots__ = ("rows", "n", "_hash")

    def __init__(self, rows: Sequence[Sequence[int]]):
        n = len(rows)
        tup = tuple(tuple(int(x) for x in row) for row in rows)
        for row in tup:
            if len(row) != n:
                raise RankMismatch(f"expected a square matrix, got row of length {len(row)} in size {n}")
        object.__setattr__(self, "rows", tup)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_hash", hash(tup))

    def __setattr__(self, *a):
        raise AttributeError("IntMatrix is immutable")

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix([[int(i == j) for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self):
        return self._hash

    def __repr__(self):
        body = "; ".join(", ".join(str(x) for x in row) for row in self.rows)
        return f"IntMatrix[{body}]"

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.n != other.n:
            raise RankMismatch("matrix sizes differ")
        n = self.n
        a, b = self.rows, other.rows
        return IntMatrix(
            [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        )

    def determinant(self) -> int:
        return int(self.to_rat().determinant())

    def is_unimodular(self) -> bool:
        return abs(self.determinant()) == 1

    def to_rat(self) -> RatMatrix:
        return RatMatrix(self.rows)

