"""Exact matrix algebra over Q plus the float-only symmetric-space helpers.

Exact paths (determinants, inverses, Hermite form, word evaluation and the
word ball of a generating set) run on `fractions.Fraction` and never touch
floats.  The one float operation, `gl_distance`, is numerical by nature and
says so.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import RankMismatch, SingularMatrix


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


def lattice_index(m: IntMatrix) -> int:
    """Index of the sublattice m(Z^n) in Z^n, i.e. |det m|.

    Raises SingularMatrix when det is 0 (the image is not finite index).
    """
    d = m.determinant()
    if d == 0:
        raise SingularMatrix("lattice map is singular")
    return abs(d)


def hermite_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form.

    Returns (H, U) with U unimodular, H = U @ m, pivots positive and entries
    above each pivot reduced into [0, pivot).
    """
    n = m.n
    a = [list(row) for row in m.rows]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    r = 0
    for c in range(n):
        # clear the column below row r using Euclidean row steps
        while True:
            live = [i for i in range(r, n) if a[i][c] != 0]
            if not live:
                break
            pivot = min(live, key=lambda i: abs(a[i][c]))
            if pivot != r:
                a[r], a[pivot] = a[pivot], a[r]
                u[r], u[pivot] = u[pivot], u[r]
            done = True
            for i in range(r + 1, n):
                if a[i][c] != 0:
                    q = a[i][c] // a[r][c]
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
                    if a[i][c] != 0:
                        done = False
            if done:
                break
        if r < n and a[r][c] != 0:
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
                u[r] = [-x for x in u[r]]
            for i in range(r):
                q = a[i][c] // a[r][c]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
            r += 1
    return IntMatrix(a), IntMatrix(u)


# -- words ------------------------------------------------------------------

Letter = tuple[int, int]  # (generator index, exponent +1 or -1)


def evaluate_word(word: Iterable[Letter], gens: Sequence[RatMatrix]) -> RatMatrix:
    """Left-to-right product of generator powers.

    The first letter is the leftmost factor: evaluate_word([(0,+1),(1,+1)], [A,B])
    is A @ B.  Exponents are restricted to +1/-1; inverses are exact.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].n
    out = RatMatrix.identity(n)
    inverses: dict[int, RatMatrix] = {}
    for idx, exp in word:
        if exp == 1:
            out = out @ gens[idx]
        elif exp == -1:
            if idx not in inverses:
                inverses[idx] = gens[idx].inverse()
            out = out @ inverses[idx]
        else:
            raise ValueError(f"exponent must be +1 or -1, got {exp}")
    return out


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


def word_inverse(word: Sequence[Letter]) -> tuple[Letter, ...]:
    return tuple((i, -e) for i, e in reversed(word))


def free_reduce(word: Sequence[Letter]) -> tuple[Letter, ...]:
    out: list[Letter] = []
    for let in word:
        if out and out[-1][0] == let[0] and out[-1][1] == -let[1]:
            out.pop()
        else:
            out.append(let)
    return tuple(out)


# -- float-only helpers ------------------------------------------------------

def log_singular_values(a: np.ndarray) -> np.ndarray:
    """Logs of singular values, with a closed form for n <= 2."""
    n = a.shape[0]
    if n == 1:
        return np.array([math.log(abs(a[0, 0]))])
    if n == 2:
        # sigma^2 are roots of x^2 - |A|_F^2 x + det^2
        fro2 = float(np.sum(a * a))
        det = float(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
        disc = max(fro2 * fro2 - 4.0 * det * det, 0.0)
        root = math.sqrt(disc)
        s1 = math.sqrt(max((fro2 + root) / 2.0, 0.0))
        s2 = abs(det) / s1 if s1 > 0 else 0.0
        return np.array([math.log(s1), math.log(s2)])
    return np.log(np.linalg.svd(a, compute_uv=False))


def gl_distance(a: RatMatrix, b: RatMatrix) -> float:
    """Symmetric-space proxy metric on GL_n(R).

    d(A, B) = sqrt(sum_i log^2 sigma_i(A^-1 B)).  Zero exactly when A^-1 B is
    orthogonal; symmetric and left-invariant.
    """
    rel = (a.inverse() @ b).to_float()
    logs = log_singular_values(rel)
    return float(math.sqrt(float(np.sum(logs * logs))))
