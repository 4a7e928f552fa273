"""Independent oracles for the benchmark's output checks.

Each oracle is derived from a closed form or from exact integer arithmetic
written here, never from the library routine it checks.  The one borrowed
oracle is the standalone coset enumerator in tests/test_acceptance.py.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from perfbench.decisions import expect

# ---------------------------------------------------------------------------
# graphs of groups


def bs_kind(m: int, n: int) -> str:
    """Trichotomy kind of bs(m, n) for positive m, n.

    |m| = |n| has finite holonomy (Folded); exactly one parameter equal to 1
    is a strict ascending HNN extension (Parabolic); every other pair is
    Folded.  On the table m <= n this is: Parabolic iff m = 1 < n.
    """
    if min(m, n) == 1 and max(m, n) > 1:
        return "Parabolic"
    return "Folded"


def sl2_type(rows: Sequence[Sequence[int]]) -> str:
    """scalar | elliptic | parabolic | hyperbolic for a matrix in SL2(Z)."""
    (a, b), (c, d) = rows
    expect(a * d - b * c == 1, f"not in SL2(Z): {rows}")
    if b == 0 and c == 0 and a == d:
        return "scalar"
    tr = abs(a + d)
    if tr < 2:
        return "elliptic"
    return "parabolic" if tr == 2 else "hyperbolic"


def semidirect_kind(rows) -> str:
    """semidirect(2, [w]) is Folded iff w has finite order, else Proper."""
    return "Folded" if sl2_type(rows) in ("scalar", "elliptic") else "Proper"


def check_trichotomy_shape(kind: str, decided: bool, has_hnn: bool) -> None:
    expect(kind in ("Parabolic", "Folded", "Proper", "Undetermined"),
           f"unknown verdict kind {kind!r}")
    expect(decided == (kind != "Undetermined"), "decided flag disagrees")
    expect(has_hnn == (kind == "Parabolic"),
           "ascending form attached iff Parabolic")


# ---------------------------------------------------------------------------
# modular group


_S = ((0, -1), (1, 0))
_T = ((1, 1), (0, 1))


def _mul(x, y):
    return tuple(tuple(sum(x[i][k] * y[k][j] for k in range(2))
                       for j in range(2)) for i in range(2))


def _inv(x):
    (a, b), (c, d) = x
    return ((d, -b), (-c, a))


_LETTERS = {"s": _S, "S": _inv(_S), "t": _T, "T": _inv(_T)}


def word_rows(word: str) -> tuple:
    """Integer matrix of a word in s, t (upper case = inverse)."""
    m = ((1, 0), (0, 1))
    for ch in word:
        m = _mul(m, _LETTERS[ch])
    return m


def invert_word(word: str) -> str:
    return word[::-1].swapcase()


def coset_index(acceptance, words: Iterable[str]) -> Optional[int]:
    """Index in PSL2(Z) by the standalone enumerator of the acceptance tests.

    None when the enumeration does not close within its 64-coset limit, i.e.
    the subgroup has infinite (or very large) index.
    """
    try:
        return acceptance._oracle_todd_coxeter(
            relators=("ss", "ststst"), subgroup_words=tuple(words),
            letters=("s", "t"))
    except (RuntimeError, AssertionError):
        return None


def gl1_expected(values: Sequence[Fraction]) -> tuple[str, Optional[Fraction]]:
    """Kind and (up to inversion) generator of <values> inside Q^*/{+-1}.

    Exponent vectors over the primes involved span a lattice; rank 0 is
    Trivial, rank 1 is Discrete with generator the primitive vector's value,
    rank >= 2 is Dense.  Computed with integer row reduction.
    """
    primes = sorted({p for q in values for p in _prime_factors(abs(q))})
    rows = [[_valuation(abs(q), p) for p in primes] for q in values]
    rows = [r for r in rows if any(r)]
    if not rows:
        return "Trivial", None
    basis = _integer_row_basis(rows)
    if len(basis) >= 2:
        return "Dense", None
    gen = Fraction(1)
    for p, e in zip(primes, basis[0]):
        gen *= Fraction(p) ** e
    return "Discrete", gen


def _prime_factors(q: Fraction) -> set:
    out = set()
    for n in (q.numerator, q.denominator):
        p = 2
        while p * p <= n:
            while n % p == 0:
                out.add(p)
                n //= p
            p += 1
        if n > 1:
            out.add(n)
    return out


def _valuation(q: Fraction, p: int) -> int:
    v = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _integer_row_basis(rows: list) -> list:
    """Echelon basis of the integer row lattice (gcd-based elimination)."""
    rows = [list(r) for r in rows]
    basis = []
    width = len(rows[0])
    col = 0
    while rows and col < width:
        live = [r for r in rows if r[col] != 0]
        rest = [r for r in rows if r[col] == 0]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            pivot = live[0]
            reduced = [pivot]
            for r in live[1:]:
                q = r[col] // pivot[col]
                r = [x - q * y for x, y in zip(r, pivot)]
                (reduced if r[col] != 0 else rest).append(r)
            live = reduced
        if live:
            basis.append(live[0])
        rows = [r for r in rest if any(r)]
        col += 1
    return basis


# ---------------------------------------------------------------------------
# bounded cochains on grids


def check_heisenberg_scan(scan, side: int) -> int:
    """Square loops of side k enclose area k^2 and have length 4k, so every
    scan row of length 4k (k < side) has ratio exactly k/4.  Returns the
    number of rows checked."""
    checked = 0
    for row in scan.rows:
        if row.length % 4 == 0 and row.length // 4 < side:
            k = row.length // 4
            expect(row.ratio == Fraction(k, 4),
                   f"length {row.length}: ratio {row.ratio} != {k}/4")
            checked += 1
    expect(checked >= 3, "scan has too few square lengths")
    return checked


def face_sums(faces, values: dict) -> list:
    """Coboundary of a scalar edge cochain given on canonical orientations:
    the signed sum of ``values`` around each face loop."""
    out = []
    for loop in faces:
        total = Fraction(0)
        for (u, v) in loop:
            total += values[(u, v)] if (u, v) in values else -values[(v, u)]
        out.append(total)
    return out


def check_primitive_certificate(faces, edges, a_value, curvature, f,
                                achieved, budget) -> None:
    """|a + df| <= budget on every edge with maximum ``achieved``, and
    d(a + df) equals ``curvature`` face by face (df(u, v) = f(u) - f(v)).

    ``a_value(e)`` returns a one-component tuple, ``f`` maps vertices to
    tuples, ``curvature`` lists the expected face values.  Exact Fractions.
    """
    expect(isinstance(achieved, Fraction) and isinstance(budget, Fraction),
           "certificate bounds must be exact")
    adjusted = {}
    for (u, v) in edges:
        adjusted[(u, v)] = (Fraction(a_value((u, v))[0]) + Fraction(f[u][0])
                            - Fraction(f[v][0]))
    worst = max(abs(x) for x in adjusted.values())
    expect(worst <= budget, f"|a + df| = {worst} exceeds {budget}")
    expect(worst == achieved, f"achieved {achieved} but max is {worst}")
    expect(face_sums(faces, adjusted) == list(curvature),
           "d(a + df) differs from da")


# ---------------------------------------------------------------------------
# windowed bundles


def window_points(lo: int, hi: int, dim: int) -> list:
    pts = [()]
    for _ in range(dim):
        pts = [p + (x,) for p in pts for x in range(lo, hi + 1)]
    return pts


def base_edges(base, lo: int, hi: int) -> list:
    """Oriented base edges of a window, rebuilt independently."""
    if base == "line":
        return [(b, b + 1) for b in range(lo, hi)]
    if base == "grid":
        out = []
        for x in range(lo, hi + 1):
            for y in range(lo, hi + 1):
                if x < hi:
                    out.append(((x, y), (x + 1, y)))
                if y < hi:
                    out.append(((x, y), (x, y + 1)))
        return out
    return list(base.edges)


def _adjugate(m: Sequence[Sequence[int]]) -> tuple[list, int]:
    if len(m) == 1:
        return [[1]], m[0][0]
    (a, b), (c, d) = m
    return [[d, -b], [-c, a]], a * d - b * c


def required_gluing_clips(edges_with_maps, points, lo: int, hi: int) -> set:
    """Window vertices that must carry a clip flag because a gluing partner
    falls outside the fiber window, decided in exact integers.

    ``edges_with_maps`` yields ((b, b2), matrix rows, shift).  Forward:
    M f + s outside the window clips (f, b).  Backward: f at b2 has an
    integral preimage exactly when adj(M)(f - s) = 0 mod det M; a preimage
    outside the window clips (f, b2).
    """
    inside = lambda p: all(lo <= x <= hi for x in p)
    need = set()
    for (b, b2), mat, shift in edges_with_maps:
        adj, det = _adjugate(mat)
        n = len(mat)
        for f in points:
            img = tuple(sum(mat[i][j] * f[j] for j in range(n)) + shift[i]
                        for i in range(n))
            if not inside(img):
                need.add((f, b))
            g = [f[i] - shift[i] for i in range(n)]
            v = [sum(adj[i][j] * g[j] for j in range(n)) for i in range(n)]
            if all(x % det == 0 for x in v):
                pre = tuple(x // det for x in v)
                if not inside(pre):
                    need.add((f, b2))
    return need


def check_growth_series(counts, flags, rmax: int) -> int:
    """Shape of a BFS growth series; returns its number of valid radii."""
    expect(len(counts) == rmax + 1 and len(flags) == rmax + 1,
           "series length is not rmax + 1")
    expect(counts[0] == 1, "ball of radius 0 is not the origin")
    expect(all(x <= y for x, y in zip(counts, counts[1:])),
           "ball counts decrease")
    valid = [r for r, ok in enumerate(flags) if ok]
    expect(valid == list(range(len(valid))), "valid radii are not a prefix")
    return len(valid)


def isclose_log(x: float, y: float) -> bool:
    return math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12)
