"""Bounded-cochain calculus on finite 2-complexes.

A 2-cocycle c is trivial in the bounded sense when some 1-cochain a with
da = c satisfies a uniform linear bound along loops; the certificate is an
explicit potential f making a + df uniformly small.  This module solves
da = c exactly, scans loop families for the linear bound constant, builds
the potential by longest-path dynamic programming with positive-cycle
detection, and reports growth evidence when no bound can exist.

Conventions: an oriented edge is a pair (u, v); cochains are antisymmetric,
a(v, u) = -a(u, v); the coboundary of a 0-cochain f assigns f(u) - f(v) to
(u, v), so a + df is the candidate bounded representative; the coboundary
of a 1-cochain sums its values around each face boundary loop.

All arithmetic is exact.  Cochain values are ints and Fractions; a float
given to a cochain or as a bound is read as the exact binary rational it
is, Fraction(x).  Every loop sum, scan row, potential and certificate is
then exact at any denominator size, and an absent edge or face reads as an
exact zero.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Optional, Sequence

import numpy as np

from .core_algebra import RatMatrix
from .errors import NotCoboundary, PositiveCycle, SingularMatrix

OrientedEdge = tuple[Hashable, Hashable]

_GROWTH_FACTOR = Fraction(3, 2)
_GROWTH_RUN = 3
_PRIMITIVE_RETRIES = 6
_INT64_LIMIT = 1 << 60
_ZERO = Fraction(0)


def _reverse(e: OrientedEdge) -> OrientedEdge:
    return (e[1], e[0])


@dataclass(frozen=True)
class BaseComplex:
    """Finite connected 2-complex: oriented edges plus face boundary loops.

    Edges are stored once in a canonical orientation; both orientations of
    every stored edge are usable in faces and cochains.  grid_shape marks
    complexes built by grid_complex, unlocking closed-form loop families.
    """

    vertices: tuple
    edges: tuple
    faces: tuple
    basepoint: Hashable
    grid_shape: Optional[tuple[int, int]] = None

    def __post_init__(self):
        vset = set(self.vertices)
        if self.basepoint not in vset:
            raise ValueError("basepoint is not a vertex")
        eset = set(self.edges)
        for (u, v) in self.edges:
            if u == v:
                raise ValueError("edge reversal must be fixpoint-free")
            if u not in vset or v not in vset:
                raise ValueError("edge touches a missing vertex")
            if (v, u) in eset:
                raise ValueError("store each edge in one orientation only")
        for loop in self.faces:
            if not loop:
                raise ValueError("empty face boundary")
            for e in loop:
                if e not in eset and _reverse(e) not in eset:
                    raise ValueError(f"face uses unknown edge {e!r}")
            for a, b in zip(loop, loop[1:] + loop[:1]):
                if a[1] != b[0]:
                    raise ValueError("face boundary is not a closed loop")
        adjacency: dict = {v: [] for v in self.vertices}
        for (u, v) in self.edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        seen = {self.basepoint}
        frontier = [self.basepoint]
        while frontier:
            u = frontier.pop()
            for w in adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        if seen != vset:
            raise ValueError("complex is not connected")


def grid_complex(width: int, height: int) -> BaseComplex:
    """Rectangular grid with unit square faces; vertices are (x, y) pairs."""
    if width < 2 or height < 2:
        raise ValueError("grid needs at least 2x2 vertices")
    vertices = tuple((x, y) for x in range(width) for y in range(height))
    edges = []
    for x in range(width):
        for y in range(height):
            if x + 1 < width:
                edges.append(((x, y), (x + 1, y)))
            if y + 1 < height:
                edges.append(((x, y), (x, y + 1)))
    faces = []
    for x in range(width - 1):
        for y in range(height - 1):
            faces.append((
                ((x, y), (x + 1, y)),
                ((x + 1, y), (x + 1, y + 1)),
                ((x + 1, y + 1), (x, y + 1)),
                ((x, y + 1), (x, y)),
            ))
    return BaseComplex(vertices=vertices, edges=tuple(edges),
                       faces=tuple(faces), basepoint=(0, 0),
                       grid_shape=(width, height))


def _as_tuple(vec, dim: int) -> tuple:
    """A cochain value as a dim-tuple of ints and Fractions; other entries,
    floats among them, become the exact rationals they are."""
    if isinstance(vec, (int, float, Fraction)):
        vec = (vec,)
    t = tuple(vec)
    if len(t) != dim:
        raise ValueError(f"expected a vector of length {dim}")
    for x in t:
        if not isinstance(x, (int, Fraction)):
            return tuple(Fraction(y) for y in t)
    return t


@dataclass
class Cochain1:
    """Antisymmetric edge cochain with vector values of fixed dimension."""

    dim: int
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = {e: _as_tuple(vec, self.dim)
                       for e, vec in self.values.items()}

    def value(self, e: OrientedEdge) -> tuple:
        if e in self.values:
            return self.values[e]
        r = _reverse(e)
        if r in self.values:
            return tuple(-x for x in self.values[r])
        return (_ZERO,) * self.dim

    def set(self, e: OrientedEdge, vec) -> None:
        self.values[e] = _as_tuple(vec, self.dim)

    @staticmethod
    def from_map(complex_: BaseComplex, mapping: dict, dim: int = 1
                 ) -> "Cochain1":
        edges = set(complex_.edges)
        out = Cochain1(dim=dim)
        for e, vec in mapping.items():
            stored, vec = e, _as_tuple(vec, dim)
            if stored not in edges:
                stored, vec = _reverse(e), tuple(-x for x in vec)
                if stored not in edges:
                    raise ValueError(f"unknown edge {e!r}")
            if out.values.setdefault(stored, vec) != vec:
                raise ValueError(f"inconsistent orientations for {e!r}")
        return out


@dataclass
class Cochain2:
    """Face cochain, keyed by face index in the parent complex."""

    dim: int
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = {i: _as_tuple(vec, self.dim)
                       for i, vec in self.values.items()}

    def value(self, face_index: int) -> tuple:
        return self.values.get(face_index, (_ZERO,) * self.dim)

    def set(self, face_index: int, vec) -> None:
        self.values[face_index] = _as_tuple(vec, self.dim)


def d1(complex_: BaseComplex, a: Cochain1) -> Cochain2:
    """Coboundary: sum the edge cochain around every face boundary loop.

    Applied to a gluing's edge data this is the translational 2-cocycle:
    fiberwise translations fail to compose around a face by exactly the
    face value, and that class is what is_trivial tests.
    """
    out = Cochain2(dim=a.dim)
    for i, loop in enumerate(complex_.faces):
        out.values[i] = tuple(sum(column, _ZERO) for column in
                              zip(*(a.value(e) for e in loop)))
    return out


def coboundary_of_potential(complex_: BaseComplex, f: dict, dim: int
                            ) -> Cochain1:
    """df with the convention df(u, v) = f(u) - f(v)."""
    out = Cochain1(dim=dim)
    for (u, v) in complex_.edges:
        fu, fv = f[u], f[v]
        out.values[(u, v)] = tuple(p - q for p, q in zip(fu, fv))
    return out


# ---------------------------------------------------------------------------
# loop scanning


@dataclass(frozen=True)
class ScanRow:
    length: int
    max_abs: object  # int or Fraction
    ratio: Fraction


@dataclass(frozen=True)
class ScanTable:
    rows: tuple
    witnesses: dict

    @property
    def max_ratio(self) -> Fraction:
        return max((row.ratio for row in self.rows), default=_ZERO)


def _keep_max(best: dict, length: int, value, witness) -> None:
    """Record value and witness for a loop length unless a larger sum
    already holds it; the first maximum found stays the witness."""
    if length not in best or value > best[length][0]:
        best[length] = (value, witness)


def _scan_table(best: dict) -> ScanTable:
    """Scan rows from length -> (max |loop sum|, witness loop), sorted by
    length, with exact ratios."""
    rows = tuple(ScanRow(length=ell, max_abs=m, ratio=Fraction(m, ell))
                 for ell, (m, _) in sorted(best.items()))
    witnesses = {ell: loop for ell, (_, loop) in best.items()}
    return ScanTable(rows=rows, witnesses=witnesses)


def _loop_value(a: Cochain1, loop: Sequence[OrientedEdge], k: int):
    total = None
    for e in loop:
        x = a.value(e)[k]
        total = x if total is None else total + x
    return total


def _grid_rectangle_loop(x1: int, y1: int, x2: int, y2: int) -> tuple:
    """Boundary loop of the cell rectangle [x1,x2) x [y1,y2)."""
    loop = []
    for x in range(x1, x2):
        loop.append(((x, y1), (x + 1, y1)))
    for y in range(y1, y2):
        loop.append(((x2, y), (x2, y + 1)))
    for x in range(x2, x1, -1):
        loop.append(((x, y2), (x - 1, y2)))
    for y in range(y2, y1, -1):
        loop.append(((x1, y), (x1, y - 1)))
    return tuple(loop)


def _scan_grid(complex_: BaseComplex, a: Cochain1,
               length_cap: Optional[int]) -> ScanTable:
    """All axis-aligned rectangle loops, via prefix sums of the coboundary.

    The loop sum of a around a rectangle equals the sum of da over the
    enclosed cells, so 2D prefix sums cover the whole family.  Rectangles
    sharing a column span and a height line up along one shifted difference
    of a prefix column, which numpy reduces in a single vector op.  The
    sums are scaled by their common denominator to integer cells: int64
    while no prefix sum can overflow, Python ints otherwise, so maxima and
    ratios are exact at any size.
    """
    width, height = complex_.grid_shape
    cw, ch = width - 1, height - 1
    da = d1(complex_, a)
    sums = [da.value(i) for i in range(len(complex_.faces))]
    den = math.lcm(*(x.denominator for vec in sums for x in vec))
    cells = np.array([[int(x * den) for x in vec] for vec in sums],
                     dtype=object)
    if np.abs(cells).max(initial=0) * cw * ch <= _INT64_LIMIT:
        cells = cells.astype(np.int64)

    best: dict = {}
    for k in range(a.dim):
        pref = np.zeros((cw + 1, ch + 1), dtype=cells.dtype)
        pref[1:, 1:] = np.cumsum(np.cumsum(
            cells[:, k].reshape(cw, ch), axis=0), axis=1)
        for x1 in range(cw):
            for x2 in range(x1 + 1, cw + 1):
                strip = pref[x2] - pref[x1]
                sx = x2 - x1
                for sy in range(1, ch + 1):
                    length = 2 * (sx + sy)
                    if length_cap is not None and length > length_cap:
                        break
                    diffs = np.abs(strip[sy:] - strip[:-sy])
                    y1 = int(np.argmax(diffs))
                    _keep_max(best, length, diffs[y1],
                              (x1, y1, x2, y1 + sy))
    # cell sums compare like the values they scale to; convert once
    return _scan_table(
        {ell: (Fraction(int(m), den), _grid_rectangle_loop(*rect))
         for ell, (m, rect) in best.items()})


def _fundamental_cycles(complex_: BaseComplex) -> list[tuple]:
    """Cycle basis loops through the basepoint, from a BFS spanning tree."""
    parent: dict = {complex_.basepoint: None}
    order = [complex_.basepoint]
    adjacency: dict = {v: [] for v in complex_.vertices}
    for (u, v) in complex_.edges:
        adjacency[u].append((v, (u, v)))
        adjacency[v].append((u, (v, u)))
    for v in adjacency:
        adjacency[v].sort(key=lambda t: repr(t[0]))
    qi = 0
    while qi < len(order):
        u = order[qi]
        qi += 1
        for (w, e) in adjacency[u]:
            if w not in parent:
                parent[w] = e
                order.append(w)
    tree_undirected = {frozenset(e) for e in parent.values()
                       if e is not None}

    def path_from_base(v) -> list[OrientedEdge]:
        path = []
        while parent[v] is not None:
            e = parent[v]
            path.append(e)
            v = e[0]
        return path[::-1]

    cycles = []
    for (u, v) in complex_.edges:
        if frozenset((u, v)) in tree_undirected:
            continue
        up = path_from_base(u)
        vp = path_from_base(v)
        loop = tuple(up + [(u, v)] + [_reverse(e) for e in reversed(vp)])
        cycles.append(loop)
    return cycles


def linear_bound_scan(complex_: BaseComplex, a: Cochain1,
                      length_cap: Optional[int] = None) -> ScanTable:
    """Maximal loop sums of a 1-cochain per loop length.

    Grid complexes get the complete rectangle family in closed form.  Other
    complexes use all face boundaries, the fundamental cycles of a spanning
    tree, and a fixed sample (random.Random(0)) of their concatenations.
    """
    if complex_.grid_shape is not None:
        return _scan_grid(complex_, a, length_cap)

    loops: list[tuple] = [tuple(loop) for loop in complex_.faces]
    cycles = _fundamental_cycles(complex_)
    loops.extend(cycles)
    if cycles:
        rng = random.Random(0)
        for _ in range(min(100, 4 * len(cycles) * len(cycles))):
            loops.append(rng.choice(cycles) + rng.choice(cycles))

    best: dict = {}
    for loop in loops:
        ell = len(loop)
        if length_cap is None or ell <= length_cap:
            _keep_max(best, ell, max(abs(_loop_value(a, loop, k))
                                     for k in range(a.dim)), loop)
    return _scan_table(best)


# ---------------------------------------------------------------------------
# primitives by longest-path dynamic programming


def primitive(complex_: BaseComplex, a: Cochain1, bound_c) -> dict:
    """Potential f with f(basepoint) = 0 maximizing path sums of a - 2C.

    Computed per coordinate by queue-based Bellman-Ford maximization over
    both orientations of every edge.  If some cycle has positive total
    weight the supremum is infinite and the premise of the construction
    fails: PositiveCycle carries a witness loop.  On success a + df is
    uniformly bounded by 2C on every edge: every edge in either orientation
    gives f(w) >= f(u) + a(u, w) - 2C.  A float bound_c is read as the
    exact rational it is.
    """
    two_c = 2 * Fraction(bound_c)
    nv = len(complex_.vertices)
    out: dict = {v: [] for v in complex_.vertices}

    arcs: dict = {v: [] for v in complex_.vertices}
    for (u, v) in complex_.edges:
        arcs[u].append(((u, v), v))
        arcs[v].append(((v, u), u))

    for k in range(a.dim):
        dist: dict = {v: None for v in complex_.vertices}
        pred: dict = {}
        dist[complex_.basepoint] = _ZERO
        inqueue = {v: False for v in complex_.vertices}
        relax_count = {v: 0 for v in complex_.vertices}
        queue = deque([complex_.basepoint])
        inqueue[complex_.basepoint] = True
        while queue:
            u = queue.popleft()
            inqueue[u] = False
            du = dist[u]
            for (e, w) in arcs[u]:
                cand = du + a.value(e)[k] - two_c
                if dist[w] is None or cand > dist[w]:
                    dist[w] = cand
                    pred[w] = e
                    relax_count[w] += 1
                    if relax_count[w] > nv:
                        raise PositiveCycle(_extract_cycle(pred, w, nv))
                    if not inqueue[w]:
                        queue.append(w)
                        inqueue[w] = True
        for v in complex_.vertices:
            out[v].append(dist[v])
    return {v: tuple(vals) for v, vals in out.items()}


def residual_sup(complex_: BaseComplex, a: Cochain1, f: dict):
    """sup |a + df| over edges and coordinates: the edge bound a potential
    f certifies for a."""
    df = coboundary_of_potential(complex_, f, a.dim)
    return max((abs(av + dv)
                for e in complex_.edges
                for av, dv in zip(a.value(e), df.value(e))),
               default=_ZERO)


def _extract_cycle(pred: dict, start, nv: int) -> tuple:
    seen: dict = {}
    v = start
    steps = 0
    while v in pred and v not in seen and steps <= 2 * nv + 2:
        seen[v] = steps
        v = pred[v][0]
        steps += 1
    if v not in seen:
        return ()
    cycle = []
    w = v
    while True:
        e = pred[w]
        cycle.append(e)
        w = e[0]
        if w == v:
            break
    return tuple(reversed(cycle))


@dataclass(frozen=True)
class TrivialityVerdict:
    kind: str  # Trivial | Nontrivial | Unknown
    primitive_f: Optional[dict] = None
    bound_achieved: Optional[object] = None
    bound_budget: Optional[object] = None
    witnesses: tuple = ()
    scan: Optional[ScanTable] = None
    note: str = ""


def _check_faces(complex_: BaseComplex, c: Cochain2) -> None:
    """ValueError for a key of c that is not a face index of the complex."""
    count = len(complex_.faces)
    for i in c.values:
        if not isinstance(i, int) or not 0 <= i < count:
            raise ValueError(f"face index {i!r} out of range: the complex "
                             f"has {count} faces")


def solve_coboundary(complex_: BaseComplex, c: Cochain2) -> Cochain1:
    """Some 1-cochain a with da = c, exact; NotCoboundary when none exists.

    Grids are solved in closed form: horizontal edges get zero and each
    vertical edge accumulates the cells to its left in its row.  General
    complexes go through sparse exact elimination on the face-edge system.
    A key of c outside the complex's face indices is a ValueError.
    """
    _check_faces(complex_, c)
    if complex_.grid_shape is not None:
        width, height = complex_.grid_shape
        ch = height - 1
        a = Cochain1(dim=c.dim)
        for y in range(ch):
            acc = (_ZERO,) * c.dim
            for x in range(width - 1):
                acc = tuple(p + v for p, v in zip(acc, c.value(x * ch + y)))
                a.values[((x + 1, y), (x + 1, y + 1))] = acc
        return a

    edge_index = {e: i for i, e in enumerate(complex_.edges)}
    dim = c.dim
    pivot_rows: list[tuple[int, dict, list]] = []
    for i, loop in enumerate(complex_.faces):
        coeffs: dict[int, Fraction] = {}
        for e in loop:
            if e in edge_index:
                j = edge_index[e]
                coeffs[j] = coeffs.get(j, Fraction(0)) + 1
            else:
                j = edge_index[_reverse(e)]
                coeffs[j] = coeffs.get(j, Fraction(0)) - 1
        coeffs = {j: x for j, x in coeffs.items() if x != 0}
        rhs = list(c.value(i))
        for (pj, pc, pr) in pivot_rows:
            if pj in coeffs:
                factor = coeffs.pop(pj)
                for jj, x in pc.items():
                    nxt = coeffs.get(jj, Fraction(0)) - factor * x
                    if nxt == 0:
                        coeffs.pop(jj, None)
                    else:
                        coeffs[jj] = nxt
                for k in range(dim):
                    rhs[k] -= factor * pr[k]
        if not coeffs:
            if any(rhs):
                raise NotCoboundary(
                    "face equations are inconsistent: the class is nonzero "
                    "already in ordinary cohomology")
            continue
        j = min(coeffs)
        lead = coeffs.pop(j)
        pivot_rows.append((j, {jj: x / lead for jj, x in coeffs.items()},
                           [x / lead for x in rhs]))

    solution: dict[int, list] = {}
    for (j, pc, pr) in reversed(pivot_rows):
        vals = list(pr)
        for jj, x in pc.items():
            known = solution.get(jj)
            if known is not None:
                for k in range(dim):
                    vals[k] -= x * known[k]
        solution[j] = vals

    a = Cochain1(dim=dim)
    zero = (Fraction(0),) * dim
    for e, j in edge_index.items():
        a.values[e] = tuple(solution[j]) if j in solution else zero
    check = d1(complex_, a)
    if any(check.value(i) != c.value(i) for i in range(len(complex_.faces))):
        raise AssertionError("coboundary solve verification failed")
    return a


def _doubling_trend(table: ScanTable) -> tuple[int, list[int]]:
    """Longest run of consecutive length doublings with ratio growth at
    least _GROWTH_FACTOR; returns (run length, lengths along the run)."""
    by_len = {row.length: row.ratio for row in table.rows}
    best_run, best_lengths = 0, []
    for start in by_len:
        lengths = [start]
        run = 0
        cur = start
        while cur * 2 in by_len:
            if (by_len[cur] > 0
                    and by_len[cur * 2] >= _GROWTH_FACTOR * by_len[cur]):
                run += 1
                cur *= 2
                lengths.append(cur)
            else:
                break
        if run > best_run:
            best_run, best_lengths = run, lengths
    return best_run, best_lengths


def is_trivial(complex_: BaseComplex, c: Cochain2,
               length_cap: Optional[int] = None) -> TrivialityVerdict:
    """Bounded-triviality verdict for a face cochain.

    Solves da = c exactly (NotCoboundary if impossible) and scans loop
    ratios.  Ratios growing across at least three doubling scales are
    evidence against any linear bound: Nontrivial, with the maximizing
    loops as witnesses.  Otherwise a potential is synthesized with C set
    to the observed ratio bound, doubling C when the potential fails or
    misses its budget; success is a Trivial certificate carrying f and the
    achieved edge bound against a budget of 4C, and exhausted retries
    leave Unknown.
    """
    a = solve_coboundary(complex_, c)
    table = linear_bound_scan(complex_, a, length_cap=length_cap)

    run, lengths = _doubling_trend(table)
    if run >= _GROWTH_RUN:
        witnesses = tuple(table.witnesses[ell] for ell in lengths
                          if ell in table.witnesses)
        return TrivialityVerdict(
            kind="Nontrivial", witnesses=witnesses, scan=table,
            note=f"loop ratios grow across {run} doubling scales")

    bound_c = table.max_ratio
    for _ in range(_PRIMITIVE_RETRIES):
        try:
            f = primitive(complex_, a, bound_c)
        except PositiveCycle:
            pass
        else:
            worst = residual_sup(complex_, a, f)
            budget = 4 * bound_c
            if worst <= budget:
                return TrivialityVerdict(kind="Trivial", primitive_f=f,
                                         bound_achieved=worst,
                                         bound_budget=budget, scan=table)
        # a zero constant restarts at one
        bound_c = 2 * bound_c if bound_c else bound_c + 1
    return TrivialityVerdict(
        kind="Unknown", scan=table,
        note="no growth certificate and no bounded primitive at the "
             "scanned constants")


def classes_equivalent_via(complex_: BaseComplex, c1: Cochain2, c2: Cochain2,
                           transform: RatMatrix,
                           length_cap: Optional[int] = None
                           ) -> TrivialityVerdict:
    """Triviality of c1 - T(c2): whether the classes agree up to the given
    invertible change of fiber coordinates, formed exactly."""
    if c1.dim != c2.dim:
        raise ValueError("cochain dimensions differ")
    if transform.n != c1.dim:
        raise ValueError("transform size does not match cochain dimension")
    if transform.determinant() == 0:
        raise SingularMatrix("coefficient transform must be invertible")
    _check_faces(complex_, c1)
    _check_faces(complex_, c2)
    diff = Cochain2(dim=c1.dim)
    for i in range(len(complex_.faces)):
        diff.values[i] = tuple(x - y for x, y in zip(
            c1.value(i), transform.apply(c2.value(i))))
    return is_trivial(complex_, diff, length_cap=length_cap)


def heisenberg_cochain(complex_: BaseComplex) -> Cochain1:
    """The area-form edge cochain on a grid: each upward edge weighs its
    column coordinate, horizontal edges weigh zero; its coboundary is one
    on every cell."""
    if complex_.grid_shape is None:
        raise ValueError("defined on grid complexes")
    a = Cochain1(dim=1)
    for (u, v) in complex_.edges:
        if u[0] == v[0] and v[1] == u[1] + 1:
            a.values[(u, v)] = (Fraction(u[0]),)
    return a
