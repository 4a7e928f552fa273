"""Desk-scale models of fibered graphs: windowed total spaces, ball growth,
and drift seminorms of periodic gluing words.

A gluing assigns to every edge of a base graph a bijection-like map of the
integer fiber lattice; the total space connects lattice neighbors within a
fiber and connects (f, b) to (map(f), b') across base edges.  Finite windows
stand in for the infinite object, so every vertex whose model neighborhood
leaves the window carries a clipped marker, and growth counts are only
trusted at radii that stay clear of clipped vertices.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .bass_serre import resolve_vertex_cap
from .core_algebra import IntMatrix, RatMatrix
from .errors import (NonBijectiveTabulated, SingularGenerator, SingularMatrix,
                     TooFewRadii, WindowTooLarge)

_R2_MARGIN = 0.02
_PERFECT_FIT = 0.999
_UNIT_CIRCLE_TOL = 1e-9
_DRIFT_HORIZONS = 64  # truncation horizons of drift_seminorm
_INT64_SAFE = 2 ** 62  # bound on the int64 values of a matrix gluing
_FILL_CHUNK = 1 << 16  # edges per block of a window build (or a row)


# ---------------------------------------------------------------------------
# gluing maps


@dataclass(frozen=True)
class Affine:
    """Fiberwise integer affine map f -> M f + s with M invertible.  Every
    matrix gluing is one: `Translation` and `Linear` build it."""

    matrix: IntMatrix
    vector: tuple

    def __post_init__(self):
        if self.matrix.determinant() == 0:
            raise SingularMatrix("gluing matrix must be invertible")

    def apply(self, base_vertex, f: tuple) -> tuple:
        return tuple(sum(m * x for m, x in zip(row, f)) + t
                     for row, t in zip(self.matrix.rows, self.vector))

    @property
    def dim(self) -> int:
        return self.matrix.n


def Translation(vector) -> Affine:
    """Fiberwise shift by an integer vector."""
    return Affine(IntMatrix.identity(len(vector)), tuple(vector))


def Linear(matrix: IntMatrix) -> Affine:
    """Fiberwise invertible integer-linear map."""
    return Affine(matrix, (0,) * matrix.n)


@dataclass(frozen=True)
class Tabulated:
    """Pointwise map of the rank-one fiber, possibly depending on the base
    vertex; a window build calls ``fn`` once per window point and base edge
    and checks injectivity on the window.  It clips every window point that
    no window point maps onto, or, when the map is strictly monotone on the
    window (and so taken to be monotone on all of Z), only those outside the
    span of the images."""

    fn: Callable[[object, int], int]
    name: str = "tabulated"

    def apply(self, base_vertex, f: tuple) -> tuple:
        return (self.fn(base_vertex, f[0]),)

    @property
    def dim(self) -> int:
        return 1


GluingMap = Union[Affine, Tabulated]


@dataclass(frozen=True)
class FiniteBase:
    """Explicit finite base graph with directed gluing edges."""

    vertices: tuple
    edges: tuple  # oriented pairs (u, v)


@dataclass(frozen=True)
class GluingSpec:
    """Base shape plus the fiber map carried by each base edge.

    base is "line" (vertices are integers, edges b to b+1), "grid"
    (vertices are integer pairs, edges step +1 in either coordinate), or a
    FiniteBase.  A single edge_map applies to every base edge; edge_maps
    overrides per oriented base edge.
    """

    base: Union[str, FiniteBase]
    fiber_dim: int
    edge_map: Optional[GluingMap] = None
    edge_maps: Optional[dict] = None

    def __post_init__(self):
        if isinstance(self.base, str) and self.base not in ("line", "grid"):
            raise ValueError("base must be 'line', 'grid', or a FiniteBase")
        if self.edge_map is None and not self.edge_maps:
            raise ValueError("a gluing map is required")
        for m in self._all_maps():
            if m.dim != self.fiber_dim:
                raise ValueError("gluing map dimension != fiber_dim")

    def _all_maps(self):
        if self.edge_map is not None:
            yield self.edge_map
        if self.edge_maps:
            yield from self.edge_maps.values()

    def map_for(self, base_edge) -> GluingMap:
        if self.edge_maps and base_edge in self.edge_maps:
            return self.edge_maps[base_edge]
        if self.edge_map is not None:
            return self.edge_map
        raise KeyError(f"no gluing map for base edge {base_edge!r}")


def phi_example_spec() -> GluingSpec:
    """Doubling-wedge gluing over the integer line.

    The fiber map at base height b doubles points with absolute value at
    most n and shifts the rest by n toward infinity, where n = |b| so the
    formula is total on negative heights as well: with n = |b|,
    phi(x) = 2x for |x| <= n, x + n for x > n, and x - n for x < -n.
    """
    def phi(b, x: int) -> int:
        n = abs(b)
        if abs(x) <= n:
            return 2 * x
        if x > n:
            return x + n
        return x - n

    return GluingSpec(base="line", fiber_dim=1,
                      edge_map=Tabulated(fn=phi, name="phi_example"))


# ---------------------------------------------------------------------------
# total space construction


@dataclass(eq=False)
class TotalSpaceBall:
    """Windowed model of the total space, stored as arrays.

    Vertex (f, b) has the id ``base_index(b) * |F| + k``, where k is the
    position of the fiber point f in the fiber box (points in lexicographic
    order, so the first coordinate is the most significant mixed-radix
    digit) and |F| is the number of box points.  The neighbors of id i are
    ``indices[indptr[i]:indptr[i + 1]]``: every edge is stored in both
    directions, and parallel edges and loops are kept.  Both arrays are
    int32 while the slot count is below 2^31 and int64 beyond; the wedge
    window of `phi_example_spec` holds 20 bytes per vertex with its clip
    flags (39 in int64).  ``clip[i]`` marks a vertex whose model
    neighborhood could not be fully realized inside the windows.
    ``clipped`` and ``adjacency`` are views keyed by ``(fiber tuple, base
    vertex)`` pairs, built on first use.
    """

    fiber_dim: int
    origin: tuple
    base_vertices: tuple
    fiber_window: tuple  # (lo, hi) on every fiber coordinate
    indptr: np.ndarray
    indices: np.ndarray
    clip: np.ndarray
    fiber_edge_count: int
    gluing_edge_count: int

    @property
    def size(self) -> int:
        return len(self.clip)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @cached_property
    def _fiber_points(self) -> list:
        return _fiber_box(self.fiber_window, self.fiber_dim)

    @cached_property
    def _base_index(self) -> dict:
        return {b: i for i, b in enumerate(self.base_vertices)}

    def index(self, v) -> int:
        """Id of the vertex (f, b); KeyError when it lies outside."""
        f, b = v
        k = _fiber_offset(f, self.fiber_window, self.fiber_dim)
        if k is None or b not in self._base_index:
            raise KeyError(v)
        n_fiber = self.size // len(self.base_vertices)
        return self._base_index[b] * n_fiber + k

    def _vertex(self, i: int) -> tuple:
        b, k = divmod(i, len(self._fiber_points))
        return (self._fiber_points[k], self.base_vertices[b])

    def degree(self, v) -> int:
        i = self.index(v)
        return int(self.indptr[i + 1] - self.indptr[i])

    @cached_property
    def clipped(self) -> frozenset:
        return frozenset(self._vertex(i)
                         for i in np.flatnonzero(self.clip).tolist())

    @cached_property
    def adjacency(self) -> dict:
        labels = [self._vertex(i) for i in range(self.size)]
        ptr = self.indptr.tolist()
        nbrs = self.indices.tolist()
        return {v: [labels[j] for j in nbrs[ptr[i]:ptr[i + 1]]]
                for i, v in enumerate(labels)}


def _window_interval(window) -> tuple[int, int]:
    """Normalize a window given as half-width or as an explicit (lo, hi)."""
    if isinstance(window, int):
        if window < 0:
            raise ValueError("window half-width must be nonnegative")
        return -window, window
    lo, hi = window
    if lo > hi:
        raise ValueError("window interval is empty")
    return int(lo), int(hi)


def _base_graph(spec: GluingSpec, base_window):
    if spec.base == "line":
        lo, hi = _window_interval(base_window)
        vertices = list(range(lo, hi + 1))
        edges = [(b, b + 1) for b in range(lo, hi)]
        boundary = {lo, hi}
        return vertices, edges, boundary
    if spec.base == "grid":
        lo, hi = _window_interval(base_window)
        rng = range(lo, hi + 1)
        vertices = [(x, y) for x in rng for y in rng]
        edges = []
        for (x, y) in vertices:
            if x + 1 <= hi:
                edges.append(((x, y), (x + 1, y)))
            if y + 1 <= hi:
                edges.append(((x, y), (x, y + 1)))
        boundary = {(x, y) for (x, y) in vertices
                    if x in (lo, hi) or y in (lo, hi)}
        return vertices, edges, boundary
    return list(spec.base.vertices), list(spec.base.edges), set()


def _fiber_box(fiber_window, dim: int):
    """The fiber window's points as tuples, in vertex-id order."""
    lo, hi = _window_interval(fiber_window)
    rng = range(lo, hi + 1)
    pts = [()]
    for _ in range(dim):
        pts = [p + (x,) for p in pts for x in rng]
    return pts


def _fiber_offset(f, window: tuple, dim: int) -> Optional[int]:
    """Position of the fiber point f in the box, or None outside it."""
    lo, hi = window
    if len(f) != dim:
        return None
    k = 0
    for x in f:
        if not lo <= x <= hi or x != int(x):
            return None
        k = k * (hi - lo + 1) + int(x) - lo
    return k


def _linear_gluing(gmap: Affine, coords: np.ndarray, lo: int, hi: int):
    """Box offsets (sources, their images, sources whose image leaves the
    box, points whose preimage leaves it) of a matrix gluing map, given the
    box points as columns.  Where an int64 value (an image, a rounded
    preimage or its image) could reach 2^62, images are Python ints and each
    point no window point maps onto is clipped (exact when |det M| = 1)."""
    norm = max(sum(map(abs, row)) for row in gmap.matrix.rows)
    drift = max(map(abs, gmap.vector))
    small = norm * max(-lo, hi) + drift < _INT64_SAFE
    dtype = np.int64 if small else object
    mat = np.array(gmap.matrix.rows, dtype=dtype)
    shift = np.array(gmap.vector, dtype=dtype)[:, None]
    imgs = mat @ coords.astype(dtype, copy=False) + shift
    inside = ((imgs >= lo) & (imgs <= hi)).all(axis=0)
    radix = (hi - lo + 1) ** np.arange(len(coords) - 1, -1, -1)
    dst = (radix @ (imgs[:, inside] - lo)).astype(np.intp, copy=False)
    if small:
        # backward pass: window points whose integral preimage exists but
        # falls outside the window lack their gluing partner
        pre_f = np.linalg.solve(mat.astype(float), coords - shift)
        small = norm * (float(np.abs(pre_f).max()) + 1) + drift < _INT64_SAFE
    if small:
        cand = np.rint(pre_f).astype(np.int64)
        exact = (mat @ cand + shift == coords).all(axis=0)
        unreached = exact & ~((cand >= lo) & (cand <= hi)).all(axis=0)
    else:
        unreached = np.bincount(dst, minlength=coords.shape[1]) == 0
    return (np.flatnonzero(inside), dst, np.flatnonzero(~inside),
            np.flatnonzero(unreached))


def _tabulated_gluing(gmap: Tabulated, b, edge, lo: int, hi: int):
    """The same four offset arrays for a rank-one pointwise map, calling
    ``gmap.fn`` once per window point; the first two in the id dtype.
    Images past int64 keep all images exact Python ints."""
    xs = np.arange(lo, hi + 1)
    imgs = [gmap.fn(b, x) for x in range(lo, hi + 1)]
    try:
        imgs = np.array(imgs, dtype=np.int64)
    except OverflowError:
        imgs = np.array(imgs, dtype=object)
    _, first = np.unique(imgs, return_index=True)
    if len(first) < len(imgs):
        repeat = np.ones(len(imgs), dtype=bool)
        repeat[first] = False
        k = int(np.flatnonzero(repeat)[0])
        j = int(np.flatnonzero(imgs == imgs[k])[0])
        raise NonBijectiveTabulated(
            f"gluing over base edge {edge!r} sends both {(lo + j,)!r} and "
            f"{(lo + k,)!r} to {(int(imgs[k]),)!r}")
    inside = (imgs >= lo) & (imgs <= hi)
    offset = _index_dtype(len(imgs))
    dst = (imgs[inside] - lo).astype(offset)
    steps = np.diff(imgs)
    if np.all(steps > 0) or np.all(steps < 0):  # see Tabulated
        unreached = (xs < imgs.min()) | (xs > imgs.max())
    else:
        unreached = np.bincount(dst, minlength=len(imgs)) == 0
    return (np.flatnonzero(inside).astype(offset), dst,
            np.flatnonzero(~inside), np.flatnonzero(unreached))


def _index_dtype(bound: int) -> type:
    """int32 for ids and slot positions up to ``bound``, else int64."""
    return np.int32 if bound < 2 ** 31 else np.int64


def _csr(fiber: list, gluing: list, fiber_degree: np.ndarray, n: int,
         slots: int) -> tuple[np.ndarray, np.ndarray]:
    """Both-direction CSR arrays of n vertices and ``slots`` slots.

    Block (a, src, a2, dst) joins the ids a + src to a2 + dst, where a and
    a2 hold first ids of base rows and src and dst are box offsets, so that
    neither side repeats an id.  The degree array (box degree plus one per
    gluing block) becomes the fill cursor: each vertex's slots fill from
    its end back."""
    n_fiber = len(fiber_degree)
    dtype = _index_dtype(max(n, slots))
    indptr = np.empty(n + 1, dtype=dtype)
    indptr[:n].reshape(-1, n_fiber)[:] = fiber_degree
    for a, src, a2, dst in gluing:
        indptr[(a + src).ravel()] += 1
        indptr[(a2 + dst).ravel()] += 1
    np.add.accumulate(indptr[:n], out=indptr[:n])
    indptr[n] = slots
    indices = np.empty(slots, dtype=dtype)
    for a, src, a2, dst in reversed(fiber + gluing):
        ids, ids2 = (a + src).ravel(), (a2 + dst).ravel()
        for at, values in ((ids2, ids), (ids, ids2)):
            pos = indptr[at] - 1
            indptr[at] = pos
            indices[pos] = values
    return indptr, indices


def build_total_space(spec: GluingSpec, base_window, fiber_window,
                      origin, cap: Optional[int] = None) -> TotalSpaceBall:
    """Build the windowed total space of a gluing spec as arrays.

    Windows are given as a half-width (symmetric about 0) or as an explicit
    (lo, hi) interval; an off-center base interval lets a ball be carved
    around a distant origin without building everything in between.

    Fiber edges join lattice neighbors over a fixed base vertex; gluing
    edges join (f, b) to (map(f), b') over each base edge.  The images of a
    matrix gluing map are computed once per map, those of a Tabulated map
    once per base edge with one ``fn`` call per window point.  A vertex is
    clipped when a fiber neighbor (on either side) or a forward image leaves
    the windows, when the base neighborhood is truncated, or when a backward
    gluing partner cannot be ruled out inside the window.  Tabulated maps
    are checked for injectivity on the window (NonBijectiveTabulated) and
    the total vertex count is capped (WindowTooLarge) by the cap that
    `bass_serre.resolve_vertex_cap` resolves from ``cap``.
    """
    cap = resolve_vertex_cap(cap)
    base_vertices, base_edges, base_boundary = _base_graph(spec, base_window)
    lo, hi = _window_interval(fiber_window)
    dim = spec.fiber_dim
    n_fiber = (hi - lo + 1) ** dim
    if len(base_vertices) * n_fiber > cap:
        raise WindowTooLarge(cap)

    origin_f, origin_b = origin
    if isinstance(origin_f, int):
        origin_f = (origin_f,)
    origin = (tuple(origin_f), origin_b)
    base_index = {b: i for i, b in enumerate(base_vertices)}
    if (origin_b not in base_index
            or _fiber_offset(origin[0], (lo, hi), dim) is None):
        raise ValueError("origin lies outside the windows")

    coords = (np.indices((hi - lo + 1,) * dim, dtype=np.int64)
              .reshape(dim, n_fiber) + lo)
    # fiber edges, one axis at a time in blocks of base rows
    rows = np.arange(len(base_vertices))[:, None] * n_fiber
    step = max(1, _FILL_CHUNK // n_fiber)
    axes = [(k, k + (hi - lo + 1) ** (dim - 1 - j))
            for j, k in enumerate(map(np.flatnonzero, coords < hi))]
    fiber = [(rows[r:r + step], src, rows[r:r + step], dst)
             for src, dst in axes for r in range(0, len(rows), step)]
    # a point on either face of the fiber box misses a lattice neighbor
    fiber_degree = (2 * dim - (coords == lo).sum(axis=0)
                    - (coords == hi).sum(axis=0))
    clip = np.tile(fiber_degree < 2 * dim, (len(base_vertices), 1))
    clip[[base_index[b] for b in base_boundary]] = True

    # gluing edges: a Tabulated edge is a block of its own, and the edges of
    # a matrix map share blocks, keyed so that no row repeats on either side
    per_map, layers, n_out, n_in = {}, {}, Counter(), Counter()
    for (b, b2) in base_edges:
        gmap = spec.map_for((b, b2))
        i, i2 = base_index[b], base_index[b2]
        if isinstance(gmap, Tabulated):
            parts = _tabulated_gluing(gmap, b, (b, b2), lo, hi)
            key = object()
        else:
            if id(gmap) not in per_map:
                per_map[id(gmap)] = _linear_gluing(gmap, coords, lo, hi)
            parts = per_map[id(gmap)]
            key = (id(gmap), n_out[id(gmap), i], n_in[id(gmap), i2])
            n_out[id(gmap), i] += 1
            n_in[id(gmap), i2] += 1
        src, dst, lost, unreached = parts
        clip[i][lost] = True
        clip[i2][unreached] = True
        layers.setdefault(key, (src, dst, []))[2].append((i, i2))
    gluing = []
    for src, dst, pairs in layers.values():
        ii, ii2 = np.array(pairs).T
        gluing += [(rows[ii[r:r + step]], src, rows[ii2[r:r + step]], dst)
                   for r in range(0, len(ii), step)]

    fiber_edge_count = sum(a.size * len(src) for a, src, _, _ in fiber)
    gluing_edge_count = sum(a.size * len(src) for a, src, _, _ in gluing)
    indptr, indices = _csr(fiber, gluing, fiber_degree, clip.size,
                           2 * (fiber_edge_count + gluing_edge_count))
    return TotalSpaceBall(
        fiber_dim=dim, origin=origin, base_vertices=tuple(base_vertices),
        fiber_window=(lo, hi), indptr=indptr, indices=indices,
        clip=clip.ravel(), fiber_edge_count=fiber_edge_count,
        gluing_edge_count=gluing_edge_count)


# ---------------------------------------------------------------------------
# growth


@dataclass(frozen=True)
class GrowthSeries:
    """Cumulative ball sizes |B(r)| with per-radius validity flags."""

    counts: tuple
    flags: tuple

    def __iter__(self):
        return iter((self.counts, self.flags))

    def valid_radii(self) -> list[int]:
        return [r for r, ok in enumerate(self.flags) if ok]


def ball_growth(ball: TotalSpaceBall, rmax: int) -> GrowthSeries:
    """BFS ball sizes from the origin for r = 0..rmax.

    The BFS is level-synchronous over the window's CSR arrays: each step
    gathers the neighbors of the whole frontier and keeps the unseen ones
    as the next sphere.  A radius is valid only when it is strictly smaller
    than the distance to every clipped vertex, so no missing neighbor or
    out-of-window shortcut can affect the count.  The origin must be
    interior.
    """
    origin = ball.index(ball.origin)
    if ball.clip[origin]:
        raise ValueError("origin is clipped; enlarge the windows")
    seen = np.zeros(ball.size, dtype=bool)
    seen[origin] = True
    frontier = np.array([origin], dtype=np.int64)
    counts = [1]
    min_clip = math.inf
    for r in range(1, rmax + 1):
        starts = ball.indptr[frontier].astype(np.intp)
        lengths = ball.indptr[frontier + 1] - starts
        slots = (np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
                 + np.arange(lengths.sum()))
        nbrs = ball.indices[slots].astype(np.intp, copy=False)
        nbrs = np.sort(nbrs[~seen[nbrs]])  # keep the first of equal ids
        frontier = nbrs[np.concatenate((nbrs[:1] >= 0, nbrs[1:] != nbrs[:-1]))]
        seen[frontier] = True
        if min_clip == math.inf and ball.clip[frontier].any():
            min_clip = r
        counts.append(counts[-1] + len(frontier))
    flags = tuple(r < min_clip for r in range(rmax + 1))
    return GrowthSeries(counts=tuple(counts), flags=flags)


@dataclass(frozen=True)
class GrowthClass:
    kind: str  # Polynomial | Exponential | Undetermined
    parameter: Optional[float]
    r2_poly: float
    r2_exp: float


def _fit_r2(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-18 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(slope), r2


def growth_class(seq: Sequence[int], flags: Sequence[bool]) -> GrowthClass:
    """Least-squares classification of a ball-size sequence.

    Fits log|B| against log r (polynomial: slope is the degree) and against
    r (exponential: slope is the rate) over the valid radii r >= 1.  The
    better fit wins when its R-squared leads by at least 0.02; when both
    fits are essentially perfect the polynomial reading wins (flat and
    low-degree data satisfies both models); otherwise Undetermined.
    """
    radii = [r for r in range(1, len(seq))
             if r < len(flags) and flags[r] and seq[r] > 0]
    if len(radii) < 8:
        raise TooFewRadii(
            f"need at least 8 valid radii, have {len(radii)}")
    xs = np.array(radii, dtype=float)
    ys = np.log(np.array([seq[r] for r in radii], dtype=float))
    deg, r2_poly = _fit_r2(np.log(xs), ys)
    rate, r2_exp = _fit_r2(xs, ys)
    if r2_poly >= _PERFECT_FIT and r2_exp >= _PERFECT_FIT:
        return GrowthClass(kind="Polynomial", parameter=deg,
                           r2_poly=r2_poly, r2_exp=r2_exp)
    if r2_exp - r2_poly >= _R2_MARGIN:
        return GrowthClass(kind="Exponential", parameter=rate,
                           r2_poly=r2_poly, r2_exp=r2_exp)
    if r2_poly - r2_exp >= _R2_MARGIN:
        return GrowthClass(kind="Polynomial", parameter=deg,
                           r2_poly=r2_poly, r2_exp=r2_exp)
    return GrowthClass(kind="Undetermined", parameter=None,
                       r2_poly=r2_poly, r2_exp=r2_exp)


# ---------------------------------------------------------------------------
# drift seminorms of periodic words


def _word_matrices(word: Sequence) -> list[np.ndarray]:
    """Float arrays of the word's letters, each first tested for singularity
    exactly (entries of a letter that is no RatMatrix read as `Fraction`)."""
    mats = []
    for g in word:
        if not isinstance(g, RatMatrix):
            g = RatMatrix([[Fraction(x) for x in row] for row in g])
        if g.determinant() == 0:
            raise SingularGenerator("gluing word contains a singular matrix")
        mats.append(g.to_float())
    return mats


@dataclass(frozen=True)
class DriftEstimate:
    """Monotone truncation lower bounds for the drift seminorm of a vector
    along the periodic gluing path of a word, plus the diagonalizable
    closed form when available."""

    estimates: tuple
    closed_form: Optional[float]
    diagonalizable: bool
    period: int

    @property
    def value(self) -> float:
        return self.estimates[-1] if self.estimates else 0.0


def drift_seminorm(word: Sequence, u: Sequence) -> DriftEstimate:
    """Drift seminorm N(u) of a vector along the periodic path of a word.

    A sequence u_i shadowing the orbit (u_0 = u, each step applying the next
    word letter) must either stay bounded or pay a per-step correction; N(u)
    is the least uniform correction.  For each horizon m <= 64 the
    exact inequality

        C >= (|T_m u| - |u|) / (1 + |S_1| + ... + |S_{m-1}|)

    over partial products S_j of the word gives a lower bound independent
    of the shadowing radius in the limit; the reported sequence of running
    maxima is nondecreasing and converges to (|lam| - 1)|P u| when a single
    expanding eigenvalue dominates a diagonalizable word.  The closed form
    is the eigen-split value: per-step rates |lam|^(1/period), zero iff u
    lies in the closed non-expanding spectral subspace, else the Euclidean
    size of the rate-weighted expanding components.  Exact for words with
    an orthogonal eigenbasis; otherwise computed in eigencoordinates.
    """
    if not word:
        raise ValueError("word must be nonempty")
    mats = _word_matrices(word)
    period = len(mats)
    n = mats[0].shape[0]
    uvec = np.array([float(x) for x in u], dtype=float)
    if uvec.shape[0] != n:
        raise ValueError("vector length does not match the word rank")
    unorm = float(np.linalg.norm(uvec))

    estimates = []
    best = 0.0
    vec = uvec.copy()
    for m in range(1, _DRIFT_HORIZONS + 1):
        vec = mats[(m - 1) % period] @ vec
        fm_u = float(np.linalg.norm(vec))
        part = np.eye(n)
        denom = 0.0
        for i in range(m, 0, -1):
            denom += float(np.linalg.norm(part, ord=2))
            part = part @ mats[(i - 1) % period]
        cand = (fm_u - unorm) / denom
        if cand > best:
            best = cand
        estimates.append(best)

    closed_form = None
    diagonalizable = False
    w_period = _full_period(mats)
    evals, evecs = np.linalg.eig(w_period)
    if np.linalg.cond(evecs) < 1e8:
        diagonalizable = True
        coords = np.linalg.solve(evecs, uvec.astype(complex))
        scale = max(1.0, float(np.linalg.norm(coords)))
        total = 0.0
        for lam, z in zip(evals, coords):
            rate = abs(lam) ** (1.0 / period)
            if rate > 1.0 + _UNIT_CIRCLE_TOL and abs(z) > 1e-12 * scale:
                total += ((rate - 1.0) * abs(z)) ** 2
        closed_form = math.sqrt(total)

    return DriftEstimate(estimates=tuple(estimates), closed_form=closed_form,
                         diagonalizable=diagonalizable, period=period)


def _full_period(mats: list[np.ndarray]) -> np.ndarray:
    out = np.eye(mats[0].shape[0])
    for m in mats:
        out = m @ out
    return out


@dataclass(frozen=True)
class KernelReport:
    """Orthonormal basis of the drift-seminorm kernel."""

    basis: tuple
    dimension: int


def foliation_kernel(word: Sequence) -> KernelReport:
    """Directions with zero drift along the periodic path of a word.

    The kernel is the non-expanding spectral subspace of the period
    product: generalized eigenspaces of eigenvalues inside the unit circle,
    plus genuine eigenvectors on the unit circle.  Generalized unit-circle
    directions of nontrivial Jordan blocks grow polynomially and are
    excluded.  Returned as a real orthonormal basis.
    """
    mats = _word_matrices(word)
    w = _full_period(mats)
    n = w.shape[0]
    evals = np.linalg.eigvals(w)

    columns = []
    used = [False] * len(evals)
    for i, lam in enumerate(evals):
        if used[i]:
            continue
        cluster = [j for j, mu in enumerate(evals)
                   if not used[j] and abs(mu - lam) < 1e-7]
        for j in cluster:
            used[j] = True
        mult = len(cluster)
        r = abs(lam)
        if r > 1.0 + _UNIT_CIRCLE_TOL:
            continue
        shifted = w - lam * np.eye(n)
        if r < 1.0 - _UNIT_CIRCLE_TOL:
            target = np.linalg.matrix_power(shifted, mult)
        else:
            target = shifted
        _, s, vh = np.linalg.svd(target)
        tol = max(s[0], 1.0) * 1e-9 if s.size else 1e-9
        null_dim = int(np.sum(s < tol)) + (n - len(s))
        for kdx in range(null_dim):
            columns.append(vh[len(s) - 1 - kdx])

    if not columns:
        return KernelReport(basis=(), dimension=0)
    stack = np.vstack([np.real(c) for c in columns]
                      + [np.imag(c) for c in columns])
    _, s, vh = np.linalg.svd(stack)
    tol = max(s[0], 1.0) * 1e-9
    rank = int(np.sum(s > tol))
    basis = tuple(tuple(float(x) for x in vh[i]) for i in range(rank))
    return KernelReport(basis=basis, dimension=rank)
