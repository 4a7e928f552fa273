"""Finite balls of the tree acted on by the fundamental group of a graph of
lattice groups.

Vertices of the tree correspond to cosets of vertex groups.  A finite ball,
with each vertex carrying the holonomy label accumulated along its root path,
is enough to measure which halfspaces carry the holonomy.  ``build_ball``
materializes a ball: vertices live in breadth-first order inside parallel
numpy arrays, and ``halfspace`` / ``carries_holonomy`` score it.  Labels are
interned so the number of exact matrix products is proportional to the
number of distinct labels, not ball size.

The classifier never materializes a ball.  A vertex's subtree depends only
on its state (vertex type, the edge-end it arrived by, its label), so
``_state_coverage`` keeps one exact count per state and depth and scores the
same coverage reports from those counts.

Coset indices are bookkeeping tags that make sibling subtrees distinct; they
never enter the label arithmetic.
"""

from __future__ import annotations

import os
from array import array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .core_algebra import RatMatrix, gl_distance_table
from .errors import BallTooLarge, EdgeNotInBall, EmptyHalfspace
from .graph_of_groups import GraphOfGroups

DEFAULT_VERTEX_CAP = 2_000_000
CAP_ENV_VAR = "COARSEBUNDLE_VERTEX_CAP"

IOTA_SIDE = "iota-side"
TAU_SIDE = "tau-side"

# Slack for comparing float label distances against a radius.  Distances in
# the corpora are sums of logs of rational singular values, so ties happen
# exactly (for example worst gap == R); the slack absorbs float jitter there.
DISTANCE_TOL = 1e-9


def resolve_vertex_cap(cap: Optional[int]) -> int:
    """Explicit argument wins, then the environment override, then the default."""
    if cap is not None:
        cap = int(cap)
    else:
        raw = os.environ.get(CAP_ENV_VAR)
        cap = int(raw) if raw else DEFAULT_VERTEX_CAP
    if cap < 1:
        raise ValueError("vertex cap must be positive")
    return cap


@dataclass(eq=False)
class TreeBall:
    """Ball of the tree, breadth-first order, parallel arrays.

    ``via_edge_pos[i]`` indexes ``graph.edges`` for the edge crossed from the
    parent (-1 at the root); ``via_forward[i]`` tells whether the crossing ran
    iota to tau; ``via_coset[i]`` is the coset tag.  ``label_ids`` indexes the
    interned ``labels`` tuple.
    """

    graph: GraphOfGroups
    base: str
    radius: int
    vtype: np.ndarray
    parent: np.ndarray
    via_edge_pos: np.ndarray
    via_forward: np.ndarray
    via_coset: np.ndarray
    label_ids: np.ndarray
    depth: np.ndarray
    labels: tuple[RatMatrix, ...]
    sphere_offsets: tuple[int, ...]

    def __post_init__(self) -> None:
        for arr in (self.vtype, self.parent, self.via_edge_pos,
                    self.via_forward, self.via_coset, self.label_ids,
                    self.depth):
            arr.setflags(write=False)

    @property
    def size(self) -> int:
        return int(self.vtype.shape[0])

    def sphere_sizes(self) -> list[int]:
        off = self.sphere_offsets
        return [off[r + 1] - off[r] for r in range(len(off) - 1)]

    def holonomy_label(self, i: int) -> RatMatrix:
        return self.labels[int(self.label_ids[i])]

    def subtree_mask(self, i: int) -> np.ndarray:
        """Boolean mask of the descendants of ``i`` (inclusive).

        Parents precede children in breadth-first order, so the mask floods
        one sphere at a time with a vectorized gather.
        """
        i = int(i)
        mask = np.zeros(self.size, dtype=bool)
        mask[i] = True
        off = self.sphere_offsets
        start_depth = int(self.depth[i]) + 1
        for r in range(start_depth, len(off) - 1):
            lo, hi = off[r], off[r + 1]
            if lo == hi:
                continue
            mask[lo:hi] = mask[self.parent[lo:hi]]
        return mask

    def first_tree_edge(self, edge_id: str, forward: bool) -> Optional[int]:
        """Lowest tree vertex whose incoming edge crosses ``edge_id`` the given way."""
        pos = self._edge_pos(edge_id)
        hits = np.flatnonzero((self.via_edge_pos == pos)
                              & (self.via_forward == bool(forward)))
        return int(hits[0]) if hits.size else None

    def _edge_pos(self, edge_id: str) -> int:
        for pos, e in enumerate(self.graph.edges):
            if e.id == edge_id:
                return pos
        raise KeyError(f"unknown edge id {edge_id!r}")


@dataclass(eq=False)
class Halfspace:
    """One side of a tree edge, as a vertex subset of a ball.

    The tree edge is named by its lower endpoint (every non-root vertex owns
    the edge to its parent).  ``iota-side`` and ``tau-side`` refer to the ends
    of the graph edge the tree edge crosses.
    """

    ball: TreeBall
    edge: int
    side: str
    mask: np.ndarray
    members: np.ndarray

    def __post_init__(self) -> None:
        self.mask.setflags(write=False)
        self.members.setflags(write=False)

    @property
    def member_count(self) -> int:
        return int(self.members.shape[0])


@dataclass(frozen=True)
class CoverageReport:
    """How well one halfspace's labels blanket the whole ball's labels.

    ``covered_fraction`` is exact (a Fraction); ``worst_gap`` is the largest
    distance from any scored vertex label to the halfspace label set.  The
    radius R, the ball depth and the interior margin it was scored at are
    the caller's to state.
    """

    covered_fraction: Fraction
    worst_gap: float

    @property
    def covered(self) -> bool:
        return self.covered_fraction == 1


def _vertex_descriptors(g: GraphOfGroups):
    """Crossing data per graph vertex.

    Returns (descs, crossings) where descs[v] lists tuples
    (edge_pos, forward, coset_count, child_type, crossing_id) ordered by edge
    id with the forward direction first, and crossings is the interned list of
    crossing matrices.
    """
    vindex = {v: i for i, v in enumerate(g.vertices)}
    crossings: list[RatMatrix] = []
    seen: dict[RatMatrix, int] = {}

    def intern(m: RatMatrix) -> int:
        cid = seen.get(m)
        if cid is None:
            cid = len(crossings)
            crossings.append(m)
            seen[m] = cid
        return cid

    descs: list[list[tuple[int, int, int, int, int]]] = [[] for _ in g.vertices]
    order = sorted(range(len(g.edges)), key=lambda p: g.edges[p].id)
    for pos in order:
        e = g.edges[pos]
        fwd_cross = e.crossing()
        fwd_count = abs(e.incl_iota.determinant())
        bwd_count = abs(e.incl_tau.determinant())
        descs[vindex[e.iota]].append(
            (pos, 1, int(fwd_count), vindex[e.tau], intern(fwd_cross)))
        descs[vindex[e.tau]].append(
            (pos, 0, int(bwd_count), vindex[e.iota], intern(fwd_cross.inverse())))
    return descs, crossings


class _LabelTable:
    """Interned holonomy labels.

    ``child(lid, cid)`` is the id of labels[lid] @ crossings[cid]; each
    distinct (label, crossing) pair costs one exact matrix product.
    """

    def __init__(self, rank: int, crossings: list[RatMatrix]):
        identity = RatMatrix.identity(rank)
        self.labels: list[RatMatrix] = [identity]
        self._lookup: dict[RatMatrix, int] = {identity: 0}
        self._memo: dict[tuple[int, int], int] = {}
        self._crossings = crossings

    def child(self, lid: int, cid: int) -> int:
        clid = self._memo.get((lid, cid))
        if clid is None:
            m = self.labels[lid] @ self._crossings[cid]
            clid = self._lookup.setdefault(m, len(self.labels))
            if clid == len(self.labels):
                self.labels.append(m)
            self._memo[(lid, cid)] = clid
        return clid


def _next_sphere(descs, sphere: dict, child_label) -> dict:
    """Vertex counts of the next sphere, keyed by state.

    A state is (vertex type, edge position, forward flag, label id) of the
    edge-end a vertex arrived by.  A vertex branches across every coset of
    each incident edge-end, less the one slot that reverses its arrival (the
    backtrack).  Keys are inserted in the order ``build_ball`` first meets
    each state; ``child_label(lid, cid)`` labels the children.
    """
    nxt: dict = {}
    for (vt, ipos, ifwd, lid), c in sphere.items():
        for pos, fwd, count, ctype, cid in descs[vt]:
            branches = count - (pos == ipos and fwd != ifwd)
            if branches > 0:
                key = (ctype, pos, fwd, child_label(lid, cid))
                nxt[key] = nxt.get(key, 0) + c * branches
    return nxt


def _root_state(g: GraphOfGroups, base: str) -> tuple[int, int, int, int]:
    if base not in g.vertices:
        raise KeyError(f"unknown vertex id {base!r}")
    return (g.vertices.index(base), -1, 0, 0)


def projected_ball_sizes(g: GraphOfGroups, base: str, radius: int
                         ) -> list[int]:
    """Exact cumulative tree-ball sizes, by counting vertex states only.

    Entry r is the number of tree vertices within distance r of the coset
    of ``base``.  Labels are left out of the states (all read 0), so this
    predicts the exact size of build_ball's vertex set without computing a
    single holonomy label.
    """
    sphere = {_root_state(g, base): 1}
    descs, _ = _vertex_descriptors(g)
    sizes = [1]
    for _ in range(radius):
        sphere = _next_sphere(descs, sphere, lambda lid, cid: 0)
        sizes.append(sizes[-1] + sum(sphere.values()))
    return sizes


def build_ball(g: GraphOfGroups, base: str, radius: int,
               cap: Optional[int] = None) -> TreeBall:
    """Grow the ball of the given radius around the coset of ``base``.

    Children of a vertex enumerate, per incident (edge, direction), the full
    coset count of the corresponding inclusion, minus one slot when that pair
    reversed is the incoming edge (the backtrack).  Vertex order, and hence
    every downstream report, is deterministic.
    """
    base_idx = _root_state(g, base)[0]
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    cap_value = resolve_vertex_cap(cap)

    descs, crossings = _vertex_descriptors(g)

    vtype = array("i", [base_idx])
    parent = array("i", [-1])
    via_pos = array("i", [-1])
    via_fwd = array("b", [0])
    via_coset = array("i", [-1])
    label_ids = array("i", [0])

    table = _LabelTable(g.rank, crossings)
    child_label = table.child

    sphere_offsets = [0, 1]
    vt_append = vtype.append
    pa_append = parent.append
    vp_append = via_pos.append
    vf_append = via_fwd.append
    vc_append = via_coset.append
    li_append = label_ids.append

    for r in range(radius):
        lo, hi = sphere_offsets[r], sphere_offsets[r + 1]
        for i in range(lo, hi):
            ipos = via_pos[i]
            ifwd = via_fwd[i]
            lid = label_ids[i]
            for pos, fwd, count, ctype, cid in descs[vtype[i]]:
                first = 1 if (pos == ipos and fwd != ifwd) else 0
                if count <= first:
                    continue
                clid = child_label(lid, cid)
                for c in range(first, count):
                    pa_append(i)
                    vt_append(ctype)
                    vp_append(pos)
                    vf_append(fwd)
                    vc_append(c)
                    li_append(clid)
            if len(parent) > cap_value:
                raise BallTooLarge(cap_value)
        sphere_offsets.append(len(parent))

    depth = np.repeat(
        np.arange(radius + 1, dtype=np.int16),
        np.diff(np.asarray(sphere_offsets, dtype=np.int64)))
    return TreeBall(
        graph=g,
        base=base,
        radius=radius,
        vtype=np.asarray(vtype, dtype=np.int32),
        parent=np.asarray(parent, dtype=np.int32),
        via_edge_pos=np.asarray(via_pos, dtype=np.int32),
        via_forward=np.asarray(via_fwd, dtype=bool),
        via_coset=np.asarray(via_coset, dtype=np.int32),
        label_ids=np.asarray(label_ids, dtype=np.int32),
        depth=depth,
        labels=tuple(table.labels),
        sphere_offsets=tuple(sphere_offsets),
    )


def halfspace(ball: TreeBall, e: int, side: str) -> Halfspace:
    """The vertex set on one side of tree edge ``e`` (named by its child end)."""
    if side not in (IOTA_SIDE, TAU_SIDE):
        raise ValueError(f"side must be {IOTA_SIDE!r} or {TAU_SIDE!r}")
    if not isinstance(e, (int, np.integer)) or not 1 <= int(e) < ball.size:
        raise EdgeNotInBall(e)
    e = int(e)
    sub = ball.subtree_mask(e)
    child_on_tau_side = bool(ball.via_forward[e])
    take_subtree = (side == TAU_SIDE) == child_on_tau_side
    mask = sub if take_subtree else ~sub
    members = np.flatnonzero(mask).astype(np.int32)
    return Halfspace(ball=ball, edge=e, side=side, mask=mask, members=members)


def carries_holonomy(ball: TreeBall, h: Halfspace, R: float,
                     interior_margin: int = 0) -> CoverageReport:
    """Score how much of the ball's label set the halfspace covers at radius R.

    A vertex is covered when some halfspace member label is within R of its
    label.  ``interior_margin`` > 0 scores only vertices whose depth leaves
    that much room before the shell while still matching against the full
    halfspace.
    """
    if h.member_count == 0:
        raise EmptyHalfspace()
    depth_limit = max(0, ball.radius - max(0, int(interior_margin)))
    targets = Counter(ball.label_ids[ball.depth <= depth_limit].tolist())
    return _score(ball.labels, np.unique(ball.label_ids[h.members]),
                  targets, R)


def _score(labels, present, targets: Counter, R: float) -> CoverageReport:
    """Coverage of the target label counts (label id -> vertices) by the
    label ids ``present`` in a halfspace, at radius R."""
    hs_labels = [labels[int(j)] for j in sorted(present)]
    dist = gl_distance_table(labels, hs_labels).min(axis=1)
    covered = sum(c for lid, c in targets.items()
                  if dist[lid] <= R + DISTANCE_TOL)
    return CoverageReport(
        covered_fraction=Fraction(covered, sum(targets.values())),
        worst_gap=float(max(dist[lid] for lid in targets)))


def _state_coverage(g: GraphOfGroups, base: str, radius: int, R: float,
                    interior_margin: int):
    """Both halfspace reports of one representative tree edge per graph edge.

    Same result as ``build_ball`` -> ``first_tree_edge`` -> ``halfspace`` ->
    ``carries_holonomy``, computed from per-depth counts of vertex states
    (vertex type, edge position, forward flag, label id) instead of
    vertices.  Each sphere is a dict state -> vertex count whose insertion
    order is the order in which ``build_ball`` first meets each state, so
    label ids and representative edges come out identical.

    Returns a list of (edge id, (iota-side report, tau-side report)) in
    edge-id order; the pair is None when no tree edge of the ball crosses
    that graph edge.
    """
    root = _root_state(g, base)
    descs, crossings = _vertex_descriptors(g)
    table = _LabelTable(g.rank, crossings)
    labels = table.labels

    def grow(state, steps: int) -> list[dict]:
        """Spheres 0..steps of the subtree below one vertex in ``state``."""
        spheres = [{state: 1}]
        for _ in range(steps):
            spheres.append(_next_sphere(descs, spheres[-1], table.child))
        return spheres

    def label_counts(spheres) -> Counter:
        out: Counter = Counter()
        for sphere in spheres:
            for (_, _, _, lid), c in sphere.items():
                out[lid] += c
        return out

    spheres = grow(root, radius)
    whole = label_counts(spheres)
    targets = label_counts(
        spheres[:max(0, radius - max(0, int(interior_margin))) + 1])

    rows = []
    for pos in sorted(range(len(g.edges)), key=lambda p: g.edges[p].id):
        rep = next(((d, state) for fwd in (1, 0)
                    for d, sphere in enumerate(spheres) for state in sphere
                    if state[1] == pos and state[2] == fwd), None)
        if rep is None:
            rows.append((g.edges[pos].id, None))
            continue
        d, state = rep
        sub = label_counts(grow(state, radius - d))
        inside = _score(labels, sub, targets, R)
        outside = _score(labels, (lid for lid, c in whole.items()
                                  if c > sub[lid]), targets, R)
        # a tree edge crossed iota to tau has its subtree on the tau side
        pair = (outside, inside) if state[2] else (inside, outside)
        rows.append((g.edges[pos].id, pair))
    return rows
