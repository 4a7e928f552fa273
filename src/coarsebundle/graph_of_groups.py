"""Homogeneous graphs of Z^n groups and their modular holonomy.

A graph of groups here is a finite connected graph whose vertex and edge
groups are all Z^n, with each edge end carrying an injective n x n integer
matrix (the inclusion of the edge lattice into the vertex lattice).  The
fundamental group acts on the fiber lattice commensurably; the induced
representation of the free fundamental group of the underlying graph into
GL_n(Q) is the modular holonomy computed below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core_algebra import IntMatrix, RatMatrix
from .errors import (
    Disconnected,
    NotUnimodular,
    RankMismatch,
    SingularInclusion,
    ZeroParameter,
)


@dataclass(frozen=True)
class Edge:
    """Edge with inclusions at both ends.

    incl_iota maps the edge lattice into the vertex lattice at iota, incl_tau
    likewise at tau.  Crossing the edge from iota to tau acts on fiber
    coordinates by incl_tau . incl_iota^-1.
    """

    id: str
    iota: str
    tau: str
    incl_iota: IntMatrix
    incl_tau: IntMatrix

    def crossing(self) -> RatMatrix:
        return self.incl_tau @ self.incl_iota.inverse()


@dataclass(frozen=True)
class GraphOfGroups:
    rank: int
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.rank < 1:
            raise RankMismatch("fiber rank must be at least 1")
        if not self.vertices:
            raise ValueError("graph needs at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        if len({e.id for e in self.edges}) != len(self.edges):
            raise ValueError("duplicate edge ids")
        vset = set(self.vertices)
        for e in self.edges:
            if e.iota not in vset or e.tau not in vset:
                raise ValueError(f"edge {e.id!r} touches an unknown vertex")
            for m in (e.incl_iota, e.incl_tau):
                if m.n != self.rank:
                    raise RankMismatch(
                        f"edge {e.id!r} inclusion is {m.n}x{m.n}, expected rank {self.rank}"
                    )
            if e.incl_iota.determinant() == 0 or e.incl_tau.determinant() == 0:
                raise SingularInclusion(e.id)
        # connectivity (edges taken undirected)
        seen = {self.vertices[0]}
        frontier = [self.vertices[0]]
        adj: dict[str, list[str]] = {v: [] for v in self.vertices}
        for e in self.edges:
            adj[e.iota].append(e.tau)
            adj[e.tau].append(e.iota)
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        if seen != vset:
            raise Disconnected(f"{len(vset) - len(seen)} vertices unreachable")

    def betti_number(self) -> int:
        return len(self.edges) - len(self.vertices) + 1


def bs(m: int, n: int) -> GraphOfGroups:
    """One vertex, one loop, inclusions (m) and (n).

    The fundamental group is the Baumslag-Solitar group with parameters m, n;
    the loop's holonomy is n/m.  Negative parameters are allowed and carry
    their sign into GL_1(Q).
    """
    if m == 0 or n == 0:
        raise ZeroParameter("bs parameters must be nonzero")
    return GraphOfGroups(
        rank=1,
        vertices=("v",),
        edges=(Edge("e", "v", "v", IntMatrix([[m]]), IntMatrix([[n]])),),
    )


def semidirect(n: int, gens: list[IntMatrix]) -> GraphOfGroups:
    """Mapping torus of Z^n over a rose: one vertex, one loop per generator.

    Each loop has identity inclusion at iota and the generator at tau, so the
    loop's holonomy is exactly the generator.  Generators must be unimodular.
    """
    for g in gens:
        if g.n != n:
            raise RankMismatch(f"generator is {g.n}x{g.n}, expected {n}x{n}")
        if not g.is_unimodular():
            raise NotUnimodular(f"generator {g!r} has |det| != 1")
    ident = IntMatrix.identity(n)
    edges = tuple(
        Edge(f"e{i}", "v", "v", ident, g) for i, g in enumerate(gens)
    )
    return GraphOfGroups(rank=n, vertices=("v",), edges=edges)


# -- modular holonomy --------------------------------------------------------

@dataclass(frozen=True)
class HolonomyRep:
    """Free generators of the modular holonomy in basepoint fiber coordinates.

    One generator per non-tree edge, listed in edge-id order; tree transports
    map basepoint coordinates to each vertex's coordinates along the BFS tree.
    """

    basepoint: str
    tree_edges: frozenset[str]
    transports: dict[str, RatMatrix]
    generators: tuple[tuple[str, RatMatrix], ...]

    def generator_matrices(self) -> list[RatMatrix]:
        return [m for _, m in self.generators]


def modular_holonomy(g: GraphOfGroups, basepoint: Optional[str] = None) -> HolonomyRep:
    """Holonomy representation of the free fundamental group of the graph.

    BFS spanning tree rooted at the basepoint (vertices and edges visited in
    sorted-id order).  Each non-tree edge e contributes the free generator

        transport(tau)^-1 . crossing(e) . transport(iota)

    where crossing(e) = incl_tau . incl_iota^-1.  For bs(m, n) this yields the
    single generator (n/m): conjugation by the stable letter carries the
    index-m fiber subgroup onto the index-n one.
    """
    base = basepoint if basepoint is not None else min(g.vertices)
    if base not in g.vertices:
        raise KeyError(f"no vertex {base!r}")
    transports: dict[str, RatMatrix] = {base: RatMatrix.identity(g.rank)}
    tree: list[str] = []
    queue = [base]
    edges_sorted = sorted(g.edges, key=lambda e: e.id)
    while queue:
        v = queue.pop(0)
        for e in edges_sorted:
            for src, dst, fwd in ((e.iota, e.tau, True), (e.tau, e.iota, False)):
                if src == v and dst not in transports:
                    cross = e.crossing() if fwd else e.crossing().inverse()
                    transports[dst] = cross @ transports[v]
                    tree.append(e.id)
                    queue.append(dst)
    tree_set = frozenset(tree)
    gens = []
    for e in edges_sorted:
        if e.id in tree_set:
            continue
        gen = transports[e.tau].inverse() @ e.crossing() @ transports[e.iota]
        gens.append((e.id, gen))
    return HolonomyRep(base, tree_set, transports, tuple(gens))


# -- reduction ---------------------------------------------------------------

def reduce(g: GraphOfGroups) -> GraphOfGroups:
    """Collapse collapsible edges (sorted-id order) until none remain.

    An edge collapses when it is not a loop and one of its inclusions is an
    isomorphism.  The vertex at that end is absorbed into the other, and the
    inclusions of surviving edges at the removed vertex are composed with
    the change-of-basis matrix.
    """
    while True:
        e = next((e for e in sorted(g.edges, key=lambda e: e.id)
                  if e.iota != e.tau and (e.incl_iota.is_unimodular()
                                          or e.incl_tau.is_unimodular())),
                 None)
        if e is None:
            return g
        if e.incl_tau.is_unimodular():
            survivor, removed = e.iota, e.tau
            cob = (e.incl_iota @ e.incl_tau.inverse()).to_int_matrix()
        else:
            survivor, removed = e.tau, e.iota
            cob = (e.incl_tau @ e.incl_iota.inverse()).to_int_matrix()
        new_edges = []
        for f in g.edges:
            if f.id == e.id:
                continue
            incl_i, incl_t = f.incl_iota, f.incl_tau
            iota, tau = f.iota, f.tau
            if iota == removed:
                iota = survivor
                incl_i = cob @ incl_i
            if tau == removed:
                tau = survivor
                incl_t = cob @ incl_t
            new_edges.append(Edge(f.id, iota, tau, incl_i, incl_t))
        g = GraphOfGroups(
            rank=g.rank,
            vertices=tuple(v for v in g.vertices if v != removed),
            edges=tuple(new_edges),
        )


@dataclass(frozen=True)
class AscendingHnnForm:
    """Reduced one-vertex one-loop form with an isomorphic end.

    endomorphism is the integral composition of the non-isomorphic inclusion
    with the inverse of the isomorphic one; strict means |det| > 1 (proper
    ascending extension).
    """

    graph: GraphOfGroups
    edge_id: str
    iso_end: str  # "iota" or "tau"
    endomorphism: IntMatrix
    strict: bool


def detect_ascending_hnn(g: GraphOfGroups) -> Optional[AscendingHnnForm]:
    """Reduce and recognize the ascending HNN shape, if present."""
    r = reduce(g)
    if len(r.vertices) != 1 or len(r.edges) != 1:
        return None
    e = r.edges[0]
    if e.iota != e.tau:
        return None
    if e.incl_iota.is_unimodular():
        endo = (e.incl_tau @ e.incl_iota.inverse()).to_int_matrix()
        iso_end = "iota"
    elif e.incl_tau.is_unimodular():
        endo = (e.incl_iota @ e.incl_tau.inverse()).to_int_matrix()
        iso_end = "tau"
    else:
        return None
    strict = abs(endo.determinant()) > 1
    return AscendingHnnForm(r, e.id, iso_end, endo, strict)


# -- JSON document -----------------------------------------------------------

def to_json_dict(g: GraphOfGroups) -> dict:
    return {
        "rank": g.rank,
        "vertices": list(g.vertices),
        "edges": [
            {
                "id": e.id,
                "from": e.iota,
                "to": e.tau,
                "incl_from": [list(row) for row in e.incl_iota.rows],
                "incl_to": [list(row) for row in e.incl_tau.rows],
            }
            for e in g.edges
        ],
    }


def from_json_dict(doc: dict) -> GraphOfGroups:
    try:
        rank = int(doc["rank"])
        vertices = tuple(str(v) for v in doc["vertices"])
        edges = tuple(
            Edge(
                str(e["id"]),
                str(e["from"]),
                str(e["to"]),
                IntMatrix(e["incl_from"]),
                IntMatrix(e["incl_to"]),
            )
            for e in doc["edges"]
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed graph document: {exc}") from exc
    return GraphOfGroups(rank=rank, vertices=vertices, edges=edges)
