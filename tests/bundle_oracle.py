"""Reference window builder and BFS for the bundle tests.

This is the dict-of-tuples construction `bundle_lab.build_total_space` used
before windows became arrays: every vertex is a ``(fiber tuple, base
vertex)`` key with a neighbor list, filled one point at a time, and
`ball_growth` is a deque BFS over those lists.  The tests compare the array
windows against it vertex by vertex.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from coarsebundle.bass_serre import resolve_vertex_cap
from coarsebundle.bundle_lab import (GrowthSeries, Tabulated, _base_graph,
                                     _fiber_box, _window_interval)
from coarsebundle.errors import NonBijectiveTabulated, WindowTooLarge


@dataclass
class OracleWindow:
    fiber_dim: int
    origin: tuple
    adjacency: dict
    clipped: frozenset
    fiber_edges: tuple
    gluing_edges: tuple


def oracle_total_space(spec, base_window, fiber_window, origin, cap=None):
    cap = resolve_vertex_cap(cap)
    base_vertices, base_edges, base_boundary = _base_graph(spec, base_window)
    fiber_points = _fiber_box(fiber_window, spec.fiber_dim)
    if len(base_vertices) * len(fiber_points) > cap:
        raise WindowTooLarge(cap)

    fiber_set = set(fiber_points)
    origin_f, origin_b = origin
    if isinstance(origin_f, int):
        origin_f = (origin_f,)
    origin = (tuple(origin_f), origin_b)

    adjacency: dict = {}
    for b in base_vertices:
        for f in fiber_points:
            adjacency[(f, b)] = []
    if origin not in adjacency:
        raise ValueError("origin lies outside the windows")

    clipped = set()
    fiber_edges = []
    gluing_edges = []

    flo, fhi = _window_interval(fiber_window)
    unit = [tuple(1 if j == i else 0 for j in range(spec.fiber_dim))
            for i in range(spec.fiber_dim)]
    on_face = [f for f in fiber_points if flo in f or fhi in f]
    for b in base_vertices:
        rim = fiber_points if b in base_boundary else on_face
        clipped.update((f, b) for f in rim)
        for f in fiber_points:
            for e_i in unit:
                g = tuple(x + d for x, d in zip(f, e_i))
                if g in fiber_set:
                    adjacency[(f, b)].append((g, b))
                    adjacency[(g, b)].append((f, b))
                    fiber_edges.append(((f, b), (g, b)))

    fiber_arr = np.array(fiber_points, dtype=np.int64)
    for (b, b2) in base_edges:
        gmap = spec.map_for((b, b2))
        # forward images by `apply`, in Python ints, so they cannot wrap
        image: dict = {}
        for f in fiber_points:
            img = gmap.apply(b, f)
            if img in image:
                raise NonBijectiveTabulated(
                    f"gluing over base edge {(b, b2)!r} sends both "
                    f"{image[img]!r} and {f!r} to {img!r}")
            image[img] = f
        for img, f in image.items():
            if img in fiber_set:
                adjacency[(f, b)].append((img, b2))
                adjacency[(img, b2)].append((f, b))
                gluing_edges.append(((f, b), (img, b2)))
            else:
                clipped.add((f, b))
        if isinstance(gmap, Tabulated):
            # a map monotone on the window is taken to be monotone on Z, so
            # only a point outside its images' span can have its preimage
            # outside the window; otherwise any point not mapped onto can
            values = [img[0] for img in image]
            steps = [v - u for u, v in zip(values, values[1:])]
            if all(d > 0 for d in steps) or all(d < 0 for d in steps):
                clipped.update((f, b2) for f in fiber_points
                               if not min(values) <= f[0] <= max(values))
            else:
                clipped.update((f, b2) for f in fiber_points
                               if f not in image)
            continue
        # the float back-clip of the library's int64 path
        mat = np.array(gmap.matrix.rows, dtype=np.int64)
        shift = np.array(gmap.vector, dtype=np.int64)
        pre_f = np.linalg.solve(mat.astype(float), (fiber_arr - shift).T).T
        cand = np.rint(pre_f).astype(np.int64)
        exact = np.all(cand @ mat.T + shift == fiber_arr, axis=1)
        pre_inside = np.all((cand >= flo) & (cand <= fhi), axis=1)
        for f, good, pin in zip(fiber_points, exact.tolist(),
                                pre_inside.tolist()):
            if good and not pin:
                clipped.add((f, b2))

    return OracleWindow(fiber_dim=spec.fiber_dim, origin=origin,
                        adjacency=adjacency, clipped=frozenset(clipped),
                        fiber_edges=tuple(fiber_edges),
                        gluing_edges=tuple(gluing_edges))


def oracle_ball_growth(ball: OracleWindow, rmax: int) -> GrowthSeries:
    if ball.origin in ball.clipped:
        raise ValueError("origin is clipped; enlarge the windows")
    dist = {ball.origin: 0}
    queue = deque([ball.origin])
    sphere_counts = [0] * (rmax + 1)
    sphere_counts[0] = 1
    min_clip = math.inf
    while queue:
        u = queue.popleft()
        du = dist[u]
        if du >= rmax:
            continue
        for w in ball.adjacency[u]:
            if w not in dist:
                d = du + 1
                dist[w] = d
                sphere_counts[d] += 1
                if w in ball.clipped and d < min_clip:
                    min_clip = d
                queue.append(w)
    counts = []
    acc = 0
    for r in range(rmax + 1):
        acc += sphere_counts[r]
        counts.append(acc)
    flags = tuple(r < min_clip for r in range(rmax + 1))
    return GrowthSeries(counts=tuple(counts), flags=flags)
