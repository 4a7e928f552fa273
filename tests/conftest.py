"""Fixtures shared by more than one test module."""

import random

import pytest

from coarsebundle import Edge, GraphOfGroups, IntMatrix, bs, semidirect


def _random_gog(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return bs(rng.randint(1, 6), rng.randint(1, 6))
    if kind == 1:
        word = IntMatrix.identity(2)
        for _ in range(rng.randint(1, 4)):
            a = rng.randint(-2, 2)
            elem = ([[1, a], [0, 1]] if rng.random() < 0.5
                    else [[1, 0], [a, 1]])
            word = word @ IntMatrix(elem)
        return semidirect(2, [word])
    n_vertices = rng.randint(1, 3)
    vertices = tuple(f"v{i}" for i in range(n_vertices))
    edges = []
    for i in range(1, n_vertices):
        edges.append(Edge(
            f"path{i}", vertices[rng.randrange(i)], vertices[i],
            IntMatrix([[rng.randint(1, 3)]]),
            IntMatrix([[rng.randint(1, 3)]])))
    for j in range(rng.randint(0, 2)):
        edges.append(Edge(
            f"extra{j}", rng.choice(vertices), rng.choice(vertices),
            IntMatrix([[rng.randint(1, 3)]]),
            IntMatrix([[rng.randint(1, 3)]])))
    if not edges:
        edges.append(Edge("loop", vertices[0], vertices[0],
                          IntMatrix([[1]]), IntMatrix([[1]])))
    return GraphOfGroups(rank=1, vertices=vertices, edges=tuple(edges))


@pytest.fixture(scope="session")
def trichotomy_corpus():
    """The acceptance-10 corpus: 50 seeded random graphs of groups, a third
    each BS graphs, rank-2 semidirect products and rank-1 graphs of up to
    three vertices."""
    rng = random.Random(20260814)
    return [_random_gog(rng) for _ in range(50)]
