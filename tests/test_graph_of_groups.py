"""Graphs of lattices: construction, holonomy, reduction, serialization."""

import random
from fractions import Fraction

import pytest

from coarsebundle import graph_of_groups as gog
from coarsebundle.core_algebra import IntMatrix, RatMatrix
from coarsebundle.errors import (
    Disconnected,
    NotUnimodular,
    RankMismatch,
    SingularInclusion,
    ZeroParameter,
)
from coarsebundle.graph_of_groups import (
    Edge,
    GraphOfGroups,
    bs,
    detect_ascending_hnn,
    from_json_dict,
    modular_holonomy,
    semidirect,
    to_json_dict,
)


def _rand_gog(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return bs(rng.randint(1, 5), rng.randint(1, 5))
    if kind == 1:
        shear = IntMatrix([[1, rng.randint(-3, 3)], [0, 1]])
        return semidirect(2, [shear])
    vertices = ("a", "b")
    return GraphOfGroups(rank=1, vertices=vertices, edges=(
        Edge("e0", "a", "b", IntMatrix([[rng.randint(1, 4)]]),
             IntMatrix([[rng.randint(1, 4)]])),
        Edge("e1", "b", "a", IntMatrix([[rng.randint(1, 4)]]),
             IntMatrix([[rng.randint(1, 4)]])),
    ))


# ---------------------------------------------------------------------------
# construction and validation


def test_bs_shape():
    g = bs(2, 3)
    assert g.rank == 1
    assert g.vertices == ("v",)
    (e,) = g.edges
    assert e.iota == e.tau == "v"
    assert e.incl_iota == IntMatrix([[2]])
    assert e.incl_tau == IntMatrix([[3]])
    assert g.betti_number() == 1


def test_bs_rejects_zero_parameters():
    with pytest.raises(ZeroParameter):
        bs(0, 3)
    with pytest.raises(ZeroParameter):
        bs(2, 0)


def test_semidirect_requires_unimodular_generators():
    with pytest.raises(NotUnimodular):
        semidirect(2, [IntMatrix([[2, 0], [0, 1]])])
    with pytest.raises(RankMismatch):
        semidirect(2, [IntMatrix([[1]])])
    g = semidirect(2, [IntMatrix([[1, 1], [0, 1]]),
                       IntMatrix([[0, -1], [1, 0]])])
    assert len(g.edges) == 2
    assert g.betti_number() == 2


def test_validation_errors():
    ident = IntMatrix([[1]])
    with pytest.raises(ValueError):
        GraphOfGroups(rank=1, vertices=("v", "v"), edges=())
    with pytest.raises(RankMismatch):
        GraphOfGroups(rank=0, vertices=("v",), edges=())
    with pytest.raises(ValueError):
        GraphOfGroups(rank=1, vertices=("v",), edges=(
            Edge("e", "v", "w", ident, ident),))
    with pytest.raises(SingularInclusion):
        GraphOfGroups(rank=1, vertices=("v",), edges=(
            Edge("e", "v", "v", IntMatrix([[0]]), ident),))
    with pytest.raises(Disconnected):
        GraphOfGroups(rank=1, vertices=("v", "w"), edges=())
    with pytest.raises(RankMismatch):
        GraphOfGroups(rank=2, vertices=("v",), edges=(
            Edge("e", "v", "v", ident, ident),))


# ---------------------------------------------------------------------------
# holonomy


def test_bs_holonomy_value():
    rep = modular_holonomy(bs(2, 3))
    (edge_id, mat), = rep.generators
    assert edge_id == "e"
    assert mat == RatMatrix([[Fraction(3, 2)]])


def test_semidirect_holonomy_is_the_generator():
    a = IntMatrix([[2, 1], [1, 1]])
    rep = modular_holonomy(semidirect(2, [a]))
    (_, mat), = rep.generators
    assert mat == a.to_rat()


def test_holonomy_crossing_direction():
    # two-vertex graph: crossing iota -> tau composes incl_tau o incl_iota^-1
    g = GraphOfGroups(rank=1, vertices=("a", "b"), edges=(
        Edge("e0", "a", "b", IntMatrix([[2]]), IntMatrix([[3]])),
        Edge("e1", "a", "b", IntMatrix([[1]]), IntMatrix([[1]])),
    ))
    rep = modular_holonomy(g, basepoint="a")
    mats = dict(rep.generators)
    # the loop crosses e0 forward then e1 backward: (3/2) * (1/1) inverse order
    assert len(mats) == 1
    (mat,) = mats.values()
    assert mat in (RatMatrix([[Fraction(3, 2)]]), RatMatrix([[Fraction(2, 3)]]))


def test_holonomy_basepoint_conjugacy():
    g = GraphOfGroups(rank=1, vertices=("a", "b"), edges=(
        Edge("e0", "a", "b", IntMatrix([[2]]), IntMatrix([[3]])),
        Edge("e1", "b", "a", IntMatrix([[5]]), IntMatrix([[1]])),
    ))
    rep_a = modular_holonomy(g, basepoint="a")
    rep_b = modular_holonomy(g, basepoint="b")
    # in GL1 conjugation is trivial, so generator sets agree exactly
    assert {m for _, m in rep_a.generators} == {m for _, m in rep_b.generators}


# ---------------------------------------------------------------------------
# reduction


def test_reduce_collapses_unimodular_tree_edges():
    g = GraphOfGroups(rank=1, vertices=("a", "b"), edges=(
        Edge("bridge", "a", "b", IntMatrix([[1]]), IntMatrix([[2]])),
        Edge("loop", "b", "b", IntMatrix([[2]]), IntMatrix([[3]])),
    ))
    r = gog.reduce(g)
    assert len(r.vertices) == 1
    assert len(r.edges) == 1
    assert r.edges[0].id == "loop"


def test_reduce_keeps_edges_without_a_collapsible_shape():
    # a bridge with no unimodular end and a loop with one both survive
    bridge = GraphOfGroups(rank=1, vertices=("a", "b"), edges=(
        Edge("e", "a", "b", IntMatrix([[2]]), IntMatrix([[3]])),
    ))
    assert gog.reduce(bridge) == bridge
    loop = GraphOfGroups(rank=1, vertices=("v",), edges=(
        Edge("e", "v", "v", IntMatrix([[1]]), IntMatrix([[2]])),
    ))
    assert gog.reduce(loop) == loop


def test_reduce_composes_inclusions_along_a_chain():
    # u -a- v -b- w with a loop c at w: v folds into u through
    # [[2, -2], [0, 1]], then w into u through [[-2, 6], [1, 0]]
    g = GraphOfGroups(rank=2, vertices=("u", "v", "w"), edges=(
        Edge("a", "u", "v", IntMatrix([[2, 0], [0, 1]]),
             IntMatrix([[1, 1], [0, 1]])),
        Edge("b", "v", "w", IntMatrix([[3, 0], [0, 1]]),
             IntMatrix([[0, 1], [1, 0]])),
        Edge("c", "w", "w", IntMatrix([[1, 0], [0, 2]]),
             IntMatrix([[2, 0], [0, 1]])),
    ))
    assert to_json_dict(gog.reduce(g)) == {
        "rank": 2,
        "vertices": ["u"],
        "edges": [{"id": "c", "from": "u", "to": "u",
                   "incl_from": [[-2, 12], [1, 0]],
                   "incl_to": [[-4, 6], [2, 0]]}],
    }


def test_reduce_is_confluent_on_corpus():
    rng = random.Random(42)
    for _ in range(40):
        g = _rand_gog(rng)
        once = gog.reduce(g)
        twice = gog.reduce(once)
        assert to_json_dict(once) == to_json_dict(twice)


def test_reduce_preserves_holonomy_class_rank_one():
    # in rank one conjugation is trivial: multiset of loop holonomies from
    # any basepoint is a complete invariant of the reduction
    rng = random.Random(7)
    for _ in range(40):
        g = _rand_gog(rng)
        if g.rank != 1:
            continue
        before = sorted(abs(m[0, 0])
                        for _, m in modular_holonomy(g).generators)
        after = sorted(abs(m[0, 0])
                       for _, m in modular_holonomy(gog.reduce(g)).generators)
        assert before == after


def test_detect_ascending_hnn():
    form = detect_ascending_hnn(bs(1, 2))
    assert form is not None
    assert form.strict
    assert form.endomorphism == IntMatrix([[2]])
    assert detect_ascending_hnn(bs(2, 3)) is None
    trivial = detect_ascending_hnn(bs(1, 1))
    assert trivial is not None and not trivial.strict


def test_detect_ascending_hnn_after_reduction():
    # a cosmetic bridge must not hide the HNN form
    g = GraphOfGroups(rank=1, vertices=("a", "b"), edges=(
        Edge("bridge", "a", "b", IntMatrix([[1]]), IntMatrix([[1]])),
        Edge("loop", "b", "b", IntMatrix([[1]]), IntMatrix([[3]])),
    ))
    form = detect_ascending_hnn(g)
    assert form is not None
    assert form.endomorphism == IntMatrix([[3]])


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip_and_determinism():
    rng = random.Random(99)
    for _ in range(30):
        g = _rand_gog(rng)
        doc = to_json_dict(g)
        back = from_json_dict(doc)
        assert back == g
        assert to_json_dict(back) == doc


def test_json_dict_is_plain_data():
    import json
    doc = to_json_dict(bs(2, 3))
    text = json.dumps(doc, sort_keys=True)
    assert json.loads(text) == doc
