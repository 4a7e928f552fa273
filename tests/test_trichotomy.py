"""Trichotomy classification and quasi-isometry comparison."""

import pytest

from coarsebundle.bass_serre import (IOTA_SIDE, TAU_SIDE, _state_coverage,
                                     build_ball, carries_holonomy, halfspace,
                                     projected_ball_sizes, resolve_vertex_cap)
from coarsebundle.core_algebra import IntMatrix, RatMatrix, gl_distance
from coarsebundle.errors import BallTooLarge, RankUnsupported
from coarsebundle.graph_of_groups import (Edge, GraphOfGroups, bs,
                                          modular_holonomy, semidirect)
from coarsebundle.trichotomy import (INTERIOR_MARGIN, EdgeCoverage,
                                     _finite_image, classify, qi_compare)


# ---------------------------------------------------------------------------
# rule attribution


def test_trivial_holonomy_is_folded_by_finite_image():
    for m in (1, 2, 5):
        v = classify(bs(m, m))
        assert v.kind == "Folded"
        assert v.evidence.rule == "finite-image"
        assert v.decided


def test_finite_order_holonomy_is_folded():
    rotation = IntMatrix([[0, -1], [1, 0]])
    v = classify(semidirect(2, [rotation]))
    assert v.kind == "Folded"
    assert v.evidence.rule == "finite-image"


def test_order_eight_holonomy_at_rank_4_is_not_proper():
    # C8 has order 8, past the orders 1, 2, 3, 4, 6 of rank <= 3, so only an
    # exact finite-order test keeps rule (c) from calling it free
    c8 = IntMatrix([[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    v = classify(semidirect(4, [c8]))
    assert v.kind == "Folded"
    assert v.evidence.rule == "ball-coverage" and v.evidence.depth == 6


def _permutation(cycle_lengths):
    """Permutation matrix of disjoint cycles on consecutive coordinates."""
    image, start = [], 0
    for length in cycle_lengths:
        image += [start + (k + 1) % length for k in range(length)]
        start += length
    n = len(image)
    return RatMatrix([[int(image[i] == j) for j in range(n)] for i in range(n)])


def test_finite_image_is_exact_at_the_order_twelve_bound():
    # the hexagon's symmetries, D6 in GL2(Z): 12 elements, the largest
    # finite subgroup of GL2(Q)
    rotation = RatMatrix([[1, -1], [1, 0]])
    assert _finite_image([rotation, RatMatrix([[0, 1], [1, 0]])])
    assert _finite_image([RatMatrix([[-1]])])
    # the smallest infinite cases: a shear, a dilation, and the order-6
    # rotation with a reflection that preserves no common form
    assert not _finite_image([RatMatrix([[1, 1], [0, 1]])])
    assert not _finite_image([RatMatrix([[2]])])
    assert not _finite_image([rotation, RatMatrix.diagonal([-1, 1])])
    # the bound is exact only at rank <= 2; a 5-cycle beside a 13-cycle
    # generates a finite group of order 65
    with pytest.raises(RankUnsupported):
        _finite_image([_permutation([5, 13])])


def test_strict_ascent_is_parabolic_with_endomorphism():
    for n in (2, 3, 6):
        v = classify(bs(1, n))
        assert v.kind == "Parabolic"
        assert v.evidence.rule == "ascending-hnn"
        assert v.hnn is not None and v.hnn.strict
        assert v.hnn.endomorphism == IntMatrix([[n]])


def test_unimodular_free_holonomy_is_proper():
    shear = IntMatrix([[1, 1], [0, 1]])
    v = classify(semidirect(2, [shear]))
    assert v.kind == "Proper"
    assert v.evidence.rule == "free-discrete"
    assert v.evidence.freeness is not None
    assert v.evidence.freeness.kind == "PingPong"

    hyperbolic = IntMatrix([[2, 1], [1, 1]])
    v = classify(semidirect(2, [hyperbolic]))
    assert v.kind == "Proper"


def test_incommensurable_scales_are_folded_by_coverage():
    for m, n in ((2, 3), (3, 4), (2, 5)):
        v = classify(bs(m, n))
        assert v.kind == "Folded"
        assert v.evidence.rule == "ball-coverage"
        for row in v.evidence.coverage:
            assert row.iota_side.covered_fraction == 1
            assert row.tau_side.covered_fraction == 1


def test_coverage_survives_labels_singular_in_float64():
    # long products of these labels have entries past 1e16; a float64
    # inverse of them is singular, the exact one is not
    v = classify(semidirect(2, [IntMatrix([[13, -41], [-6, 19]]),
                                IntMatrix([[0, -1], [1, 0]])]))
    assert v.kind == "Undetermined"
    assert v.evidence.rule == "ball-coverage"
    assert v.evidence.depth == 6


def test_depth_shrinks_under_the_vertex_cap():
    v = classify(bs(4, 9))
    assert v.kind == "Folded"
    assert v.evidence.depth == 5  # the depth-6 tree ball would exceed the cap


def test_too_small_cap_gives_undetermined_not_folded():
    v = classify(bs(2, 3), cap=30)
    assert v.kind == "Undetermined"
    assert not v.decided
    assert "cap" in v.evidence.note


def test_cap_below_one_sphere_raises():
    with pytest.raises(BallTooLarge):
        classify(bs(2, 3), cap=3)


@pytest.mark.parametrize("depth", [-1, -3])
def test_a_negative_depth_is_rejected(depth):
    # an input error even where a certificate rule decides without a ball
    for call in (lambda: classify(bs(2, 3), depth=depth),
                 lambda: classify(bs(2, 2), depth=depth),
                 lambda: qi_compare(bs(2, 3), bs(4, 9), depth=depth)):
        with pytest.raises(ValueError, match="depth must be nonnegative"):
            call()


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_a_shallow_requested_depth_is_named_not_the_cap(depth):
    v = classify(bs(2, 3), depth=depth)
    assert v.kind == "Undetermined" and v.evidence.depth == depth
    assert v.evidence.note == "coverage evidence needs depth >= 3"


def test_only_a_depth_the_cap_lowered_cites_the_cap():
    sizes = projected_ball_sizes(bs(2, 3), "v", 6)
    v = classify(bs(2, 3), cap=sizes[2])
    assert v.kind == "Undetermined" and v.evidence.depth == 2
    assert v.evidence.note == ("vertex cap forces a ball too shallow for "
                               "coverage evidence; raise the cap")


def test_verdict_exclusivity_fields():
    cases = [bs(1, 2), bs(2, 2), bs(2, 3),
             semidirect(2, [IntMatrix([[1, 1], [0, 1]])])]
    for g in cases:
        v = classify(g)
        assert v.kind in ("Parabolic", "Folded", "Proper", "Undetermined")
        assert v.decided == (v.kind != "Undetermined")
        assert (v.hnn is not None) == (v.kind == "Parabolic")


# ---------------------------------------------------------------------------
# comparison


def test_same_group_is_same_class():
    c = qi_compare(bs(2, 3), bs(2, 3))
    assert c.verdict == "SameQiClass"


def test_nontrivial_holonomy_classes_agree():
    # BS(2, 3), BS(4, 9) and BS(2, 5) are all quasi-isometric (Whyte)
    for other, holonomy in ((bs(4, 9), "9/4"), (bs(2, 5), "5/2")):
        c = qi_compare(bs(2, 3), other)
        assert c.verdict == "SameQiClass"
        assert "3/2" in c.reason and holonomy in c.reason


def test_trivial_and_nontrivial_holonomy_differ():
    c = qi_compare(bs(2, 2), bs(2, 3))
    assert c.left.kind == c.right.kind == "Folded"
    assert c.verdict == "DifferentQiClass"
    assert c.invariant == "holonomy line class"


def test_folded_same_class_across_presentations():
    f2_z = GraphOfGroups(rank=1, vertices=("v",), edges=(
        Edge("e1", "v", "v", IntMatrix([[1]]), IntMatrix([[1]])),
        Edge("e2", "v", "v", IntMatrix([[1]]), IntMatrix([[1]])),
    ))
    c = qi_compare(bs(2, 2), f2_z)
    assert c.verdict == "SameQiClass"


def test_parabolic_pairs_stay_undetermined():
    c = qi_compare(bs(1, 2), bs(1, 3))
    assert c.verdict == "Undetermined"
    assert c.left.kind == "Parabolic" and c.right.kind == "Parabolic"


def test_different_kinds_differ():
    c = qi_compare(bs(1, 2), bs(2, 3))
    assert c.verdict == "DifferentQiClass"
    shear = semidirect(2, [IntMatrix([[1, 1], [0, 1]])])
    rot = semidirect(2, [IntMatrix([[0, -1], [1, 0]])])
    assert qi_compare(shear, rot).verdict == "DifferentQiClass"


def test_same_kind_different_rank_is_undetermined():
    flat2 = semidirect(2, [IntMatrix.identity(2)])
    c = qi_compare(bs(2, 2), flat2)
    assert c.verdict == "Undetermined"
    assert "rank" in c.reason


# ---------------------------------------------------------------------------
# state-count coverage against the materialized ball


def _resolved_depth(g, depth, cap):
    sizes = projected_ball_sizes(g, min(g.vertices), depth)
    cap_value = resolve_vertex_cap(cap)
    while depth > 1 and sizes[depth] > cap_value:
        depth -= 1
    return depth


def _radius_r(g):
    identity = RatMatrix.identity(g.rank)
    gens = modular_holonomy(g).generator_matrices()
    r = max((gl_distance(m, identity) for m in gens), default=0.0)
    return r if r > 0 else 1.0


def _ball_rows(g, depth, radius_r):
    """Rule (d) on a materialized ball: the path the state counts replace."""
    ball = build_ball(g, min(g.vertices), depth)
    rows = []
    for edge in sorted(g.edges, key=lambda e: e.id):
        rep = ball.first_tree_edge(edge.id, True)
        if rep is None:
            rep = ball.first_tree_edge(edge.id, False)
        if rep is None:
            rows.append(None)
            continue
        rows.append(EdgeCoverage(edge.id, *(
            carries_holonomy(ball, halfspace(ball, rep, side), radius_r,
                             interior_margin=INTERIOR_MARGIN)
            for side in (IOTA_SIDE, TAU_SIDE))))
    return rows


def _assert_state_rows_match_ball(g, depth, cap=None):
    used = _resolved_depth(g, depth, cap)
    radius_r = _radius_r(g)
    state_rows = [None if sides is None else EdgeCoverage(edge_id, *sides)
                  for edge_id, sides in _state_coverage(
                      g, min(g.vertices), used, radius_r,
                      interior_margin=INTERIOR_MARGIN)]
    expected = _ball_rows(g, used, radius_r)
    assert state_rows == expected
    v = classify(g, depth=depth, cap=cap)
    if v.evidence.rule == "ball-coverage" and v.evidence.coverage:
        assert v.evidence.depth == used
        assert list(v.evidence.coverage) == expected
    return expected


@pytest.mark.parametrize("depth", [3, 4, 5, 6])
def test_state_coverage_matches_ball_on_bs_table(depth):
    for m in range(1, 7):
        for n in range(1, 7):
            _assert_state_rows_match_ball(bs(m, n), depth)


@pytest.mark.parametrize("depth", [6, 7])
def test_state_coverage_matches_ball_on_acceptance_corpus(
        depth, trichotomy_corpus):
    for g in trichotomy_corpus:
        _assert_state_rows_match_ball(g, depth, cap=200_000)


def test_state_coverage_matches_ball_away_from_the_base():
    # e1 is reached only from b, two steps out from the base a, and only
    # backwards (its iota inclusion leaves no forward coset after the
    # backtrack), so its representative sits at depth 2 with the subtree on
    # the iota side; on a depth-3 ball the last edge of a long path has no
    # representative at all
    g = GraphOfGroups(rank=1, vertices=("a", "b", "c"), edges=(
        Edge("e0", "a", "b", IntMatrix([[2]]), IntMatrix([[3]])),
        Edge("e1", "c", "b", IntMatrix([[1]]), IntMatrix([[2]])),
    ))
    rows = _assert_state_rows_match_ball(g, 5)
    assert all(row is not None for row in rows)
    ball = build_ball(g, "a", 5)
    assert ball.first_tree_edge("e1", True) is None
    assert int(ball.depth[ball.first_tree_edge("e1", False)]) == 2

    path = GraphOfGroups(rank=1, vertices=("a", "b", "c", "d", "e"), edges=(
        Edge("p1", "a", "b", IntMatrix([[2]]), IntMatrix([[1]])),
        Edge("p2", "b", "c", IntMatrix([[1]]), IntMatrix([[3]])),
        Edge("p3", "c", "d", IntMatrix([[2]]), IntMatrix([[1]])),
        Edge("p4", "d", "e", IntMatrix([[1]]), IntMatrix([[2]])),
    ))
    rows = _assert_state_rows_match_ball(path, 3)
    assert rows[-1] is None and rows[0] is not None
