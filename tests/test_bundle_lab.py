"""Tests for windowed total spaces, growth series, and drift seminorms.

Ball-count oracles are independent: closed forms for lattice balls in the
taxicab metric, a direct brute-force distance count for the rank-3 case,
networkx BFS distances, and the dict-of-tuples reference builder in
`bundle_oracle`.
"""

import dataclasses
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from bundle_oracle import oracle_ball_growth, oracle_total_space

from coarsebundle import (
    GluingSpec,
    IntMatrix,
    Linear,
    RatMatrix,
    Translation,
    ball_growth,
    build_total_space,
    drift_seminorm,
    foliation_kernel,
    growth_class,
    phi_example_spec,
)
from coarsebundle import bundle_lab
from coarsebundle.bundle_lab import (
    Affine,
    FiniteBase,
    NonBijectiveTabulated,
    Tabulated,
    TooFewRadii,
    WindowTooLarge,
    _index_dtype,
)
from coarsebundle.errors import SingularGenerator, SingularMatrix


def line_spec(shift=(0,)):
    return GluingSpec(base="line", fiber_dim=1, edge_map=Translation(shift))


def taxicab_ball_z2(r):
    return 2 * r * r + 2 * r + 1


def taxicab_ball_z3(r):
    return sum(1 for x in range(-r, r + 1) for y in range(-r, r + 1)
               for z in range(-r, r + 1) if abs(x) + abs(y) + abs(z) <= r)


# ---------------------------------------------------------------------------
# gluing maps


def test_translation_applies_its_vector():
    tr = Translation((4, -1))
    assert tr.dim == 2
    assert tr.apply(None, (0, 0)) == (4, -1)


def test_linear_map_applies_the_matrix_exactly():
    lin = Linear(IntMatrix([[2, 1], [1, 1]]))
    assert lin.apply(0, (1, 0)) == (2, 1)


def test_linear_map_rejects_singular_matrices():
    with pytest.raises(SingularMatrix):
        Linear(IntMatrix([[1, 1], [1, 1]]))


def test_affine_map_applies_the_matrix_then_the_shift():
    aff = Affine(IntMatrix([[2]]), (1,))
    assert aff.apply(0, (3,)) == (7,)


def test_translation_and_linear_build_affine_maps():
    assert Translation((4, -1)) == Affine(IntMatrix.identity(2), (4, -1))
    assert Translation(vector=[3]) == Affine(IntMatrix([[1]]), (3,))
    lin = IntMatrix([[2, 1], [1, 1]])
    assert Linear(lin) == Affine(lin, (0, 0))
    assert Linear(matrix=lin).apply(0, (1, 0)) == (2, 1)


def test_spec_validates_base_and_map_dimensions():
    with pytest.raises(ValueError):
        GluingSpec(base="circle", fiber_dim=1, edge_map=Translation((0,)))
    with pytest.raises(ValueError):
        GluingSpec(base="line", fiber_dim=2, edge_map=Translation((0,)))
    with pytest.raises(ValueError):
        GluingSpec(base="line", fiber_dim=1)


def test_per_edge_maps_override_the_default():
    spec = GluingSpec(base="line", fiber_dim=1, edge_map=Translation((0,)),
                      edge_maps={(0, 1): Translation((5,))})
    assert spec.map_for((0, 1)).apply(0, (0,)) == (5,)
    assert spec.map_for((1, 2)).apply(1, (0,)) == (0,)


# ---------------------------------------------------------------------------
# total space construction


def test_trivial_line_bundle_counts_match_taxicab_balls():
    ball = build_total_space(line_spec(), 10, 10, ((0,), 0))
    series = ball_growth(ball, 8)
    for r in series.valid_radii():
        assert series.counts[r] == taxicab_ball_z2(r)
    assert 8 in series.valid_radii()


def test_grid_base_counts_match_brute_force_rank_three_balls():
    spec = GluingSpec(base="grid", fiber_dim=1, edge_map=Translation((0,)))
    ball = build_total_space(spec, 9, 9, ((0,), (0, 0)))
    series = ball_growth(ball, 8)
    assert list(series.counts) == [taxicab_ball_z3(r) for r in range(9)]
    assert all(series.flags)


def test_translation_shift_does_not_change_growth():
    plain = ball_growth(build_total_space(line_spec(), 10, 10, ((0,), 0)), 7)
    shifted = ball_growth(
        build_total_space(line_spec((1,)), 10, 14, ((0,), 0)), 7)
    for r in range(8):
        if plain.flags[r] and shifted.flags[r]:
            assert plain.counts[r] == shifted.counts[r]
    assert plain.flags[7] and shifted.flags[7]


def test_off_center_base_window_carves_a_distant_ball():
    centered = build_total_space(line_spec(), 6, 6, ((0,), 0))
    offset = build_total_space(line_spec(), (94, 106), 6, ((0,), 100))
    a = ball_growth(centered, 5)
    b = ball_growth(offset, 5)
    assert a.counts == b.counts
    assert a.flags == b.flags


def test_finite_base_balls_stay_within_the_window():
    fb = FiniteBase(vertices=("p", "q"), edges=(("p", "q"),))
    spec = GluingSpec(base=fb, fiber_dim=1, edge_map=Linear(IntMatrix([[1]])))
    ball = build_total_space(spec, None, 5, ((0,), "p"))
    assert ball.size == 22
    series = ball_growth(ball, 3)
    assert series.counts[0] == 1
    assert series.counts[1] == 4
    for v in ball.adjacency:
        assert ball.degree(v) == len(ball.adjacency[v])
        assert ball.degree(v) <= 4


def test_clipping_marks_exactly_the_untrusted_radii():
    ball = build_total_space(line_spec(), 4, 4, ((0,), 0))
    series = ball_growth(ball, 6)
    assert series.flags == (True, True, True, True, False, False, False)
    assert list(series.valid_radii()) == [0, 1, 2, 3]


def test_clipped_origin_is_rejected():
    ball = build_total_space(line_spec(), 3, 3, ((3,), 0))
    with pytest.raises(ValueError, match="clipped"):
        ball_growth(ball, 2)


def test_points_on_either_fiber_face_are_clipped():
    ball = build_total_space(line_spec(), 3, 3, ((0,), 0))
    assert ball.degree(((-3,), 0)) == ball.degree(((3,), 0)) == 3
    rim = {(f, b) for (f, b) in ball.adjacency if 3 in (abs(f[0]), abs(b))}
    assert ball.clipped == rim
    spec = GluingSpec(base="grid", fiber_dim=2, edge_map=Translation((0, 0)))
    ball = build_total_space(spec, 2, 2, ((0, 0), (0, 0)))
    # every vertex short of the model degree 4 + 4 lost a neighbor
    assert all(v in ball.clipped for v in ball.adjacency if ball.degree(v) < 8)


def test_window_volume_cap():
    spec = GluingSpec(base="grid", fiber_dim=1, edge_map=Translation((0,)))
    with pytest.raises(WindowTooLarge):
        build_total_space(spec, 100, 100, ((0,), (0, 0)), cap=1000)


def test_window_cap_defaults_to_the_env_var(monkeypatch):
    monkeypatch.setenv("COARSEBUNDLE_VERTEX_CAP", "1000")
    with pytest.raises(WindowTooLarge, match=r"\(1000\)"):
        build_total_space(line_spec(), 27, 27, ((0,), 0))  # 55 x 55 window


def test_origin_outside_the_windows_is_rejected():
    with pytest.raises(ValueError, match="origin"):
        build_total_space(line_spec(), 3, 3, ((9,), 0))


def test_tabulated_maps_must_be_injective_on_the_window():
    spec = GluingSpec(base="line", fiber_dim=1,
                      edge_map=Tabulated(fn=lambda b, x: abs(x)))
    with pytest.raises(NonBijectiveTabulated):
        build_total_space(spec, 3, 3, ((0,), 0))


def test_doubling_wedge_formula():
    phi = phi_example_spec().edge_map.fn
    assert phi(3, 2) == 4
    assert phi(3, -3) == -6
    assert phi(3, 5) == 8
    assert phi(3, -7) == -10
    assert phi(0, 4) == 4
    assert phi(-2, 1) == 2


# ---------------------------------------------------------------------------
# array windows against the reference builder


def _sl2_word(rng, length):
    m = IntMatrix.identity(2)
    for _ in range(length):
        a = rng.choice((-2, -1, 1, 2))
        m = m @ IntMatrix([[1, a], [0, 1]] if rng.random() < 0.5
                          else [[1, 0], [a, 1]])
    return m


def _fib_matrix(k):
    fib = [0, 1]
    while len(fib) <= k:
        fib.append(fib[-1] + fib[-2])
    return IntMatrix([[fib[k], fib[k - 1]], [fib[k - 1], fib[k - 2]]])


def _shifted_cube(b, x):
    """An injective pointwise map that depends on the base vertex."""
    return x ** 3 + len(str(b))


def _window_corpus():
    """Seeded windows (spec, base window, fiber window, origin, rmax) over
    line, grid and finite bases with every kind of gluing map."""
    rng = random.Random(20261018)
    cases = []
    for _ in range(12):
        bw, fw = rng.randint(2, 8), rng.randint(2, 9)
        cases.append((line_spec((rng.randint(-2, 2),)), bw, fw,
                      ((rng.randint(-fw, fw),), rng.randint(-bw, bw)),
                      rng.randint(2, 10)))
    for _ in range(8):
        spec = GluingSpec(base="line", fiber_dim=2,
                          edge_map=Linear(_sl2_word(rng, 2)))
        cases.append((spec, rng.randint(2, 4), rng.randint(3, 6),
                      ((0, 0), 0), 6))
    for _ in range(6):
        shift = (rng.randint(-2, 2), rng.randint(-2, 2))
        spec = GluingSpec(base="line", fiber_dim=2,
                          edge_map=Affine(_sl2_word(rng, 2), shift))
        cases.append((spec, 3, 5, ((rng.randint(-1, 1), 0), 0), 5))
    for fiber_dim, gmap in ((1, Translation((1,))),
                            (1, Linear(IntMatrix([[-1]]))),
                            (2, Linear(IntMatrix([[2, 1], [1, 1]]))),
                            (2, Linear(_sl2_word(rng, 3)))):
        spec = GluingSpec(base="grid", fiber_dim=fiber_dim, edge_map=gmap)
        cases.append((spec, 3, 4, ((0,) * fiber_dim, (0, 0)), 4))
    for _ in range(6):
        lo = rng.randint(-40, 60)
        hi = lo + rng.randint(2, 10)
        cases.append((phi_example_spec(), (lo, hi), rng.randint(10, 80),
                      ((rng.randint(-3, 3),), rng.randint(lo, hi)), 8))
    # maps that are injective but not onto the lattice
    for fiber_dim, gmap in ((1, Linear(IntMatrix([[2]]))),
                            (1, Affine(IntMatrix([[3]]), (1,))),
                            (2, Linear(IntMatrix([[2, 1], [0, 1]]))),
                            (2, Affine(IntMatrix([[1, 0], [1, 2]]), (1, -1)))):
        spec = GluingSpec(base="line", fiber_dim=fiber_dim, edge_map=gmap)
        cases.append((spec, 3, 5, ((0,) * fiber_dim, 0), 5))
    # per-edge maps of every kind on one line
    for _ in range(4):
        maps = {(b, b + 1): rng.choice((
            Translation((rng.randint(-2, 2),)), Linear(IntMatrix([[-1]])),
            Affine(IntMatrix([[-1]]), (rng.randint(-2, 2),)),
            Tabulated(fn=_shifted_cube, name="cube")))
            for b in range(-4, 4) if rng.random() < 0.6}
        spec = GluingSpec(base="line", fiber_dim=1,
                          edge_map=Translation((1,)), edge_maps=maps)
        cases.append((spec, 4, 9, ((0,), 0), 6))
    # finite bases with a loop and parallel edges
    multi = FiniteBase(vertices=("a", "b", "c"),
                       edges=(("a", "a"), ("a", "b"), ("a", "b"),
                              ("b", "c"), ("c", "a")))
    for gmap in (Translation((0,)), Translation((1,)),
                 Linear(IntMatrix([[1]])), Linear(IntMatrix([[2]])),
                 Tabulated(fn=_shifted_cube)):
        spec = GluingSpec(base=multi, fiber_dim=1, edge_map=gmap)
        cases.append((spec, None, 6, ((0,), "a"), 5))
    shear = Affine(IntMatrix([[1, 1], [0, 1]]), (1, 0))
    spec = GluingSpec(base=multi, fiber_dim=2,
                      edge_map=Linear(_sl2_word(rng, 2)),
                      edge_maps={("a", "a"): shear,
                                 ("a", "b"): Translation((0, -1))})
    cases.append((spec, None, 4, ((0, 0), "b"), 4))
    # origins on a fiber face or on the base boundary are clipped
    cases.append((line_spec(), 3, 3, ((3,), 0), 2))
    cases.append((line_spec(), 3, 3, ((0,), -3), 2))
    cases.append((phi_example_spec(), (10, 14), 30, ((0,), 14), 4))
    # the float back-clip probe (Fibonacci entries near 1.3e6)
    pair = FiniteBase(vertices=("a", "b"), edges=(("a", "b"),))
    cases.append((GluingSpec(base=pair, fiber_dim=2,
                             edge_map=Linear(_fib_matrix(31))),
                  None, 3, ((0, 0), "a"), 3))
    return cases


def _growth_or_error(grow, ball, rmax):
    try:
        return grow(ball, rmax)
    except ValueError as ex:
        return str(ex)


@pytest.mark.parametrize("case", _window_corpus())
def test_array_windows_match_the_reference_builder(case):
    spec, base_window, fiber_window, origin, rmax = case
    ball = build_total_space(spec, base_window, fiber_window, origin)
    want = oracle_total_space(spec, base_window, fiber_window, origin)
    assert ball.origin == want.origin
    assert ball.size == len(want.adjacency)
    assert ball.clipped == want.clipped
    assert int(ball.clip.sum()) == len(want.clipped)
    assert ball.fiber_edge_count == len(want.fiber_edges)
    assert ball.gluing_edge_count == len(want.gluing_edges)
    got_adj = ball.adjacency
    assert got_adj.keys() == want.adjacency.keys()
    for v, nbrs in want.adjacency.items():
        assert Counter(got_adj[v]) == Counter(nbrs)
        assert ball.degree(v) == len(nbrs)
    assert int(ball.degrees.max()) == max(map(len, want.adjacency.values()))
    assert (_growth_or_error(ball_growth, ball, rmax)
            == _growth_or_error(oracle_ball_growth, want, rmax))


def _map_shape(gmap):
    """Which shape a gluing map has, read from its data: a translation has
    the identity matrix, a linear map the zero shift."""
    if isinstance(gmap, Tabulated):
        return "tabulated"
    if gmap.matrix.is_identity():
        return "translation"
    return "affine" if any(gmap.vector) else "linear"


def test_corpus_covers_clipped_origins_and_every_map_kind():
    cases = _window_corpus()
    shapes = {_map_shape(m) for spec, *_ in cases for m in spec._all_maps()}
    assert shapes == {"translation", "linear", "affine", "tabulated"}
    assert {type(c[0].base).__name__ for c in cases} == {"str", "FiniteBase"}
    assert {c[0].base for c in cases if isinstance(c[0].base, str)} == {
        "line", "grid"}
    clipped = [c for c in cases
               if c[3] in oracle_total_space(*c[:4]).clipped]
    assert len(clipped) >= 3


def test_fibonacci_probes_keep_the_float_back_clip():
    pair = FiniteBase(vertices=("a", "b"), edges=(("a", "b"),))
    spec = GluingSpec(base=pair, fiber_dim=2, edge_map=Linear(_fib_matrix(31)))
    ball = build_total_space(spec, None, 3, ((0, 0), "a"))
    # det M = 1, so every point at b has the integral preimage adj(M) f and
    # lacks its partner when that leaves the 7x7 box; the float solve misses
    # 24 of them
    m = _fib_matrix(31).rows
    need = {((x, y), "b") for x in range(-3, 4) for y in range(-3, 4)
            if max(abs(m[1][1] * x - m[0][1] * y),
                   abs(m[0][0] * y - m[1][0] * x)) > 3}
    assert len(need - ball.clipped) == 24
    spec = GluingSpec(base=pair, fiber_dim=2, edge_map=Linear(_fib_matrix(41)))
    with pytest.raises(np.linalg.LinAlgError):
        build_total_space(spec, None, 3, ((0, 0), "a"))


def test_matrix_gluings_past_int64_are_exact():
    # y = +-4 maps to 4 * 2^62, which wraps to 0 in int64; only y = 0 stays
    # in the 11 x 11 box, and det M = 1, so every other point is clipped on
    # both sides: 2 * (110 + 2 face points on y = 0) = 224
    pair = FiniteBase(vertices=("a", "b"), edges=(("a", "b"),))
    for big in (2 ** 62, -2 ** 62, 2 ** 63, 2 ** 80):
        spec = GluingSpec(base=pair, fiber_dim=2,
                          edge_map=Linear(IntMatrix([[1, big], [0, 1]])))
        ball = build_total_space(spec, None, 5, ((0, 0), "a"))
        assert ball.gluing_edge_count == 11
        assert int(ball.clip.sum()) == 224
        assert ball.clipped == {(f, b) for f, b in ball.adjacency
                                if f[1] != 0 or abs(f[0]) == 5}
    # the reference builder's forward images are Python ints too
    spec = GluingSpec(base=pair, fiber_dim=2,
                      edge_map=Linear(IntMatrix([[1, 2 ** 62], [0, 1]])))
    with np.errstate(invalid="ignore"):  # its float back-clip overflows
        want = oracle_total_space(spec, None, 5, ((0, 0), "a"))
    assert len(want.gluing_edges) == 11
    # past the bound a map with |det M| > 1 clips a superset: every point
    # at b off the three images (2x, 0) of the window
    spec = GluingSpec(base=pair, fiber_dim=2,
                      edge_map=Linear(IntMatrix([[2, 2 ** 62], [0, 1]])))
    ball = build_total_space(spec, None, 3, ((0, 0), "a"))
    need = {((u, v), "b") for u in range(-3, 4) for v in range(-3, 4)
            if v != 0 and u % 2 == 0}
    assert need < ball.clipped
    assert {f for f, b in ball.adjacency
            if b == "b" and (f, b) not in ball.clipped} == {
        (-2, 0), (0, 0), (2, 0)}


@pytest.mark.parametrize("fn", [
    lambda b, x: x + 2 ** 63,
    lambda b, x: x - 2 ** 63 - 1,
    lambda b, x: x + 2 ** 80 if x > 0 else x,
], ids=["above", "below", "half-above"])
def test_tabulated_images_past_int64_clip_exactly(fn):
    # each point whose image leaves the window is clipped, as in the
    # reference builder
    spec = GluingSpec(base="line", fiber_dim=1, edge_map=Tabulated(fn=fn))
    ball = build_total_space(spec, 2, 2, ((0,), 0))
    want = oracle_total_space(spec, 2, 2, ((0,), 0))
    assert ball.clipped == want.clipped
    assert ball.gluing_edge_count == len(want.gluing_edges)
    got_adj = ball.adjacency
    for v, nbrs in want.adjacency.items():
        assert Counter(got_adj[v]) == Counter(nbrs)


def test_a_non_monotone_tabulated_map_clips_points_not_mapped_onto():
    # over base edge (0, 1) the window point 1 goes to 5, outside the
    # window, and 5 comes back to 1, so ((1,), 1) lacks its backward partner
    # ((5,), 0) although 1 lies inside the span of the window's images
    spec = GluingSpec(base="line", fiber_dim=1, edge_map=Tabulated(
        fn=lambda b, x: {1: 5, 5: 1}.get(x, x) if b == 0 else x))
    ball = build_total_space(spec, 3, 3, ((0,), 0))
    assert ((1,), 1) in ball.clipped
    assert ball.clipped == oracle_total_space(spec, 3, 3, ((0,), 0)).clipped


def test_tabulated_injectivity_stays_exact_past_int64():
    # 2^64 + x are distinct images, though one float64 for small x
    spec = GluingSpec(base="line", fiber_dim=1,
                      edge_map=Tabulated(fn=lambda b, x: 2 ** 64 + x))
    assert build_total_space(spec, 2, 2, ((0,), 0)).gluing_edge_count == 0
    spec = GluingSpec(base="line", fiber_dim=1, edge_map=Tabulated(
        fn=lambda b, x: 2 ** 64 if x in (1, 2) else x))
    with pytest.raises(NonBijectiveTabulated) as got:
        build_total_space(spec, 2, 2, ((0,), 0))
    assert str(got.value) == ("gluing over base edge (-2, -1) sends both "
                              "(1,) and (2,) to (18446744073709551616,)")


def test_window_ids_are_int32_below_two_to_the_31():
    assert _index_dtype(2 ** 31 - 1) is np.int32
    assert _index_dtype(2 ** 31) is np.int64
    ball = build_total_space(line_spec(), 4, 4, ((0,), 0))
    assert ball.indptr.dtype == ball.indices.dtype == np.int32


@pytest.mark.parametrize("case", _window_corpus()[::5])
def test_int64_windows_read_the_same(case, monkeypatch):
    spec, base_window, fiber_window, origin, rmax = case
    ball = build_total_space(spec, base_window, fiber_window, origin)
    wide = dataclasses.replace(ball, indptr=ball.indptr.astype(np.int64),
                               indices=ball.indices.astype(np.int64))
    # a window past 2^31 slots is built the same way in int64
    monkeypatch.setattr(bundle_lab, "_index_dtype", lambda bound: np.int64)
    built = build_total_space(spec, base_window, fiber_window, origin)
    assert built.indices.dtype == np.int64
    assert np.array_equal(built.indptr, wide.indptr)
    assert np.array_equal(built.indices, wide.indices)
    assert (_growth_or_error(ball_growth, ball, rmax)
            == _growth_or_error(ball_growth, wide, rmax))
    assert np.array_equal(ball.degrees, wide.degrees)
    assert ball.adjacency == wide.adjacency
    assert ball.clipped == wide.clipped


def test_wedge_window_builds_in_at_most_50_bytes_per_vertex():
    spec = phi_example_spec()
    tracemalloc.start()
    try:
        ball = build_total_space(spec, (1005, 1043), 8500, ((0,), 1024))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ball.size == 663039
    assert peak <= 50 * ball.size


def _networkx_growth(ball, rmax):
    graph = nx.MultiGraph()
    graph.add_nodes_from(range(ball.size))
    for i in range(ball.size):
        for j in ball.indices[ball.indptr[i]:ball.indptr[i + 1]].tolist():
            graph.add_edge(i, j)
    dist = nx.single_source_shortest_path_length(
        graph, ball.index(ball.origin), cutoff=rmax)
    counts = tuple(sum(1 for d in dist.values() if d <= r)
                   for r in range(rmax + 1))
    min_clip = min((d for v, d in dist.items() if ball.clip[v]),
                   default=math.inf)
    return counts, tuple(r < min_clip for r in range(rmax + 1))


@pytest.mark.parametrize("case", [c for c in _window_corpus()
                                  if c[3] not in
                                  oracle_total_space(*c[:4]).clipped][::4])
def test_ball_growth_matches_networkx_distances(case):
    spec, base_window, fiber_window, origin, rmax = case
    ball = build_total_space(spec, base_window, fiber_window, origin)
    series = ball_growth(ball, rmax)
    assert (series.counts, series.flags) == _networkx_growth(ball, rmax)


def test_non_bijective_message_names_both_preimages():
    spec = GluingSpec(base="line", fiber_dim=1,
                      edge_map=Tabulated(fn=lambda b, x: abs(x)))
    with pytest.raises(NonBijectiveTabulated) as got:
        build_total_space(spec, 3, 3, ((0,), 0))
    assert str(got.value) == ("gluing over base edge (-3, -2) sends both "
                              "(-1,) and (1,) to (1,)")
    later = GluingSpec(base="line", fiber_dim=1, edge_map=Tabulated(
        fn=lambda b, x: x if b < 1 else x // 2))
    for gluing in (spec, later):
        with pytest.raises(NonBijectiveTabulated) as got:
            build_total_space(gluing, 3, 3, ((0,), 0))
        with pytest.raises(NonBijectiveTabulated) as want:
            oracle_total_space(gluing, 3, 3, ((0,), 0))
        assert str(got.value) == str(want.value)


def test_tabulated_fn_is_called_once_per_base_edge_and_point():
    calls = Counter()

    def fn(b, x):
        calls[(b, x)] += 1
        return x + 1

    spec = GluingSpec(base="line", fiber_dim=1, edge_map=Tabulated(fn=fn))
    build_total_space(spec, 3, 4, ((0,), 0))
    assert calls == Counter({(b, x): 1 for b in range(-3, 3)
                             for x in range(-4, 5)})
    calls.clear()
    multi = FiniteBase(vertices=("a", "b"),
                       edges=(("a", "b"), ("a", "b"), ("b", "b")))
    spec = GluingSpec(base=multi, fiber_dim=1, edge_map=Tabulated(fn=fn))
    build_total_space(spec, None, 4, ((0,), "a"))
    assert calls == Counter({(b, x): n for b, n in (("a", 2), ("b", 1))
                             for x in range(-4, 5)})


# ---------------------------------------------------------------------------
# growth classification


def test_growth_class_reads_polynomial_degree():
    counts = [taxicab_ball_z2(r) for r in range(26)]
    flags = [True] * 26
    got = growth_class(counts, flags)
    assert got.kind == "Polynomial"
    assert 1.7 < got.parameter < 2.1
    assert got.r2_poly > got.r2_exp or got.r2_poly > 0.999


def test_growth_class_reads_exponential_rate():
    counts = [2 ** r for r in range(20)]
    flags = [True] * 20
    got = growth_class(counts, flags)
    assert got.kind == "Exponential"
    assert abs(got.parameter - math.log(2)) < 1e-6
    assert got.r2_exp - got.r2_poly >= 0.02


def test_growth_class_ignores_invalid_radii():
    counts = [taxicab_ball_z2(r) for r in range(15)] + [99999] * 10
    flags = [True] * 15 + [False] * 10
    got = growth_class(counts, flags)
    assert got.kind == "Polynomial"


def test_growth_class_needs_eight_valid_radii():
    with pytest.raises(TooFewRadii, match="need at least 8 valid radii"):
        growth_class([1, 3, 5, 7, 9], [True] * 5)


def test_doubling_wedge_bundle_grows_exponentially():
    ball = build_total_space(phi_example_spec(), (1005, 1043), 8500,
                             ((0,), 1024))
    series = ball_growth(ball, 18)
    valid = series.valid_radii()
    assert len(valid) >= 9
    got = growth_class(series.counts, series.flags)
    assert got.kind == "Exponential"
    assert got.parameter > 0.09


# ---------------------------------------------------------------------------
# drift seminorms


def diag_two():
    return RatMatrix([[2, 0], [0, Fraction(1, 2)]])


def test_drift_along_the_expanding_axis():
    est = drift_seminorm([diag_two()], (1, 0))
    assert est.closed_form == pytest.approx(1.0, abs=1e-12)
    assert est.diagonalizable
    assert est.period == 1
    assert est.value == pytest.approx(1.0, rel=1e-2)


def test_drift_vanishes_along_the_contracting_axis():
    est = drift_seminorm([diag_two()], (0, 1))
    assert est.closed_form == pytest.approx(0.0, abs=1e-12)
    assert est.value == pytest.approx(0.0, abs=1e-9)


def test_drift_scales_with_the_expanding_component():
    lam = (3 + math.sqrt(5)) / 2
    v = np.array([lam - 1, 1.0])
    v /= np.linalg.norm(v)
    est = drift_seminorm([RatMatrix([[2, 1], [1, 1]])], v.tolist())
    assert est.closed_form == pytest.approx(lam - 1, abs=1e-9)
    proj = float(np.dot((1.0, 0.0), v))
    skew = drift_seminorm([RatMatrix([[2, 1], [1, 1]])], (1, 0))
    assert skew.closed_form == pytest.approx((lam - 1) * proj, abs=1e-9)


def test_drift_estimates_are_nondecreasing_lower_bounds():
    est = drift_seminorm([RatMatrix([[2, 1], [1, 1]])], (1, 0))
    assert all(b >= a - 1e-12
               for a, b in zip(est.estimates, est.estimates[1:]))
    assert est.estimates[-1] <= est.closed_form + 1e-9
    assert abs(est.estimates[-1] - est.closed_form) <= 0.01 * est.closed_form


def test_drift_closed_form_for_rank_three_diagonal():
    word = [RatMatrix([[3, 0, 0], [0, 1, 0],
                       [0, 0, Fraction(1, 3)]])]
    est = drift_seminorm(word, (1, 1, 1))
    assert est.closed_form == pytest.approx(2.0, abs=1e-9)


def test_shear_word_has_no_eigen_closed_form():
    est = drift_seminorm([IntMatrix([[1, 1], [0, 1]])], (0, 1))
    assert est.closed_form is None
    assert not est.diagonalizable
    assert est.value > 0


def test_repeated_letter_matches_the_single_letter_rate():
    single = drift_seminorm([diag_two()], (1, 0))
    double = drift_seminorm([diag_two(), diag_two()], (1, 0))
    assert double.period == 2
    assert double.closed_form == pytest.approx(single.closed_form, rel=1e-9)


def test_drift_input_validation():
    with pytest.raises(ValueError):
        drift_seminorm([], (1, 0))
    with pytest.raises(ValueError):
        drift_seminorm([IntMatrix([[1, 1], [0, 1]])], (1, 0, 0))


def test_drift_letters_are_tested_for_singularity_exactly():
    tiny = RatMatrix.diagonal([Fraction(1, 10**7)] * 2)
    assert drift_seminorm([tiny], (1, 0)).value == 0.0
    assert foliation_kernel([tiny]).dimension == 2
    # a float letter is the binary rational it is: invertible however small
    # its determinant, singular only when that is exactly 0
    assert foliation_kernel([[[1e-7, 0.0], [0.0, 1e-7]]]).dimension == 2
    for word in ([[[1.0, 2.0], [0.5, 1.0]]], [IntMatrix([[2, 4], [1, 2]])]):
        with pytest.raises(SingularGenerator):
            drift_seminorm(word, (1, 0))
        with pytest.raises(SingularGenerator):
            foliation_kernel(word)


# ---------------------------------------------------------------------------
# foliation kernels


def line_distance(v, w):
    a = np.array(v, dtype=float)
    b = np.array(w, dtype=float)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    return min(np.linalg.norm(a - b), np.linalg.norm(a + b))


def test_kernel_of_a_diagonal_word_is_the_contracting_axis():
    report = foliation_kernel([diag_two()])
    assert report.dimension == 1
    assert line_distance(report.basis[0], (0, 1)) < 1e-9


def test_kernel_of_a_shear_excludes_polynomial_growth():
    report = foliation_kernel([IntMatrix([[1, 1], [0, 1]])])
    assert report.dimension == 1
    assert line_distance(report.basis[0], (1, 0)) < 1e-9


def test_kernel_of_a_rotation_is_everything():
    report = foliation_kernel([IntMatrix([[0, -1], [1, 0]])])
    assert report.dimension == 2


def test_kernel_of_a_rank_three_diagonal_word():
    report = foliation_kernel(
        [RatMatrix([[3, 0, 0], [0, 1, 0], [0, 0, Fraction(1, 3)]])])
    assert report.dimension == 2
    for vec in report.basis:
        assert abs(vec[0]) < 1e-9
