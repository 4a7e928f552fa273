"""Tests for bounded cohomology on finite 2-complexes.

Loop-sum oracles are computed from the rectangle family in closed form:
a rectangle of sides w and h has loop sum w * h against the column-weight
cochain and perimeter 2 * (w + h), so the best ratio at even length L is
floor(L/4) * ceil(L/4) / L, attained by the squarest rectangle.
"""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coarsebundle import (
    RatMatrix,
    classes_equivalent_via,
    coboundary_of_potential,
    d1,
    grid_complex,
    heisenberg_cochain,
    is_trivial,
    linear_bound_scan,
    linf_cohomology,
    primitive,
    solve_coboundary,
)
from coarsebundle.errors import NotCoboundary, PositiveCycle, SingularMatrix
from coarsebundle.linf_cohomology import (BaseComplex, Cochain1, Cochain2,
                                          ScanRow, ScanTable, _doubling_trend,
                                          residual_sup)


def square_complex():
    """One square carried by two faces with the same boundary loop."""
    loop = (((0,), (1,)), ((1,), (2,)), ((2,), (3,)), ((3,), (0,)))
    return BaseComplex(vertices=((0,), (1,), (2,), (3,)), edges=loop,
                       faces=(loop, loop), basepoint=(0,))


def residual(complex_, a, f):
    df = coboundary_of_potential(complex_, f, a.dim)
    return {e: tuple(p + q for p, q in zip(a.value(e), df.value(e)))
            for e in complex_.edges}


def as_floats(a):
    return Cochain1(dim=a.dim, values={e: tuple(float(x) for x in vec)
                                       for e, vec in a.values.items()})


def rectangle_maxima(cx, a):
    """Oracle: max |loop sum| per length over every cell rectangle of a
    grid, summing edge values one by one in the cochain's arithmetic."""
    width, height = cx.grid_shape
    best = {}
    for x1 in range(width - 1):
        for x2 in range(x1 + 1, width):
            for y1 in range(height - 1):
                for y2 in range(y1 + 1, height):
                    corners = [(x1, y1), (x2, y1), (x2, y2), (x1, y2)]
                    loop = []
                    for p, q in zip(corners, corners[1:] + corners[:1]):
                        step = [(q[0] > p[0]) - (q[0] < p[0]),
                                (q[1] > p[1]) - (q[1] < p[1])]
                        while p != q:
                            nxt = (p[0] + step[0], p[1] + step[1])
                            loop.append((p, nxt))
                            p = nxt
                    total = max(abs(sum(a.value(e)[k] for e in loop))
                                for k in range(a.dim))
                    best[len(loop)] = max(best.get(len(loop), 0), total)
    return best


# primes 1009..1069, one per edge of a 3x3 grid: the face sums' common
# denominator is their product, about 2^120
LARGE_PRIMES = (1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049, 1051, 1061,
                1063, 1069)


def large_denominator_cochain():
    cx = grid_complex(3, 3)
    a = Cochain1(dim=1)
    for e, p in zip(cx.edges, LARGE_PRIMES):
        a.values[e] = (Fraction(1, p),)
    return cx, a


def near_overflow_cochain():
    """Cells near 2^59 on a 2x2-cell grid: prefix sums could pass 2^60."""
    cx = grid_complex(3, 3)
    a = Cochain1(dim=1)
    for i, e in enumerate(cx.edges):
        a.values[e] = (Fraction(2 ** 59 + 3 * i, 1 + i % 2),)
    return cx, a


# ---------------------------------------------------------------------------
# grid complexes


@pytest.mark.parametrize("width,height", [(2, 2), (5, 4), (9, 9), (3, 7)])
def test_grid_complex_counts(width, height):
    cx = grid_complex(width, height)
    assert len(cx.vertices) == width * height
    assert len(cx.edges) == 2 * width * height - width - height
    assert len(cx.faces) == (width - 1) * (height - 1)
    assert cx.grid_shape == (width, height)


def test_grid_complex_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        grid_complex(1, 5)
    with pytest.raises(ValueError):
        grid_complex(4, 0)


def test_grid_faces_are_closed_unit_squares():
    cx = grid_complex(4, 3)
    for face in cx.faces:
        assert len(face) == 4
        for i, (u, v) in enumerate(face):
            assert face[(i + 1) % 4][0] == v
        xs = {p[0] for e in face for p in e}
        ys = {p[1] for e in face for p in e}
        assert len(xs) == 2 and len(ys) == 2


# ---------------------------------------------------------------------------
# cochains and coboundaries


def test_cochain_defaults_to_zero_and_tracks_exactness():
    a = Cochain1(dim=2)
    assert a.value(((0,), (9,))) == (Fraction(0), Fraction(0))
    a.set(((0,), (1,)), (0.5, 0.1))
    assert a.value(((0,), (1,))) == (Fraction(1, 2), Fraction(0.1))
    assert a.value(((1,), (0,))) == (Fraction(-1, 2), -Fraction(0.1))
    c = Cochain2(dim=1, values={0: 0.1, 1: (3,), 2: [Fraction(1, 3)]})
    assert c.values == {0: (Fraction(0.1),), 1: (3,), 2: (Fraction(1, 3),)}
    assert all(isinstance(x, Fraction) for x in c.values[0])
    assert type(c.values[1][0]) is int  # exact entries are kept as given
    with pytest.raises(ValueError, match="length 2"):
        Cochain1(dim=2, values={((0,), (1,)): (1,)})


def test_from_map_accepts_either_orientation_at_scale():
    cx = grid_complex(80, 80)
    rng = random.Random(11)
    mapping = {}
    for (u, v) in cx.edges:
        x = Fraction(rng.randint(-9, 9), 2)
        if rng.random() < 0.5:
            mapping[(v, u)] = (-x,)
        else:
            mapping[(u, v)] = (x,)
    start = time.perf_counter()
    a = Cochain1.from_map(cx, mapping)
    elapsed = time.perf_counter() - start
    assert elapsed < 3.0
    assert len(a.values) == len(cx.edges)
    assert all(a.value(e) == vec for e, vec in mapping.items())


def test_from_map_rejects_unknown_and_inconsistent_edges():
    cx = grid_complex(3, 3)
    with pytest.raises(ValueError, match="unknown edge"):
        Cochain1.from_map(cx, {((0, 0), (2, 2)): 1})
    with pytest.raises(ValueError, match="inconsistent orientations"):
        Cochain1.from_map(cx, {((0, 0), (1, 0)): 1, ((1, 0), (0, 0)): 1})
    a = Cochain1.from_map(cx, {((0, 0), (1, 0)): 1, ((1, 0), (0, 0)): -1})
    assert a.values == {((0, 0), (1, 0)): (1,)}


def test_column_weight_cochain_values():
    cx = grid_complex(5, 4)
    a = heisenberg_cochain(cx)
    assert a.value(((2, 1), (2, 2))) == (Fraction(2),)
    assert a.value(((0, 0), (0, 1))) == (Fraction(0),)
    assert a.value(((0, 0), (1, 0))) == (Fraction(0),)
    assert a.value(((2, 2), (2, 1))) == (Fraction(-2),)


def test_column_weight_cochain_needs_a_grid():
    with pytest.raises(ValueError):
        heisenberg_cochain(square_complex())


def test_area_form_is_one_on_every_cell():
    cx = grid_complex(6, 5)
    tau = d1(cx, heisenberg_cochain(cx))
    assert all(tau.value(i) == (Fraction(1),) for i in range(len(cx.faces)))


def test_coboundary_of_coboundary_vanishes():
    rng = random.Random(31)
    cx = grid_complex(5, 5)
    for _ in range(20):
        f = {v: (Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3])),
                 Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3])))
             for v in cx.vertices}
        ddf = d1(cx, coboundary_of_potential(cx, f, 2))
        assert all(ddf.value(i) == (Fraction(0), Fraction(0))
                   for i in range(len(cx.faces)))


# ---------------------------------------------------------------------------
# loop scanning


def test_scan_matches_rectangle_closed_form():
    cx = grid_complex(9, 9)
    table = linear_bound_scan(cx, heisenberg_cochain(cx))
    by_length = {row.length: row for row in table.rows}
    assert sorted(by_length) == list(range(4, 33, 2))
    for length, row in by_length.items():
        best = Fraction((length // 4) * (length - length // 4 * 2) // 2,
                        1)
        assert row.max_abs == (length // 4) * ((length + 2) // 4)
        assert row.ratio == Fraction(row.max_abs, length)
    assert table.max_ratio == Fraction(2)


def test_scan_witness_is_a_closed_loop_achieving_the_bound():
    cx = grid_complex(9, 9)
    a = heisenberg_cochain(cx)
    table = linear_bound_scan(cx, a)
    loop = table.witnesses[32]
    assert len(loop) == 32
    for i, (u, v) in enumerate(loop):
        assert loop[(i + 1) % len(loop)][0] == v
    total = sum(a.value(e)[0] for e in loop)
    assert abs(total) == 64


def test_scan_on_general_complex_uses_face_loops():
    cx = square_complex()
    a = Cochain1(dim=1)
    for e in cx.edges:
        a.values[e] = (Fraction(1),)
    table = linear_bound_scan(cx, a)
    by_length = {row.length: row for row in table.rows}
    assert by_length[4].max_abs == 4
    assert by_length[4].ratio == Fraction(1)


def test_scan_on_a_float_grid_gives_exact_rows():
    cx = grid_complex(5, 4)
    exact = linear_bound_scan(cx, heisenberg_cochain(cx))
    table = linear_bound_scan(cx, as_floats(heisenberg_cochain(cx)))
    assert all(isinstance(row.max_abs, Fraction)
               and isinstance(row.ratio, Fraction) for row in table.rows)
    assert table.rows == exact.rows
    assert table.witnesses == exact.witnesses
    assert table.max_ratio == Fraction(6, 7)


def test_scan_on_a_float_general_complex_gives_exact_rows():
    cx = square_complex()
    a = Cochain1(dim=1)
    for e in cx.edges:
        a.set(e, 0.1)
    table = linear_bound_scan(cx, a)
    by_length = {row.length: row for row in table.rows}
    assert by_length[4].max_abs == 4 * Fraction(0.1)
    assert by_length[4].ratio == Fraction(0.1)
    assert isinstance(by_length[4].ratio, Fraction)


@pytest.mark.parametrize("seed", range(4))
def test_grid_scan_matches_every_rectangle(seed):
    rng = random.Random(seed)
    cx = grid_complex(rng.randint(2, 6), rng.randint(2, 6))
    a = Cochain1(dim=2)
    for e in cx.edges:
        a.values[e] = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                            for _ in range(2))
    for cochain in (a, as_floats(a)):
        table = linear_bound_scan(cx, cochain)
        oracle = rectangle_maxima(cx, cochain)
        assert sorted(oracle) == [row.length for row in table.rows]
        for row in table.rows:
            assert row.max_abs == oracle[row.length]
            loop = table.witnesses[row.length]
            assert len(loop) == row.length
            assert max(abs(sum(cochain.value(e)[k] for e in loop))
                       for k in range(2)) == row.max_abs


@pytest.mark.parametrize("make", [large_denominator_cochain,
                                  near_overflow_cochain])
def test_grid_scan_stays_exact_past_int64_scaling(make):
    cx, a = make()
    table = linear_bound_scan(cx, a)
    oracle = rectangle_maxima(cx, a)
    assert {row.length: row.max_abs for row in table.rows} == oracle
    assert all(row.ratio == Fraction(row.max_abs, row.length)
               for row in table.rows)


# ---------------------------------------------------------------------------
# bounded primitives


def test_primitive_succeeds_at_the_loop_ratio_threshold():
    cx = grid_complex(9, 9)
    a = heisenberg_cochain(cx)
    bound_c = Fraction(2)
    f = primitive(cx, a, bound_c)
    worst = max(max(abs(x) for x in t) for t in residual(cx, a, f).values())
    assert worst <= 2 * bound_c
    da = d1(cx, a)
    shifted = d1(cx, coboundary_of_potential(cx, f, 1))
    assert all(shifted.value(i) == (Fraction(0),)
               for i in range(len(cx.faces)))
    assert all(d1(cx, a).value(i) == da.value(i)
               for i in range(len(cx.faces)))


def test_primitive_reads_a_float_bound_exactly():
    cx = grid_complex(9, 9)
    a = heisenberg_cochain(cx)
    f = primitive(cx, a, 2.5)
    assert f == primitive(cx, a, Fraction(5, 2))
    assert f[cx.basepoint] == (0,)
    assert all(isinstance(x, Fraction) for vals in f.values() for x in vals)
    worst = residual_sup(cx, a, f)
    assert isinstance(worst, Fraction)
    assert worst <= 2 * Fraction(5, 2)


# small grids and the doubled square; the retries of is_trivial stay cheap
SMALL_COMPLEXES = (grid_complex(2, 2), grid_complex(3, 2), grid_complex(3, 3),
                   grid_complex(4, 3), square_complex())
small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_primitive_meets_two_c_or_reports_a_positive_loop(data):
    cx = data.draw(st.sampled_from(SMALL_COMPLEXES))
    dim = data.draw(st.integers(1, 2))
    a = Cochain1(dim=dim, values={
        e: tuple(data.draw(small_fractions) for _ in range(dim))
        for e in cx.edges})
    bound_c = data.draw(st.fractions(min_value=Fraction(1, 8), max_value=2,
                                     max_denominator=8))
    try:
        f = primitive(cx, a, bound_c)
    except PositiveCycle as ex:
        loop = ex.cycle
        assert loop and all(loop[i - 1][1] == e[0] for i, e in enumerate(loop))
        assert max(sum(a.value(e)[k] - 2 * bound_c for e in loop)
                   for k in range(dim)) > 0
    else:
        assert residual_sup(cx, a, f) <= 2 * bound_c


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_float_cochains_decide_like_their_exact_rationals(data):
    cx = data.draw(st.sampled_from(SMALL_COMPLEXES))
    finite = st.floats(min_value=-4, max_value=4, allow_nan=False)
    edge_values = {e: (data.draw(finite),) for e in cx.edges}
    exact_edges = {e: (Fraction(x),) for e, (x,) in edge_values.items()}
    assert (linear_bound_scan(cx, Cochain1(dim=1, values=edge_values))
            == linear_bound_scan(cx, Cochain1(dim=1, values=exact_edges)))
    # the doubled square has two faces on one loop: give them one value
    xs = [data.draw(finite)] * len(cx.faces)
    if cx.grid_shape is not None:
        xs = [data.draw(finite) for _ in cx.faces]
    as_float = is_trivial(cx, Cochain2(dim=1, values=dict(enumerate(xs))))
    as_exact = is_trivial(cx, Cochain2(dim=1, values={
        i: (Fraction(x),) for i, x in enumerate(xs)}))
    assert as_float == as_exact
    assert as_float.kind == "Trivial"
    assert as_float.bound_achieved <= as_float.bound_budget


def test_doubling_trend_counts_growth_of_exactly_three_halves():
    ratios = {4: Fraction(1, 5), 8: Fraction(3, 10), 16: Fraction(9, 20),
              32: Fraction(27, 40)}
    rows = tuple(ScanRow(length=ell, max_abs=r * ell, ratio=r)
                 for ell, r in ratios.items())
    table = ScanTable(rows=rows, witnesses={})
    assert _doubling_trend(table) == (3, [4, 8, 16, 32])


def test_primitive_reports_a_checkable_positive_cycle():
    cx = grid_complex(5, 4)
    a = heisenberg_cochain(cx)
    bound_c = Fraction(1, 10)
    with pytest.raises(PositiveCycle) as info:
        primitive(cx, a, bound_c)
    cycle = info.value.cycle
    assert f"length {len(cycle)}" in str(info.value)
    for i, (u, v) in enumerate(cycle):
        assert cycle[(i + 1) % len(cycle)][0] == v
    assert sum(a.value(e)[0] for e in cycle) > bound_c * len(cycle)


def test_primitive_fails_just_below_the_threshold():
    cx = grid_complex(5, 4)
    a = heisenberg_cochain(cx)
    max_ratio = Fraction(4 * 3, 2 * (4 + 3))
    assert max_ratio == linear_bound_scan(cx, a).max_ratio
    threshold = max_ratio / 2
    with pytest.raises(PositiveCycle):
        primitive(cx, a, threshold - Fraction(1, 100))
    f = primitive(cx, a, threshold)
    worst = max(max(abs(x) for x in t) for t in residual(cx, a, f).values())
    assert worst <= 2 * threshold


# ---------------------------------------------------------------------------
# solving da = c


def test_solve_coboundary_grid_closed_form():
    rng = random.Random(5)
    cx = grid_complex(6, 5)
    c = Cochain2(dim=1)
    for i in range(len(cx.faces)):
        c.values[i] = (Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])),)
    a = solve_coboundary(cx, c)
    da = d1(cx, a)
    assert all(da.value(i) == c.value(i) for i in range(len(cx.faces)))
    horizontal = [e for e in cx.edges if e[0][1] == e[1][1]]
    assert all(a.value(e) == (Fraction(0),) for e in horizontal)


def test_solve_coboundary_general_complex_round_trip():
    cx = square_complex()
    c = Cochain2(dim=2)
    c.values[0] = (Fraction(3), Fraction(-1))
    c.values[1] = (Fraction(3), Fraction(-1))
    a = solve_coboundary(cx, c)
    da = d1(cx, a)
    assert all(da.value(i) == c.value(i) for i in range(2))


def test_solve_coboundary_detects_inconsistent_face_equations():
    cx = square_complex()
    c = Cochain2(dim=1)
    c.values[0] = (Fraction(1),)
    c.values[1] = (Fraction(0),)
    with pytest.raises(NotCoboundary):
        solve_coboundary(cx, c)


# ---------------------------------------------------------------------------
# triviality verdicts


def test_is_trivial_certifies_bounded_classes():
    cx = grid_complex(9, 9)
    f = {v: (Fraction((v[0] * 7 + v[1] * 3) % 5, 2),) for v in cx.vertices}
    c = d1(cx, coboundary_of_potential(cx, f, 1))
    verdict = is_trivial(cx, c)
    assert verdict.kind == "Trivial"
    assert verdict.primitive_f is not None
    assert set(verdict.primitive_f) == set(cx.vertices)
    assert verdict.bound_achieved <= verdict.bound_budget


def test_is_trivial_on_float_input_certifies_against_two_c():
    rng = random.Random(3)
    cx = grid_complex(5, 5)
    a = Cochain1(dim=1)
    for e in cx.edges:
        a.set(e, rng.randint(-12, 12) / 10)
    verdict = is_trivial(cx, d1(cx, a))
    assert verdict.kind == "Trivial"
    assert isinstance(verdict.bound_budget, Fraction)
    assert isinstance(verdict.bound_achieved, Fraction)
    assert (verdict.bound_budget == 2 * verdict.scan.max_ratio
            == verdict.bound_achieved)
    assert all(isinstance(x, Fraction)
               for vals in verdict.primitive_f.values() for x in vals)


@pytest.mark.parametrize("make", [large_denominator_cochain,
                                  near_overflow_cochain])
def test_is_trivial_keeps_exact_input_exact(make):
    cx, a = make()
    verdict = is_trivial(cx, d1(cx, a))
    assert verdict.kind == "Trivial"
    assert isinstance(verdict.bound_achieved, Fraction)
    assert (verdict.bound_budget == 2 * verdict.scan.max_ratio
            == verdict.bound_achieved)
    assert all(isinstance(x, Fraction)
               for vals in verdict.primitive_f.values() for x in vals)


def test_is_trivial_doubles_c_past_a_positive_cycle(monkeypatch):
    # the area form on a 3x6 grid given as plain faces: the sampled loops
    # see ratio 1/3, but a + df cannot be kept within 2/3
    g = grid_complex(3, 6)
    cx = BaseComplex(vertices=g.vertices, edges=g.edges, faces=g.faces,
                     basepoint=g.basepoint)
    c = Cochain2(dim=1, values={i: (1,) for i in range(len(cx.faces))})
    calls = []

    def counted(*args):
        calls.append(args[2])
        return primitive(*args)

    monkeypatch.setattr(linf_cohomology, "primitive", counted)
    verdict = is_trivial(cx, c)
    bound_c = verdict.scan.max_ratio
    assert bound_c == Fraction(1, 3)
    assert calls == [bound_c, 2 * bound_c]
    with pytest.raises(PositiveCycle):
        primitive(cx, solve_coboundary(cx, c), bound_c)
    assert verdict.kind == "Trivial"
    assert verdict.bound_achieved == verdict.bound_budget == 2 * calls[-1]


def test_is_trivial_rejects_the_area_form():
    cx = grid_complex(9, 9)
    tau = d1(cx, heisenberg_cochain(cx))
    verdict = is_trivial(cx, tau)
    assert verdict.kind == "Nontrivial"
    assert "doubling scales" in verdict.note
    assert verdict.scan is not None
    assert verdict.scan.max_ratio == Fraction(2)


def test_classes_equivalent_under_coefficient_scaling():
    cx = grid_complex(5, 4)
    tau = d1(cx, heisenberg_cochain(cx))
    doubled = Cochain2(dim=1)
    for i in range(len(cx.faces)):
        doubled.values[i] = tuple(2 * x for x in tau.value(i))
    same = classes_equivalent_via(cx, doubled, tau, RatMatrix([[2]]))
    assert same.kind == "Trivial"
    identity = classes_equivalent_via(cx, tau, tau, RatMatrix([[1]]))
    assert identity.kind == "Trivial"


def test_classes_differ_without_the_right_transform():
    cx = grid_complex(9, 9)
    tau = d1(cx, heisenberg_cochain(cx))
    zero = Cochain2(dim=1)
    verdict = classes_equivalent_via(cx, tau, zero, RatMatrix([[1]]))
    assert verdict.kind == "Nontrivial"


def test_classes_equivalent_input_validation():
    cx = grid_complex(4, 4)
    tau = d1(cx, heisenberg_cochain(cx))
    other = Cochain2(dim=2)
    with pytest.raises(ValueError):
        classes_equivalent_via(cx, tau, other, RatMatrix([[1]]))
    with pytest.raises(SingularMatrix):
        classes_equivalent_via(cx, tau, tau, RatMatrix([[0]]))
    with pytest.raises(ValueError):
        classes_equivalent_via(cx, tau, tau, RatMatrix([[1, 0], [0, 1]]))


@pytest.mark.parametrize("face", [4, 99, -1, "0", 1.0])
def test_a_face_index_outside_the_complex_is_a_value_error(face):
    cx = grid_complex(3, 3)  # faces 0..3
    bad = Cochain2(dim=1, values={0: (5,), face: (7,)})
    zero = Cochain2(dim=1)
    with pytest.raises(ValueError, match="out of range"):
        is_trivial(cx, bad)
    with pytest.raises(ValueError, match="out of range"):
        solve_coboundary(square_complex(), Cochain2(dim=1, values={face: (1,)}))
    for c1, c2 in ((bad, zero), (zero, bad)):
        with pytest.raises(ValueError, match="out of range"):
            classes_equivalent_via(cx, c1, c2, RatMatrix([[1]]))
