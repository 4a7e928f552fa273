"""End-to-end acceptance checks, one test per numbered criterion.

Each test seeds its own randomness (test 10 takes its seeded corpus from
the ``trichotomy_corpus`` fixture in conftest.py), asserts the exact values
or tolerances it needs, and enforces its own wall-clock budget.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from coarsebundle import (
    Gl2Subgroup,
    GluingSpec,
    GraphOfGroups,
    Edge,
    IntMatrix,
    RatMatrix,
    Translation,
    ball_growth,
    bs,
    build_total_space,
    classify,
    classify_psl2z_subgroup,
    coboundary_of_potential,
    d1,
    drift_seminorm,
    foliation_kernel,
    grid_complex,
    growth_class,
    hausdorff_class_gl1,
    heisenberg_cochain,
    is_trivial,
    linear_bound_scan,
    modular_holonomy,
    orbit_reduce,
    phi_example_spec,
    primitive,
)
from coarsebundle.linf_cohomology import Cochain1


# ---------------------------------------------------------------------------
# 1. Baumslag-Solitar trichotomy table


def test_acceptance_01_bs_trichotomy_table():
    t0 = time.monotonic()
    undetermined = 0
    for m in range(1, 7):
        for n in range(m, 7):
            verdict = classify(bs(m, n), depth=6)
            expected = "Parabolic" if (m == 1 and n > 1) else "Folded"
            assert verdict.kind == expected, (m, n, verdict.kind)
            if not verdict.decided:
                undetermined += 1
    assert undetermined == 0
    assert time.monotonic() - t0 < 30.0


# ---------------------------------------------------------------------------
# 2. Modular holonomy oracle


def _affine_compose(f, g):
    # x -> f(g(x)) for affine maps represented as (scale, shift) pairs
    return (f[0] * g[0], f[0] * g[1] + f[1])


def test_acceptance_02_holonomy_oracle():
    for m in range(1, 7):
        for n in range(m, 7):
            rep = modular_holonomy(bs(m, n))
            (edge_id, mat), = rep.generators
            expected = RatMatrix([[Fraction(n, m)]])
            assert mat == expected, (m, n, mat)

            # independent check: realize the stable-letter conjugation on
            # the fiber line by exact affine maps. a scales by m/n, b powers
            # translate; a^-1 b^m a must equal b^n, and the induced map on
            # translation lengths is multiplication by n/m.
            a = (Fraction(m, n), Fraction(0))
            a_inv = (Fraction(n, m), Fraction(0))
            b_m = (Fraction(1), Fraction(m))
            b_n = (Fraction(1), Fraction(n))
            conj = _affine_compose(a_inv, _affine_compose(b_m, a))
            assert conj == b_n
            assert mat.apply([Fraction(m)]) == (Fraction(n),)


# ---------------------------------------------------------------------------
# 3. Multiplicative subgroup classes of the rationals


def test_acceptance_03_gl1_hausdorff_classes():
    t0 = time.monotonic()
    c_cube = hausdorff_class_gl1([Fraction(8, 27)])
    c_base = hausdorff_class_gl1([Fraction(3, 2)])
    c_sq = hausdorff_class_gl1([Fraction(9, 4)])

    # <8/27> = <(2/3)^3> lies on the line of <3/2> with three times the step
    assert c_cube.kind == "Discrete" and c_base.kind == "Discrete"
    assert c_cube.generator == c_base.generator ** 3

    # <3/2> and <9/4> generate different discrete subgroups (step vs 2 step)
    assert c_sq.kind == "Discrete"
    assert c_sq != c_base
    assert c_sq.generator == c_base.generator ** 2

    assert hausdorff_class_gl1([Fraction(2), Fraction(3)]).kind == "Dense"
    assert hausdorff_class_gl1([Fraction(1)]).kind == "Trivial"
    assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------------------
# 4. Heisenberg-type cochain is not boundedly trivial


def test_acceptance_04_heisenberg_nontrivial():
    t0 = time.monotonic()
    cx = grid_complex(40, 40)
    tau = heisenberg_cochain(cx)
    scan = linear_bound_scan(cx, tau)
    by_length = {row.length: row.ratio for row in scan.rows}
    # square of side s has loop sum s^2 and length 4s: ratio s/4 exactly
    assert by_length[16] == Fraction(1)
    assert by_length[32] == Fraction(2)
    assert by_length[64] == Fraction(4)
    assert by_length[128] == Fraction(8)
    verdict = is_trivial(cx, d1(cx, tau))
    assert verdict.kind == "Nontrivial"
    assert time.monotonic() - t0 < 5.0


# ---------------------------------------------------------------------------
# 5. Primitive construction is sound at 2C


def test_acceptance_05_primitive_soundness():
    t0 = time.monotonic()
    rng = random.Random(1105)
    cx = grid_complex(30, 30)
    edges = list(cx.edges)
    for _ in range(100):
        a = Cochain1(dim=1)
        for e in edges:
            num = rng.randint(-12, 12)
            den = rng.choice((1, 2, 3, 4))
            a.values[e] = (Fraction(num, den),)
        bound_c = max(abs(v[0]) for v in a.values.values())
        f = primitive(cx, a, bound_c)
        adjusted = Cochain1(dim=1)
        df = coboundary_of_potential(cx, f, 1)
        for e in edges:
            adjusted.values[e] = (a.value(e)[0] + df.value(e)[0],)
            assert abs(adjusted.values[e][0]) <= 2 * bound_c
            assert isinstance(adjusted.values[e][0], Fraction)
        # adding a coboundary never changes the curvature
        assert d1(cx, adjusted).values == d1(cx, a).values
    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# 6. Polynomial versus exponential growth of windowed bundles


def test_acceptance_06_growth_dichotomy():
    t0 = time.monotonic()

    trivial = GluingSpec(base="line", fiber_dim=1, edge_map=Translation((0,)))
    ball = build_total_space(trivial, base_window=27, fiber_window=27,
                             origin=((0,), 0))
    series = ball_growth(ball, rmax=25)
    for r in range(26):
        assert series.flags[r]
        assert series.counts[r] == 2 * r * r + 2 * r + 1
    flat = growth_class(series.counts, series.flags)
    assert flat.kind == "Polynomial"

    # doubling-wedge bundle, measured around a deep base point
    spec = phi_example_spec()
    ball = build_total_space(spec, base_window=(1005, 1043),
                             fiber_window=8500, origin=((0,), 1024))
    series = ball_growth(ball, rmax=18)
    valid = series.valid_radii()
    window = [r for r in valid if 15 <= r <= 25]
    assert window, "no valid radii at 15 or beyond"
    for r in window:
        assert series.counts[r] >= 1.1 ** r, (r, series.counts[r])
    wedge = growth_class(series.counts, series.flags)
    assert wedge.kind == "Exponential"
    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# 7. Orbit reduction: gcd endpoint and geometric decay


def test_acceptance_07_orbit_reduction():
    rng = random.Random(707)
    for _ in range(1000):
        a = rng.randint(-10 ** 6, 10 ** 6)
        b = rng.randint(-10 ** 6, 10 ** 6)
        if a == 0 and b == 0:
            continue
        trace = orbit_reduce([a, b])
        g = math.gcd(abs(a), abs(b))
        assert trace.final == (Fraction(g), Fraction(0))
        assert trace.norms[-1] == float(g)

    # the float golden ratio is a binary rational: its exact reduction
    # decays geometrically all the way down to its positive gcd
    golden = (1 + math.sqrt(5)) / 2
    trace = orbit_reduce([1.0, golden])
    for k, norm in enumerate(trace.norms):
        assert norm <= 0.62 ** (k - 2) + 1e-12, (k, norm)
    assert trace.step_count < 100
    assert trace.final[0] > 0 and trace.final[1] == 0


# ---------------------------------------------------------------------------
# 8. Coset enumeration in the modular group


def _oracle_todd_coxeter(relators, subgroup_words, letters, limit=64):
    """Minimal HLT coset enumeration, independent of the library code.

    Cosets are rows of a table indexed by letters; scanning a word across a
    row defines missing entries and merging handles coincidences via
    union-find.  Returns the coset count on closure.
    """
    table = [{}]
    parent = [0]
    pending = []

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        x, y = find(x), find(y)
        if x == y:
            return
        if x > y:
            x, y = y, x
        parent[y] = x
        moved, table[y] = table[y], {}
        for letter, img in moved.items():
            pending.append((x, letter, img))

    def drain():
        while pending:
            c, letter, img = pending.pop()
            c, img = find(c), find(img)
            for a, lab, b in ((c, letter, img), (img, letter.swapcase(), c)):
                old = table[a].get(lab)
                if old is None:
                    table[a][lab] = b
                elif find(old) != b:
                    union(old, b)

    def set_entry(coset, letter, image):
        pending.append((coset, letter, image))
        drain()

    def scan_and_fill(coset, word):
        # the word must act trivially on this coset: walk forward then
        # backward, then bridge the gap by deduction, definition, or merge
        while True:
            fwd, i = find(coset), 0
            while i < len(word):
                nxt = table[fwd].get(word[i])
                if nxt is None:
                    break
                fwd, i = find(nxt), i + 1
            bwd, j = find(coset), len(word)
            while j > i:
                prev = table[bwd].get(word[j - 1].swapcase())
                if prev is None:
                    break
                bwd, j = find(prev), j - 1
            if i >= j:
                if fwd != bwd:
                    union(fwd, bwd)
                    drain()
                return
            if j == i + 1:
                set_entry(fwd, word[i], bwd)
                return
            table.append({})
            parent.append(len(parent))
            set_entry(fwd, word[i], len(table) - 1)
            if len(table) > limit:
                raise RuntimeError("oracle enumeration exceeded its limit")

    alphabet = tuple(letters) + tuple(x.swapcase() for x in letters)
    for word in subgroup_words:
        scan_and_fill(0, word)
    while True:
        # a pass progresses when it merges cosets or defines new ones, be it
        # here or inside scan_and_fill, whose cosets lie past this range
        size, progress = len(table), False
        for c in range(size):
            if find(c) != c:
                continue
            for word in relators:
                scan_and_fill(c, word)
            if find(c) != c:
                progress = True
                continue
            for letter in alphabet:
                if table[c].get(letter) is None:
                    table.append({})
                    parent.append(len(parent))
                    set_entry(c, letter, len(table) - 1)
            if len(table) > limit:
                raise RuntimeError("oracle enumeration exceeded its limit")
        if not progress and len(table) == size:
            break
    live = [c for c in range(len(table)) if find(c) == c]

    def walk(coset, word):
        for letter in word:
            coset = find(table[find(coset)][letter])
        return coset

    for c in live:
        assert all(table[c].get(letter) is not None for letter in alphabet)
        for word in relators:
            assert walk(c, word) == c
    for word in subgroup_words:
        assert walk(0, word) == find(0)
    return len(live)


def test_acceptance_08_coset_enumeration():
    s = IntMatrix([[0, -1], [1, 0]])
    t = IntMatrix([[1, 1], [0, 1]])
    t_inv = IntMatrix([[1, -1], [0, 1]])
    s_inv = IntMatrix([[0, 1], [-1, 0]])
    gen_a = IntMatrix([[1, 2], [0, 1]])
    gen_b = IntMatrix([[1, 0], [2, 1]])

    # the subgroup generators as words in s, t, verified by exact products
    assert t @ t == gen_a
    assert s @ t_inv @ t_inv @ s_inv == gen_b

    # independent enumeration first: relators s^2 and (st)^3 over s, t,
    # subgroup generated by tt and s t^-1 t^-1 s^-1 (case = inverse)
    oracle_index = _oracle_todd_coxeter(
        relators=("ss", "ststst"),
        subgroup_words=("tt", "sTTS"),
        letters=("s", "t"),
    )
    assert oracle_index == 6

    sanov = Gl2Subgroup((gen_a.to_rat(), gen_b.to_rat()))
    result = classify_psl2z_subgroup(sanov)
    assert result.kind == "FiniteIndex"
    assert result.index == oracle_index

    full = Gl2Subgroup((s.to_rat(), t.to_rat()))
    assert classify_psl2z_subgroup(full).index == 1

    parabolic = Gl2Subgroup((t.to_rat(),))
    starved = classify_psl2z_subgroup(parabolic, budget=500)
    assert starved.kind == "InfiniteIndexOrUnknown"
    assert starved.index is None


# ---------------------------------------------------------------------------
# 9. Drift seminorm convergence and foliation kernels


def _line_distance(v, direction):
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    v = np.asarray(v, dtype=float)
    return float(np.linalg.norm(v - (v @ d) * d))


def test_acceptance_09_seminorm_convergence():
    diag = RatMatrix([[2, 0], [0, Fraction(1, 2)]])
    est = drift_seminorm([diag], [1.0, 0.0])
    assert est.closed_form is not None
    assert abs(est.closed_form - 1.0) < 1e-12
    assert abs(est.estimates[63] - est.closed_form) <= 0.01 * est.closed_form

    fib = RatMatrix([[2, 1], [1, 1]])
    lam = (3 + math.sqrt(5)) / 2
    v = np.array([lam - 1, 1.0])
    v /= np.linalg.norm(v)
    est = drift_seminorm([fib], v.tolist())
    closed = lam - 1
    assert est.closed_form is not None
    assert abs(est.closed_form - closed) < 1e-9
    assert abs(est.estimates[63] - closed) <= 0.01 * closed

    kernel = foliation_kernel([diag])
    assert kernel.dimension == 1
    assert _line_distance(kernel.basis[0], (0.0, 1.0)) < 1e-9

    kernel = foliation_kernel([fib])
    assert kernel.dimension == 1
    contracting = ((1 - math.sqrt(5)) / 2, 1.0)
    assert _line_distance(kernel.basis[0], contracting) < 1e-9


# ---------------------------------------------------------------------------
# 10. Trichotomy exclusivity and stability on a random corpus


def _relabel(g):
    mapping = {v: f"w_{v}" for v in g.vertices}
    edges = tuple(
        Edge("x" + e.id, mapping[e.iota], mapping[e.tau],
             e.incl_iota, e.incl_tau)
        for e in g.edges)
    return GraphOfGroups(rank=g.rank,
                         vertices=tuple(mapping[v] for v in g.vertices),
                         edges=edges)


def test_acceptance_10_trichotomy_properties(trichotomy_corpus):
    corpus = trichotomy_corpus
    cap = 200_000
    kinds = {"Parabolic", "Folded", "Proper", "Undetermined"}
    for i, g in enumerate(corpus):
        verdict = classify(g, cap=cap)
        assert verdict.kind in kinds, (i, verdict.kind)
        assert verdict.decided == (verdict.kind != "Undetermined")
        if verdict.hnn is not None:
            assert verdict.kind == "Parabolic"
        if verdict.kind == "Parabolic":
            assert verdict.hnn is not None

        again = classify(g, cap=cap)
        assert again.kind == verdict.kind
        assert again.evidence.rule == verdict.evidence.rule

        relabeled = classify(_relabel(g), cap=cap)
        assert relabeled.kind == verdict.kind

        if i % 5 == 0:
            deeper = classify(g, depth=7, cap=cap)
            if verdict.decided and deeper.decided:
                assert deeper.kind == verdict.kind
