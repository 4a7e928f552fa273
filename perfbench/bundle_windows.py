"""bundle_windows: ``build_total_space`` -> ``ball_growth`` -> ``growth_class``
on seeded windows over line, grid and finite bases.

Why: building a window costs about 20x the BFS over it, and the
acceptance-06 doubling-wedge window (663,039 vertices, run once per pass)
sets this workload's peak RSS.  Small windows set p50 through the BFS,
the two affine line windows of each round at its middle; the two
phi_example windows of each round set p90.
Linear and affine gluings are checked against an exact integer clip oracle.
Two unimodular Fibonacci gluings, [[F31,F30],[F30,F29]] and the F41
analogue, are probes of a known defect: the float backward-clip pass misses
clipped vertices on the first and raises LinAlgError on the second.
"""

from __future__ import annotations

from perfbench import oracles
from perfbench.decisions import (DECIDED, UNDECIDED, Checked, CheckFailed,
                                 Decision, call_cli, cli_report, expect,
                                 round_rng, write_doc)

NAME = "bundle_windows"
ANOSOV = ((2, 1), (1, 1))
PHI_FIBER = 500          # fiber half-width of the small wedge windows
PHI_HALF = 10            # base half-width around the seeded base point


def _fib(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def _fib_matrix(k: int) -> tuple:
    return ((_fib(k), _fib(k - 1)), (_fib(k - 1), _fib(k - 2)))


def once(ctx, seed: int) -> list:
    """The acceptance-06 wedge window around base point 1024."""
    lib = ctx.lib
    spec = lib.bundle_lab.phi_example_spec()

    def check(out):
        ball, series, growth = out
        n_valid = oracles.check_growth_series(series.counts, series.flags, 18)
        window = [r for r in range(15, n_valid)]
        expect(window, "no valid radius at 15 or beyond")
        for r in window:
            expect(series.counts[r] >= 1.1 ** r,
                   f"wedge |B({r})| = {series.counts[r]} < 1.1^{r}")
        expect(growth is not None and growth.kind == "Exponential",
               f"wedge growth {growth}")
        return Checked(DECIDED)
    return [Decision("wedge", lambda: _grow(lib, spec, (1005, 1043), 8500,
                                             ((0,), 1024), 18), check)]


def make_round(ctx, seed: int, r: int) -> list:
    rng = round_rng(NAME, seed, r)
    lib = ctx.lib
    bl = lib.bundle_lab
    IntMatrix = lib.core_algebra.IntMatrix
    out = []

    t = rng.choice((0, 1, -1, 2, -2))
    w = rng.choice((12, 14, 16))
    spec = bl.GluingSpec(base="line", fiber_dim=1,
                         edge_map=bl.Translation((t,)))
    out.append(_flat_decision(lib, spec, w))

    m = _sl2_word(rng, 2)
    spec = bl.GluingSpec(base="line", fiber_dim=2,
                         edge_map=bl.Linear(IntMatrix(m)))
    out.append(_linear_decision(lib, "line_linear", spec, "line", 3, 6,
                                ((0, 0), 0), 6, m, (0, 0)))

    spec = bl.GluingSpec(base="grid", fiber_dim=2,
                         edge_map=bl.Linear(IntMatrix(ANOSOV)))
    out.append(_linear_decision(lib, "grid_anosov", spec, "grid", 3, 4,
                                ((0, 0), (0, 0)), 4, ANOSOV, (0, 0)))

    # two of the eleven decisions, so p50 falls inside their cluster
    for _ in range(2):
        m, shift = _affine_with_interior_origin(rng, 5)
        spec = bl.GluingSpec(base="line", fiber_dim=2,
                             edge_map=bl.Affine(IntMatrix(m), shift))
        out.append(_linear_decision(lib, "line_affine", spec, "line", 3, 5,
                                    ((0, 0), 0), 5, m, shift))

    # two of the eleven decisions, so p90 falls inside their cluster and
    # not on the gap below it
    for _ in range(2):
        out.append(_phi_decision(lib, rng.randint(60, 100)))

    m = _sl2_word(rng, 2)
    cycle = bl.FiniteBase(vertices=("a", "b", "c"),
                          edges=(("a", "b"), ("b", "c"), ("c", "a")))
    spec = bl.GluingSpec(base=cycle, fiber_dim=2,
                         edge_map=bl.Linear(IntMatrix(m)))
    out.append(_linear_decision(lib, "finite_linear", spec, cycle, 0, 4,
                                ((0, 0), "a"), 4, m, (0, 0)))

    pair = bl.FiniteBase(vertices=("a", "b"), edges=(("a", "b"),))
    for k in (31, 41):
        m = _fib_matrix(k)
        spec = bl.GluingSpec(base=pair, fiber_dim=2,
                             edge_map=bl.Linear(IntMatrix(m)))
        out.append(_linear_decision(lib, f"fibonacci_f{k}", spec, pair, 0, 3,
                                    ((0, 0), "a"), 3, m, (0, 0), probe=True))

    out.append(_grow_cli(ctx, rng, f"r{r}-bundle.json"))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# decisions and checks


def _grow(lib, spec, base_window, fiber_window, origin, rmax):
    """One growth verdict: build the window, BFS it, classify the growth."""
    bl = lib.bundle_lab
    ball = bl.build_total_space(spec, base_window, fiber_window, origin)
    series = bl.ball_growth(ball, rmax)
    try:
        growth = bl.growth_class(series.counts, series.flags)
    except lib.errors.TooFewRadii:
        growth = None
    return ball, series, growth


def _sl2_word(rng, length: int) -> tuple:
    m = ((1, 0), (0, 1))
    for _ in range(length):
        a = rng.choice((-2, -1, 1, 2))
        e = ((1, a), (0, 1)) if rng.random() < 0.5 else ((1, 0), (a, 1))
        m = tuple(tuple(sum(m[i][k] * e[k][j] for k in range(2))
                        for j in range(2)) for i in range(2))
    return m


def _affine_with_interior_origin(rng, fiber_half: int) -> tuple:
    """An affine gluing whose origin (0, 0) keeps its backward partner
    M^-1(-shift) inside the window; ball_growth rejects a clipped origin."""
    while True:
        m = _sl2_word(rng, 2)
        shift = (rng.randint(-2, 2), rng.randint(-2, 2))
        (a, b), (c, d) = m
        pre = (-d * shift[0] + b * shift[1], c * shift[0] - a * shift[1])
        if max(abs(x) for x in pre) < fiber_half:
            return m, shift


def _status(series, growth, rmax) -> str:
    n_valid = oracles.check_growth_series(series.counts, series.flags, rmax)
    # growth_class needs eight valid radii r >= 1
    expect((growth is None) == (n_valid - 1 < 8),
           f"growth {growth} with {n_valid - 1} valid radii r >= 1")
    if growth is None:
        return UNDECIDED
    return UNDECIDED if growth.kind == "Undetermined" else DECIDED


def _flat_decision(lib, spec, w):
    return Decision("line_translation",
                    lambda: _grow(lib, spec, w, w, ((0,), 0), w - 2),
                    _flat_check(w - 2))


def _phi_decision(lib, b0):
    spec = lib.bundle_lab.phi_example_spec()
    return Decision("phi_window",
                    lambda: _grow(lib, spec, (b0 - PHI_HALF, b0 + PHI_HALF),
                                  PHI_FIBER, ((0,), b0), 12),
                    _wedge_check(12))


def _flat_check(rmax):
    """Translation gluings over the line give Z^2: |B(r)| = 2r^2 + 2r + 1."""
    def check(out):
        ball, series, growth = out
        status = _status(series, growth, rmax)
        for r in series.valid_radii():
            expect(series.counts[r] == 2 * r * r + 2 * r + 1,
                   f"|B({r})| = {series.counts[r]}")
        if status == DECIDED:
            expect(growth.kind == "Polynomial", f"flat growth {growth.kind}")
        return Checked(status)
    return check


def _wedge_check(rmax):
    def check(out):
        ball, series, growth = out
        status = _status(series, growth, rmax)
        for r in series.valid_radii():
            expect(series.counts[r] >= 1.1 ** r,
                   f"wedge |B({r})| = {series.counts[r]} < 1.1^{r}")
        if status == DECIDED:
            expect(growth.kind == "Exponential", f"wedge growth {growth.kind}")
        return Checked(status)
    return check


def _linear_decision(lib, kind, spec, base, base_half, fiber_half, origin,
                     rmax, matrix, shift, probe=False):
    lo, hi = -fiber_half, fiber_half
    edges = oracles.base_edges(base, -base_half, base_half)

    def check(out):
        ball, series, growth = out
        need = oracles.required_gluing_clips(
            [(e, matrix, shift) for e in edges],
            oracles.window_points(lo, hi, 2), lo, hi)
        missing = len(need - ball.clipped)
        counts = {"bundle_lab.clip_oracle_mismatches": missing}
        if missing:
            raise CheckFailed(f"{missing} vertices lack a clip flag the "
                              "exact oracle requires", counts)
        return Checked(_status(series, growth, rmax), counts)
    return Decision(kind, lambda: _grow(lib, spec, base_half, fiber_half,
                                        origin, rmax), check, probe=probe)


def _grow_cli(ctx, rng, filename):
    t = rng.choice((0, 1, -1, 2, -2))
    w = rng.choice((12, 14, 16))
    doc = {"base": "line", "fiber_dim": 1,
           "map": {"type": "translation", "vector": [t]}}
    argv = ["bundle", "grow", write_doc(ctx, filename, doc),
            "--base-window", str(w), "--fiber-window", str(w),
            "--rmax", str(w - 2), "--json"]

    def check(res):
        report, status, counts = cli_report(res)
        ev = report["evidence"]
        expect(ev["vertices"] == (2 * w + 1) ** 2, "window vertex count")
        n_valid = oracles.check_growth_series(ev["counts"], ev["valid"],
                                              w - 2)
        for r in range(n_valid):
            expect(ev["counts"][r] == 2 * r * r + 2 * r + 1,
                   f"cli |B({r})| = {ev['counts'][r]}")
        if status == DECIDED:
            expect(report["verdict"]["kind"] == "Polynomial",
                   f"cli flat growth {report['verdict']['kind']}")
        return Checked(status, counts)
    return Decision("bundle_cli", lambda: call_cli(ctx, argv), check)
