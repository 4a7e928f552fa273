"""cochain_certificates: bounded-triviality decisions on grid complexes.

Why: one layer used two ways.  Random bounded rational 1-cochains come out
Trivial with a primitive certificate (the acceptance-05 shape); their time
is Fraction Bellman-Ford relaxation, and they are the majority, so they set
p50.  Heisenberg area forms on growing grids come out Nontrivial after a
loop scan, and ``cocycle check --json`` on explicit values goes through the
quadratic ``Cochain1.from_map``; together more than a tenth of the
decisions, they set p90.  A rewrite that helps one path and hurts the other
shows up as a split between p50 and p90.
"""

from __future__ import annotations

import ast
from fractions import Fraction

from perfbench import oracles
from perfbench.decisions import (DECIDED, Checked, Decision, call_cli,
                                 cli_report, expect, round_rng, write_doc)

NAME = "cochain_certificates"
# Per round: six Trivial decisions, three quarters of the round, whose
# middle (where p50 falls) is all side 12; one Heisenberg grid cycling
# through the sides; one CLI decision.
TRIVIAL_SIDES = (10, 12, 12, 12, 12, 14)
HEISENBERG_SIDES = (16, 20, 24, 28)
CLI_SIDE = 14


def once(ctx, seed: int) -> list:
    return []


def make_round(ctx, seed: int, r: int) -> list:
    rng = round_rng(NAME, seed, r)
    lib = ctx.lib
    grids = {}

    def grid(side):
        if side not in grids:
            grids[side] = lib.linf_cohomology.grid_complex(side, side)
        return grids[side]

    out = [_trivial(lib, grid(side), rng) for side in TRIVIAL_SIDES]
    out.append(_heisenberg(lib, grid(
        HEISENBERG_SIDES[r % len(HEISENBERG_SIDES)])))
    out.append(_cocycle_cli(ctx, grid(CLI_SIDE), rng, f"r{r}-cocycle.json"))
    rng.shuffle(out)
    return out


def _random_values(rng, edges) -> dict:
    """Bounded rational edge values, as in acceptance criterion 5."""
    return {e: Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4)))
            for e in edges}


def _check_certificate(lib, cx, values, c, verdict_f, achieved, budget):
    """Certificate for the class of ``values``: the library's curvature c
    must equal our own face sums, and a + df must be bounded with d(a + df)
    unchanged, where a is the cochain is_trivial solved for."""
    curvature = oracles.face_sums(cx.faces, values)
    expect([c.value(i)[0] for i in range(len(cx.faces))] == curvature,
           "d1 disagrees with the face sums")
    a = lib.linf_cohomology.solve_coboundary(cx, c)
    oracles.check_primitive_certificate(
        cx.faces, cx.edges, a.value, curvature, verdict_f, achieved, budget)


def _trivial(lib, cx, rng):
    values = _random_values(rng, cx.edges)
    a = lib.linf_cohomology.Cochain1(dim=1)
    for e, x in values.items():
        a.values[e] = (x,)
    lc = lib.linf_cohomology

    def call():
        c = lc.d1(cx, a)
        return c, lc.is_trivial(cx, c)

    def check(out):
        c, v = out
        expect(v.kind == "Trivial", f"random bounded cochain: {v.kind}")
        _check_certificate(lib, cx, values, c, v.primitive_f,
                           v.bound_achieved, v.bound_budget)
        return Checked(DECIDED)
    return Decision("trivial", call, check)


def _heisenberg(lib, cx):
    lc = lib.linf_cohomology
    tau = lc.heisenberg_cochain(cx)
    side = cx.grid_shape[0]

    def call():
        c = lc.d1(cx, tau)
        return lc.is_trivial(cx, c)

    def check(v):
        expect(v.kind == "Nontrivial", f"Heisenberg {side}: {v.kind}")
        expect(len(v.witnesses) >= 3, "fewer than three witness loops")
        oracles.check_heisenberg_scan(v.scan, side)
        return Checked(DECIDED)
    return Decision("heisenberg", call, check)


def _cocycle_cli(ctx, cx, rng, filename):
    lib = ctx.lib
    values = _random_values(rng, cx.edges)
    entries = []
    for (u, v), x in values.items():
        if rng.random() < 0.5:   # either orientation is accepted
            u, v, x = v, u, -x
        entries.append({"edge": [list(u), list(v)], "value": [str(x)]})
    side = cx.grid_shape[0]
    doc = {"complex": {"grid": [side, side]},
           "gluing": {"dim": 1, "values": entries}}
    argv = ["cocycle", "check", write_doc(ctx, filename, doc), "--json"]

    def check(res):
        report, status, counts = cli_report(res)
        verdict = report["verdict"]
        expect(verdict["kind"] == "Trivial",
               f"random bounded cochain via cli: {verdict['kind']}")
        a = lib.linf_cohomology.Cochain1(dim=1)
        for e, x in values.items():
            a.values[e] = (x,)
        c = lib.linf_cohomology.d1(cx, a)
        f = {ast.literal_eval(k): tuple(Fraction(x) for x in vals)
             for k, vals in report["evidence"]["primitive_f"].items()}
        _check_certificate(lib, cx, values, c, f,
                           Fraction(verdict["bound_achieved"]),
                           Fraction(verdict["bound_budget"]))
        return Checked(status, counts)
    return Decision("cocycle_cli", lambda: call_cli(ctx, argv), check)
