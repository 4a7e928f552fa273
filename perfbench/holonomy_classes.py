"""holonomy_classes: coarse classes of holonomy groups in GL1(Q) and GL2(Q).

Why: subgroup_analysis is the largest module and holds four of the five
word-ball enumerators, and no other workload loads it.  Its graphs only
build line-shaped trees, so a bass_serre change predicts no change here.
Coset enumerations that spend their budget set p90 and most of the
undecided share.

Subgroups are given by words in s = [[0,-1],[1,0]] and t = [[1,1],[0,1]]
(upper case = inverse), conjugated by a seeded short word, so the
acceptance tests' standalone enumerator can check every index.
"""

from __future__ import annotations

import math
from fractions import Fraction

from perfbench import oracles
from perfbench.decisions import (DECIDED, UNDECIDED, Checked, Decision,
                                 call_cli, cli_report, expect, round_rng,
                                 write_doc)

NAME = "holonomy_classes"
BUDGET = 20_000   # the CLI's --budget default, used for API calls too

LATTICES = {      # finite index in PSL2(Z)
    "sanov": ("tt", "sTTS"),
    "gamma2": ("tt", "sTTS", "ss"),
    "gamma0_2": ("t", "sTTS"),
    "gamma0_3": ("t", "sTTTS"),
}
CANTOR = {        # free, infinite index; enumeration stops early
    "t3u3": ("ttt", "sTTTS"),
    "t4u4": ("tttt", "sTTTTS"),
    "t2u3": ("tt", "sTTTS"),
}
EXHAUST = {       # free, infinite index; enumeration spends the budget
    "t5u5": ("ttttt", "sTTTTTS"),
}
PRIMES = (2, 3, 5, 7, 11, 13)

# kind -> decisions per round.  Sorted by latency a round reads: sub-ms
# (gl1, orbit, psl on lattices and Cantor groups: 8 of 28), lattice classes
# (9, p50 falls inside), CLI and Cantor classes, then the budget-spending
# enumerations (4, p90 falls inside).  qi_compare (3) lands below or above
# the lattice classes depending on its words; with 8 sub-ms decisions p50
# stays within the middle third of the lattice classes either way.
PLAN = (("gl1", 2), ("orbit", 2), ("psl_lattice", 3), ("psl_cantor", 1),
        ("hclass_lattice", 9), ("qi_compare", 3), ("hclass_cli", 2),
        ("hclass_cantor", 2), ("psl_exhaust", 3), ("hclass_exhaust", 1))


def once(ctx, seed: int) -> list:
    return []


def make_round(ctx, seed: int, r: int) -> list:
    rng = round_rng(NAME, seed, r)
    out = []
    for kind, count in PLAN:
        for i in range(count):
            out.append(_MAKERS[kind](ctx, rng, i, f"r{r}-{kind}{i}.json"))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# inputs


def _conjugated(rng, family: dict, conjugate: bool = True) -> tuple:
    """Words of a seeded member of the family, generators in seeded order
    and orientation, conjugated by a seeded word of length at most 2.
    Conjugating a Cantor group can defeat the ping-pong certificate, so
    those are only reordered."""
    name = rng.choice(sorted(family))
    words = [w if rng.random() < 0.5 else oracles.invert_word(w)
             for w in family[name]]
    rng.shuffle(words)
    c = ("".join(rng.choice("sStT") for _ in range(rng.randint(0, 2)))
         if conjugate else "")
    return tuple(c + w + oracles.invert_word(c) for w in words)


def _group(lib, words):
    RatMatrix = lib.core_algebra.RatMatrix
    return lib.subgroup_analysis.Gl2Subgroup(
        [RatMatrix([list(row) for row in oracles.word_rows(w)])
         for w in words])


def _sl2_word(lib, rng, length):
    IntMatrix = lib.core_algebra.IntMatrix
    w = IntMatrix.identity(2)
    for _ in range(length):
        pick = rng.randrange(9)
        if pick == 8:
            w = w @ IntMatrix([[0, -1], [1, 0]])
        else:
            a = (-2, -1, 1, 2)[pick % 4]
            w = w @ IntMatrix([[1, a], [0, 1]] if pick < 4
                              else [[1, 0], [a, 1]])
    return w


# ---------------------------------------------------------------------------
# decisions


def _qi_compare(ctx, rng, i, _):
    lib = ctx.lib
    w1 = _sl2_word(lib, rng, rng.randint(2, 4))
    w2 = _sl2_word(lib, rng, rng.randint(2, 4))
    g1 = lib.graph_of_groups.semidirect(2, [w1])
    g2 = lib.graph_of_groups.semidirect(2, [w2])
    same = oracles.sl2_type(w1.rows) == oracles.sl2_type(w2.rows)

    def check(cmp_):
        expect(cmp_.verdict in ("SameQiClass", "DifferentQiClass"),
               f"qi_compare undecided: {cmp_.reason}")
        want = "SameQiClass" if same else "DifferentQiClass"
        expect(cmp_.verdict == want,
               f"{w1.rows} vs {w2.rows}: {cmp_.verdict}, expected {want}")
        return Checked(DECIDED)
    return Decision("qi_compare",
                    lambda: lib.trichotomy.qi_compare(g1, g2), check)


def _expect_sl2(ctx, words, kind, index):
    """Check an Sl2Part (kind, index) against the coset oracle."""
    oracle = oracles.coset_index(ctx.acceptance, words)
    if oracle is not None:
        expect(kind == "Lattice" and index == oracle,
               f"{words}: {kind}({index}), oracle index {oracle}")
        return DECIDED
    expect(kind in ("NonElementaryCantor", "Unknown"),
           f"{words}: {kind}({index}) but the oracle finds no finite index")
    return UNDECIDED if kind == "Unknown" else DECIDED


def _hclass(family, kind):
    def make(ctx, rng, i, _):
        lib = ctx.lib
        words = _conjugated(rng, family, family is not CANTOR)
        group = _group(lib, words)

        def check(cls):
            expect(cls.det_part.kind == "Trivial", "det part of SL2 group")
            return Checked(_expect_sl2(ctx, words, cls.sl2_part.kind,
                                       cls.sl2_part.index))
        return Decision(kind, lambda: lib.subgroup_analysis.hausdorff_class(
            group, budget=BUDGET), check)
    return make


def _psl(family, kind):
    def make(ctx, rng, i, _):
        lib = ctx.lib
        words = _conjugated(rng, family, family is not CANTOR)
        group = _group(lib, words)

        def check(res):
            expect(res.budget == BUDGET, "budget not echoed")
            oracle = oracles.coset_index(ctx.acceptance, words)
            if oracle is None:
                expect(res.kind == "InfiniteIndexOrUnknown"
                       and res.index is None,
                       f"{words}: {res.kind}({res.index}), infinite index")
                return Checked(UNDECIDED)
            expect(res.kind == "FiniteIndex" and res.index == oracle,
                   f"{words}: {res.kind}({res.index}), oracle {oracle}")
            return Checked(DECIDED)
        return Decision(kind, lambda: lib.subgroup_analysis
                        .classify_psl2z_subgroup(group, budget=BUDGET), check)
    return make


def _gl1(ctx, rng, i, _):
    lib = ctx.lib
    shape = rng.randrange(3)
    p, q = rng.sample(PRIMES, 2)
    base = Fraction(p, q)
    if shape == 0:      # powers of one rational: Discrete
        values = [base ** rng.choice((-6, -4, -3, -2, 2, 3, 4, 6))
                  for _ in range(rng.randint(1, 3))]
    elif shape == 1:    # independent primes: Dense
        values = [Fraction(p) ** rng.randint(1, 3),
                  Fraction(q) ** rng.randint(1, 3)]
    else:               # units only: Trivial
        values = [Fraction(rng.choice((1, -1))) for _ in range(2)]
    kind, gen = oracles.gl1_expected(values)

    def check(cls):
        expect(cls.kind == kind, f"{values}: {cls.kind}, expected {kind}")
        if kind == "Discrete":
            expect(cls.generator in (gen, 1 / gen),
                   f"{values}: generator {cls.generator}, expected {gen}")
        return Checked(DECIDED)
    return Decision("gl1", lambda: lib.subgroup_analysis.hausdorff_class_gl1(
        values), check)


def _orbit(ctx, rng, i, _):
    lib = ctx.lib
    a, b = rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6)
    g = math.gcd(a, b)

    def check(trace):
        expect(trace.final == (Fraction(g), Fraction(0)),
               f"reduce ({a}, {b}) -> {trace.final}, gcd {g}")
        expect(trace.norms[-1] == float(g), "final norm is not the gcd")
        return Checked(DECIDED)
    return Decision("orbit", lambda: lib.subgroup_analysis.orbit_reduce(
        [a, b]), check)


def _hclass_cli(ctx, rng, i, filename):
    family = (LATTICES, CANTOR)[i % 2]
    words = _conjugated(rng, family, family is not CANTOR)
    doc = {"matrices": [[list(row) for row in oracles.word_rows(w)]
                        for w in words]}
    argv = ["subgroup", "class", write_doc(ctx, filename, doc), "--json"]

    def check(res):
        report, status, counts = cli_report(res)
        sl2 = report["verdict"]["sl2_part"]
        got = _expect_sl2(ctx, words, sl2["kind"], sl2["index"])
        expect((status == DECIDED) == (sl2["kind"] != "Unknown"),
               "exit code disagrees with the sl2 verdict")
        return Checked(got, counts)
    return Decision("hclass_cli", lambda: call_cli(ctx, argv), check)


_MAKERS = {
    "qi_compare": _qi_compare,
    "hclass_lattice": _hclass(LATTICES, "hclass_lattice"),
    "hclass_cantor": _hclass(CANTOR, "hclass_cantor"),
    "hclass_exhaust": _hclass(EXHAUST, "hclass_exhaust"),
    "psl_lattice": _psl(LATTICES, "psl_lattice"),
    "psl_cantor": _psl(CANTOR, "psl_cantor"),
    "psl_exhaust": _psl(EXHAUST, "psl_exhaust"),
    "gl1": _gl1,
    "orbit": _orbit,
    "hclass_cli": _hclass_cli,
}
