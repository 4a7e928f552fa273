"""tree_trichotomy: ``classify`` on the Baumslag-Solitar table, a seeded
corpus shaped like acceptance criterion 10, and depth-9 requests.

Why: building the tree ball is ~96% of the table's time, with up to 1e5
vertices per distinct label.  The certificate rules (finite image,
ascending HNN, ping-pong) set p50; ball builds set p90.  The depth-9
requests on wide groups are silently cut to a shallower ball by the vertex
cap, which ``trichotomy.depth_shortfall`` records.

Every BS graph is relabelled per round, so no two decisions in a run pass
the library an identical graph.
"""

from __future__ import annotations

import math
from fractions import Fraction

from perfbench import oracles
from perfbench.decisions import (DECIDED, UNDECIDED, Checked, Decision,
                                 call_cli, cli_report, expect, round_rng,
                                 write_doc)

NAME = "tree_trichotomy"
TABLE = tuple((m, n) for m in range(1, 7) for n in range(m, 7))
TABLE_DEPTH = 6
TABLE_VIA_CLI = 5        # of the 21 table decisions per round, rotating
WIDE = ((5, 6), (6, 5), (3, 5), (5, 3))   # the 2M cap cuts depth 9 short
DEEP = 9
# corpus shape -> (decisions per round, of which through the CLI)
CORPUS = (("semidirect", 14, 2), ("rank1", 2, 0), ("bs", 2, 0))
CORPUS_CAP = 200_000     # the vertex cap acceptance criterion 10 uses


def once(ctx, seed: int) -> list:
    return []


def make_round(ctx, seed: int, r: int) -> list:
    """21 table decisions, 18 seeded corpus graphs, one depth-9 request.

    Which decisions go through the CLI, and which wide group gets the deep
    request, depend on the round only, so every seed sees the same mix of
    rules; the seed picks the corpus graphs and the relabellings.
    """
    rng = round_rng(NAME, seed, r)
    lib = ctx.lib
    bs = lib.graph_of_groups.bs
    depth = lib.trichotomy.DEFAULT_DEPTH
    out = []
    via_cli = {(5 * r + 4 * k) % len(TABLE) for k in range(TABLE_VIA_CLI)}
    for i, (m, n) in enumerate(TABLE):
        g = _relabel(lib, bs(m, n), rng)
        check = _bs_check(lib, g, m, n, TABLE_DEPTH)
        if i in via_cli:
            out.append(_cli_decision(ctx, "table_cli", g, TABLE_DEPTH, check,
                                     f"r{r}-table{i}.json"))
        else:
            out.append(_api_decision(lib, "table", g, TABLE_DEPTH, check))
    for shape, count, cli_count in CORPUS:
        for i in range(count):
            g, oracle = _random_graph(lib, rng, shape)
            check = _corpus_check(lib, g, oracle)
            if i < cli_count:
                out.append(_cli_decision(ctx, "corpus_cli", g, depth, check,
                                         f"r{r}-{shape}{i}.json"))
            else:
                out.append(_api_decision(lib, "corpus_" + shape, g, depth,
                                         check, cap=CORPUS_CAP))
    m, n = WIDE[r % len(WIDE)]
    g = _relabel(lib, bs(m, n), rng)
    out.append(_api_decision(lib, "deep", g, DEEP, _bs_check(lib, g, m, n,
                                                             DEEP)))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# inputs


def _relabel(lib, g, rng):
    tag = f"{rng.randrange(16 ** 6):06x}"
    names = {v: f"{v}_{tag}" for v in g.vertices}
    Edge = lib.graph_of_groups.Edge
    edges = tuple(Edge(f"{e.id}_{tag}", names[e.iota], names[e.tau],
                       e.incl_iota, e.incl_tau) for e in g.edges)
    return lib.graph_of_groups.GraphOfGroups(
        rank=g.rank, vertices=tuple(names[v] for v in g.vertices),
        edges=edges)


def _random_graph(lib, rng, shape):
    """(graph, oracle) in one of the three shapes of acceptance criterion 10.

    oracle is ("bs", m, n), ("semidirect", rows) or ("rank1", None).
    """
    gg = lib.graph_of_groups
    IntMatrix = lib.core_algebra.IntMatrix
    if shape == "bs":
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        return gg.bs(m, n), ("bs", m, n)
    if shape == "semidirect":
        word = IntMatrix.identity(2)
        for _ in range(rng.randint(1, 4)):
            a = rng.randint(-2, 2)
            word = word @ IntMatrix([[1, a], [0, 1]] if rng.random() < 0.5
                                    else [[1, 0], [a, 1]])
        return gg.semidirect(2, [word]), ("semidirect", word.rows)
    k = rng.randint(1, 3)
    vertices = tuple(f"v{i}" for i in range(k))
    one = lambda: IntMatrix([[rng.randint(1, 3)]])
    edges = [gg.Edge(f"path{i}", vertices[rng.randrange(i)], vertices[i],
                     one(), one()) for i in range(1, k)]
    edges += [gg.Edge(f"extra{j}", rng.choice(vertices), rng.choice(vertices),
                      one(), one()) for j in range(rng.randint(0, 2))]
    if not edges:
        edges.append(gg.Edge("loop", vertices[0], vertices[0],
                             IntMatrix([[1]]), IntMatrix([[1]])))
    return (gg.GraphOfGroups(rank=1, vertices=vertices, edges=tuple(edges)),
            ("rank1", None))


# ---------------------------------------------------------------------------
# decisions and checks


def _api_decision(lib, kind, g, depth, check, cap=None):
    def call():
        return lib.trichotomy.classify(g, depth=depth, cap=cap)

    def check_api(v):
        oracles.check_trichotomy_shape(v.kind, v.decided, v.hnn is not None)
        return check(v.kind, v.evidence.rule, v.evidence.depth,
                     v.evidence.radius_r, {})
    return Decision(kind, call, check_api)


def _cli_decision(ctx, kind, g, depth, check, filename):
    path = write_doc(ctx, filename, ctx.lib.graph_of_groups.to_json_dict(g))
    argv = ["classify", path, "--depth", str(depth), "--json"]

    def check_cli(res):
        report, status, counts = cli_report(res)
        verdict, evidence = report["verdict"], report["evidence"]
        kind_ = verdict["kind"]
        oracles.check_trichotomy_shape(kind_, status == DECIDED,
                                       verdict["endomorphism"] is not None)
        return check(kind_, evidence["rule"], evidence["depth"],
                     evidence["radius_r"], counts)
    return Decision(kind, lambda: call_cli(ctx, argv), check_cli)


def _bs_check(lib, g, m, n, depth):
    """Closed form for the kind; exact holonomy n/m; radius |log(n/m)|."""
    expected = oracles.bs_kind(m, n)

    def check(kind, rule, used_depth, radius, counts):
        expect(kind == expected, f"bs({m},{n}): {kind}, expected {expected}")
        (_, gen), = lib.graph_of_groups.modular_holonomy(g).generators
        expect(gen[0, 0] == Fraction(n, m), f"bs({m},{n}) holonomy {gen}")
        if rule == "ball-coverage":
            expect(used_depth is not None and 3 <= used_depth <= depth,
                   f"bs({m},{n}) used depth {used_depth}")
            expect(oracles.isclose_log(radius, abs(math.log(n / m))),
                   f"bs({m},{n}) radius {radius}")
        return Checked(DECIDED, counts)
    return check


def _corpus_check(lib, g, oracle):
    if oracle[0] == "bs":
        return _bs_check(lib, g, oracle[1], oracle[2],
                         lib.trichotomy.DEFAULT_DEPTH)

    def check(kind, rule, used_depth, radius, counts):
        if oracle[0] == "semidirect":
            expected = oracles.semidirect_kind(oracle[1])
            expect(kind == expected,
                   f"semidirect {oracle[1]}: {kind}, expected {expected}")
        return Checked(DECIDED if kind != "Undetermined" else UNDECIDED,
                       counts)
    return check
