"""The CLI's `--json` reports, byte for byte, against committed goldens.

Each case writes its input documents into a scratch directory, runs
`main(argv)` there with relative file names (the report echoes argv), and
compares stdout with `tests/golden/<case>.json`.  The cases are the
Baumslag-Solitar table BS(m, n) for m, n <= 6 at depth 6, the acceptance-10
corpus, the `subgroup class` reports of the Sanov, Gamma(2) and Gamma_0(2)
generators, one `subgroup equiv` pair, and two `cocycle check` reports of
the Heisenberg gluing: on the 9x9 grid, whose rectangles are scanned in
closed form, and on a 4x3 grid given as plain vertices, edges and faces,
whose scan samples concatenations of fundamental cycles.

A change that is meant to alter a report regenerates the goldens with

    COARSEBUNDLE_REGEN_GOLDEN=1 python -m pytest tests/test_golden_reports.py

and the diff of `tests/golden/` then shows every report that moved.
"""

import json
import os
from pathlib import Path

import pytest

from coarsebundle import bs, graph_of_groups
from coarsebundle.cli import main
from coarsebundle.linf_cohomology import grid_complex

GOLDEN = Path(__file__).parent / "golden"
REGEN = os.environ.get("COARSEBUNDLE_REGEN_GOLDEN") == "1"

SUBGROUPS = {
    "sanov": [[[1, 2], [0, 1]], [[1, 0], [2, 1]]],
    "gamma2": [[[1, 2], [0, 1]], [[1, 0], [2, 1]], [[-1, 0], [0, -1]]],
    "gamma0_2": [[[1, 1], [0, 1]], [[1, 0], [2, 1]]],
    "full": [[[0, -1], [1, 0]], [[1, 1], [0, 1]]],
}


def _explicit_heisenberg(width, height):
    """The Heisenberg gluing on a grid written out as a general complex:
    no grid shape, and every upward edge weighs its column coordinate."""
    g = grid_complex(width, height)
    return {"complex": {"vertices": g.vertices, "edges": g.edges,
                        "faces": g.faces},
            "gluing": {"values": [{"edge": (u, v), "value": [u[0]]}
                                  for u, v in g.edges if u[0] == v[0]]}}


def _cases(corpus):
    """(case name, argv, {file name: document}) for every golden report."""
    out = []
    for m in range(1, 7):
        for n in range(1, 7):
            doc = graph_of_groups.to_json_dict(bs(m, n))
            name = f"bs_{m}_{n}.json"
            out.append((f"classify_bs_{m}_{n}",
                        ["classify", name, "--depth", "6", "--json"],
                        {name: doc}))
    for i, g in enumerate(corpus):
        name = f"corpus_{i:02d}.json"
        out.append((f"classify_corpus_{i:02d}",
                    ["classify", name, "--json"],
                    {name: graph_of_groups.to_json_dict(g)}))
    for key in ("sanov", "gamma2", "gamma0_2"):
        out.append((f"class_{key}",
                    ["subgroup", "class", f"{key}.json", "--json"],
                    {f"{key}.json": {"matrices": SUBGROUPS[key]}}))
    out.append(("equiv_sanov_full",
                ["subgroup", "equiv", "sanov.json", "full.json", "--json"],
                {f"{key}.json": {"matrices": SUBGROUPS[key]}
                 for key in ("sanov", "full")}))
    out.append(("cocycle_heisenberg_9x9",
                ["cocycle", "check", "heisenberg9.json", "--json"],
                {"heisenberg9.json": {"complex": {"grid": [9, 9]},
                                      "gluing": "heisenberg"}}))
    out.append(("cocycle_explicit_4x3",
                ["cocycle", "check", "explicit4x3.json", "--json"],
                {"explicit4x3.json": _explicit_heisenberg(4, 3)}))
    return out


def test_json_reports_match_the_goldens(trichotomy_corpus, tmp_path,
                                        monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("COARSEBUNDLE_VERTEX_CAP", raising=False)
    cases = _cases(trichotomy_corpus)
    moved = []
    for case, argv, docs in cases:
        for name, doc in docs.items():
            (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
        main(argv)
        out = capsys.readouterr().out
        golden = GOLDEN / f"{case}.json"
        if REGEN:
            golden.write_text(out, encoding="utf-8")
        elif golden.read_text(encoding="utf-8") != out:
            moved.append(case)
    assert not moved, f"reports differ from tests/golden: {moved}"
    assert len({case for case, _, _ in cases}) == len(cases) == 92


def test_goldens_are_strict_json():
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    goldens = sorted(GOLDEN.glob("*.json"))
    assert goldens
    for path in goldens:
        json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)
