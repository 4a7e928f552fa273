"""Command-line entry point wiring all modules together.

Subcommands mirror the library: classify and qi-compare for graphs of
groups, cocycle for bounded-cohomology checks, bundle for windowed total
spaces and growth, subgroup for coarse classes in GL2(Q) and orbit
reduction.  Output is a deterministic JSON run report (--json) or a short
text line; growth emits CSV.  Exit codes: 0 decided, 2 undetermined,
1 error.

Rationals serialize as strings like "3/2"; matrices as row-major arrays.
Vertex caps are the library's own: bass_serre.resolve_vertex_cap reads
COARSEBUNDLE_VERTEX_CAP for bundle windows and tree balls alike, so the
variable bounds every build a subcommand makes.
"""

from __future__ import annotations

import argparse
import dataclasses
import decimal
import json
import sys
from fractions import Fraction
from typing import Any, Optional

import numpy as np

from . import graph_of_groups, linf_cohomology, trichotomy
from .bundle_lab import (Affine, FiniteBase, GluingSpec, Linear, Translation,
                         ball_growth, build_total_space, growth_class,
                         phi_example_spec)
from .core_algebra import IntMatrix, RatMatrix
from .errors import CoarseBundleError, PositiveCycle, TooFewRadii
from .linf_cohomology import (BaseComplex, Cochain1, Cochain2, d1,
                              grid_complex, heisenberg_cochain)
from .subgroup_analysis import (COSET_BUDGET, Gl2Subgroup, free_injectivity,
                                hausdorff_class, hausdorff_equivalent,
                                orbit_reduce)

EXIT_DECIDED = 0
EXIT_ERROR = 1
EXIT_UNDETERMINED = 2


# ---------------------------------------------------------------------------
# serialization


def _json_key(k) -> str:
    if isinstance(k, str):
        return k
    if isinstance(k, (int, np.integer)):
        return str(int(k))
    return repr(k)


def _jsonable(obj) -> Any:
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, RatMatrix):  # IntMatrix rows stay ints
        return [[_jsonable(x) for x in row] for row in obj.rows]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
                if not f.name.startswith("_")}
    if isinstance(obj, dict):
        return {_json_key(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return [_jsonable(x) for x in sorted(obj, key=repr)]
    if callable(obj):
        return getattr(obj, "__name__", "callable")
    return repr(obj)


def _emit(args, argv: list[str], parameters: dict, verdict, evidence,
          text: str, code: int, pre_text: str = "") -> int:
    """Print either the JSON run report or the text summary; return code."""
    if getattr(args, "json", False):
        report = {
            "command": list(argv),
            "seed": 0,
            "parameters": _jsonable(parameters),
            "verdict": _jsonable(verdict),
            "evidence": _jsonable(evidence),
            "timing": None,
        }
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        if pre_text:
            sys.stdout.write(pre_text)
        print(text)
    return code


# ---------------------------------------------------------------------------
# input parsing


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _fraction(x) -> Fraction:
    if isinstance(x, bool) or isinstance(x, float):
        raise ValueError(f"exact rational expected, got {x!r}; "
                         "use an integer or a 'p/q' string")
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise ValueError(f"cannot read {x!r} as a rational")


def _number(x):
    """An int stays an int; a float or a 'p/q' string is read as the exact
    rational it is, and NaN or Infinity raise."""
    if isinstance(x, bool):
        raise ValueError("boolean is not a number")
    if isinstance(x, int):
        return x
    if isinstance(x, (float, str)):
        return Fraction(x)
    raise ValueError(f"cannot read {x!r} as a number")


def _rat_matrix(rows) -> RatMatrix:
    return RatMatrix([[_fraction(x) for x in row] for row in rows])


def _load_group(doc: dict) -> Gl2Subgroup:
    if "matrices" not in doc:
        raise ValueError("subgroup document needs a 'matrices' array")
    return Gl2Subgroup([_rat_matrix(rows) for rows in doc["matrices"]])


def _vertex(v):
    if isinstance(v, list):
        return tuple(_vertex(x) for x in v)
    return v


def _parse_window(text: str):
    if ":" in text:
        lo, hi = text.split(":", 1)
        return (int(lo), int(hi))
    return int(text)


def _parse_base_vertex(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    if "," in text:
        return tuple(int(x) for x in text.split(","))
    return text


def _fmt_vec(vec) -> str:
    return "(" + ", ".join(str(x) for x in vec) + ")"


def _fmt_g6(x: Fraction) -> str:
    """|x| as ``:.6g`` prints a float, but rounded from the exact value, so
    no float range bounds it (1e-400 stays 1e-400)."""
    d = decimal.Context(prec=6).divide(abs(x.numerator), x.denominator)
    exp = d.adjusted()
    if -4 <= exp < 6:
        return f"{d.normalize():f}"
    return f"{d.scaleb(-exp).normalize():f}e{exp:+03d}"


def _load_complex(doc) -> BaseComplex:
    if "grid" in doc:
        w, h = doc["grid"]
        return grid_complex(int(w), int(h))
    vertices = tuple(_vertex(v) for v in doc["vertices"])
    edges = tuple((_vertex(u), _vertex(v)) for u, v in doc["edges"])
    faces = tuple(tuple((_vertex(u), _vertex(v)) for u, v in loop)
                  for loop in doc.get("faces", []))
    basepoint = _vertex(doc.get("basepoint", vertices[0]))
    return BaseComplex(vertices=vertices, edges=edges, faces=faces,
                       basepoint=basepoint)


def _load_cochain1(doc, complex_: BaseComplex) -> Cochain1:
    if doc == "heisenberg":
        return heisenberg_cochain(complex_)
    dim = int(doc.get("dim", 1))
    mapping = {}
    for entry in doc["values"]:
        u, v = entry["edge"]
        mapping[(_vertex(u), _vertex(v))] = tuple(
            _number(x) for x in entry["value"])
    return Cochain1.from_map(complex_, mapping, dim=dim)


def _load_cochain2(doc) -> Cochain2:
    dim = int(doc.get("dim", 1))
    c = Cochain2(dim=dim)
    for entry in doc["values"]:
        c.set(int(entry["face"]), tuple(_number(x) for x in entry["value"]))
    return c


def _load_map(doc):
    kind = doc["type"]
    if kind == "translation":
        return Translation(tuple(int(x) for x in doc["vector"]))
    if kind == "linear":
        return Linear(IntMatrix(doc["matrix"]))
    if kind == "affine":
        return Affine(IntMatrix(doc["matrix"]), tuple(map(int, doc["vector"])))
    if kind == "phi_example":
        return phi_example_spec().edge_map
    raise ValueError(f"unknown gluing map type {kind!r}")


def _load_gluing_spec(doc: dict) -> GluingSpec:
    base = doc["base"]
    if isinstance(base, dict):
        base = FiniteBase(
            vertices=tuple(_vertex(v) for v in base["vertices"]),
            edges=tuple((_vertex(u), _vertex(v)) for u, v in base["edges"]))
    edge_map = _load_map(doc["map"]) if "map" in doc else None
    edge_maps = None
    if "edge_maps" in doc:
        edge_maps = {}
        for entry in doc["edge_maps"]:
            u, v = entry["edge"]
            edge_maps[(_vertex(u), _vertex(v))] = _load_map(entry["map"])
    return GluingSpec(base=base, fiber_dim=int(doc["fiber_dim"]),
                      edge_map=edge_map, edge_maps=edge_maps)


# ---------------------------------------------------------------------------
# commands


def cmd_classify(args, argv: list[str]) -> int:
    g = graph_of_groups.from_json_dict(_load_json(args.gog_file))
    verdict = trichotomy.classify(g, depth=args.depth)
    if verdict.hnn is not None:
        rows = [list(r) for r in verdict.hnn.endomorphism.rows]
        text = f"{verdict.kind}, endomorphism {rows}"
    else:
        text = verdict.kind
    code = EXIT_DECIDED if verdict.decided else EXIT_UNDETERMINED
    return _emit(args, argv, {"depth": args.depth},
                 {"kind": verdict.kind, "rank": verdict.rank,
                  "endomorphism": (verdict.hnn.endomorphism
                                   if verdict.hnn else None)},
                 verdict.evidence, text, code)


def cmd_qi_compare(args, argv: list[str]) -> int:
    g1 = graph_of_groups.from_json_dict(_load_json(args.gog_file_1))
    g2 = graph_of_groups.from_json_dict(_load_json(args.gog_file_2))
    cmp_ = trichotomy.qi_compare(g1, g2, depth=args.depth)
    text = f"{cmp_.verdict}: {cmp_.reason}"
    code = (EXIT_DECIDED if cmp_.verdict in ("SameQiClass",
                                             "DifferentQiClass")
            else EXIT_UNDETERMINED)
    return _emit(args, argv, {"depth": args.depth},
                 {"verdict": cmp_.verdict, "reason": cmp_.reason,
                  "invariant": cmp_.invariant,
                  "endomorphisms": cmp_.endomorphisms},
                 {"left": cmp_.left, "right": cmp_.right},
                 text, code)


def _cocycle_inputs(doc: dict):
    complex_ = _load_complex(doc["complex"])
    if "gluing" in doc:
        a = _load_cochain1(doc["gluing"], complex_)
        return complex_, a, d1(complex_, a)
    if "obstruction" in doc:
        return complex_, None, _load_cochain2(doc["obstruction"])
    raise ValueError("cocycle document needs 'gluing' or 'obstruction'")


def cmd_cocycle(args, argv: list[str]) -> int:
    doc = _load_json(args.input_file)
    if args.action == "check":
        complex_, _, c = _cocycle_inputs(doc)
        verdict = linf_cohomology.is_trivial(complex_, c,
                                             length_cap=args.length_cap)
        text = verdict.kind if not verdict.note else (
            f"{verdict.kind}: {verdict.note}")
        code = (EXIT_DECIDED if verdict.kind in ("Trivial", "Nontrivial")
                else EXIT_UNDETERMINED)
        return _emit(args, argv,
                     {"length_cap": args.length_cap},
                     {"kind": verdict.kind, "note": verdict.note,
                      "bound_achieved": verdict.bound_achieved,
                      "bound_budget": verdict.bound_budget},
                     {"scan": verdict.scan, "witnesses": verdict.witnesses,
                      "primitive_f": verdict.primitive_f},
                     text, code)
    if args.action == "primitive":
        complex_ = _load_complex(doc["complex"])
        if "gluing" not in doc:
            raise ValueError("primitive needs a 'gluing' 1-cochain")
        a = _load_cochain1(doc["gluing"], complex_)
        if args.bound is not None:
            bound = Fraction(args.bound)
        else:
            table = linf_cohomology.linear_bound_scan(
                complex_, a, length_cap=args.length_cap)
            bound = table.max_ratio
        try:
            f = linf_cohomology.primitive(complex_, a, bound)
        except PositiveCycle as ex:
            text = (f"PositiveCycle: no bounded primitive at C = {bound}; "
                    f"witness loop of length {len(ex.cycle)}")
            return _emit(args, argv, {"C": bound},
                         {"kind": "PositiveCycle", "C": bound},
                         {"witness": ex.cycle}, text, EXIT_DECIDED)
        worst = linf_cohomology.residual_sup(complex_, a, f)
        budget = 2 * bound
        text = (f"primitive found: sup |a + df| = {worst} "
                f"within budget {budget}")
        return _emit(args, argv, {"C": bound},
                     {"kind": "Primitive", "achieved": worst,
                      "budget": budget},
                     {"f": f}, text, EXIT_DECIDED)
    # compare
    complex_ = _load_complex(doc["complex"])
    c1 = _load_cochain2(doc["first"])
    c2 = _load_cochain2(doc["second"])
    transform = _rat_matrix(doc.get("transform",
                                    [[1 if i == j else 0
                                      for j in range(c1.dim)]
                                     for i in range(c1.dim)]))
    verdict = linf_cohomology.classes_equivalent_via(
        complex_, c1, c2, transform, length_cap=args.length_cap)
    outcome = {"Trivial": "Equivalent", "Nontrivial": "NotEquivalent",
               "Unknown": "Undetermined"}[verdict.kind]
    text = f"{outcome} (difference class is {verdict.kind})"
    code = EXIT_DECIDED if outcome != "Undetermined" else EXIT_UNDETERMINED
    return _emit(args, argv, {"length_cap": args.length_cap},
                 {"kind": outcome, "difference": verdict.kind,
                  "bound_achieved": verdict.bound_achieved},
                 {"scan": verdict.scan, "witnesses": verdict.witnesses},
                 text, code)


def cmd_bundle(args, argv: list[str]) -> int:
    spec = _load_gluing_spec(_load_json(args.spec_file))
    base_window = _parse_window(args.base_window)
    fiber_window = _parse_window(args.fiber_window)
    origin_f = tuple(int(x) for x in args.origin_fiber.split(","))
    origin_b = _parse_base_vertex(args.origin_base)
    ball = build_total_space(spec, base_window, fiber_window,
                             (origin_f, origin_b))
    max_degree = int(ball.degrees.max())
    n_clipped = int(ball.clip.sum())
    summary = {"vertices": ball.size, "clipped": n_clipped,
               "fiber_edges": ball.fiber_edge_count,
               "gluing_edges": ball.gluing_edge_count,
               "max_degree": max_degree}
    params = {"base_window": base_window, "fiber_window": fiber_window,
              "origin": [list(origin_f), origin_b], "rmax": None}

    if args.action == "build":
        text = (f"built {ball.size} vertices ({n_clipped} clipped), "
                f"degree <= {max_degree}")
        return _emit(args, argv, params, summary, {}, text, EXIT_DECIDED)

    params["rmax"] = args.rmax
    series = ball_growth(ball, args.rmax)
    counts, flags = series
    lines = ["r,count,clipped"]
    lines += [f"{r},{counts[r]},{0 if flags[r] else 1}"
              for r in range(args.rmax + 1)]
    csv_text = "\n".join(lines) + "\n"
    try:
        growth = growth_class(counts, flags)
        verdict = {"kind": growth.kind, "parameter": growth.parameter,
                   "r2_poly": growth.r2_poly, "r2_exp": growth.r2_exp}
        text = (f"# growth: {growth.kind} parameter={growth.parameter:.6g} "
                f"r2_poly={growth.r2_poly:.6g} r2_exp={growth.r2_exp:.6g}")
        code = (EXIT_DECIDED if growth.kind in ("Polynomial", "Exponential")
                else EXIT_UNDETERMINED)
    except TooFewRadii as ex:
        verdict = {"kind": "Undetermined", "reason": str(ex)}
        text = f"# growth: Undetermined ({ex})"
        code = EXIT_UNDETERMINED
    evidence = dict(summary)
    evidence["counts"] = list(counts)
    evidence["valid"] = [bool(x) for x in flags]
    return _emit(args, argv, params, verdict, evidence, text, code,
                 pre_text=csv_text)


def cmd_subgroup(args, argv: list[str]) -> int:
    if args.action == "class":
        group = _load_group(_load_json(args.inputs[0]))
        cls = hausdorff_class(group, budget=args.budget)
        sl2 = cls.sl2_part
        head = sl2.kind
        if sl2.index is not None:
            head = f"{sl2.kind}({sl2.index})"
        det = cls.det_part
        tail = det.kind if det.generator is None else (
            f"{det.kind} <{det.generator}>")
        text = f"{head}, det {tail}"
        code = (EXIT_UNDETERMINED if sl2.kind == "Unknown" else EXIT_DECIDED)
        return _emit(args, argv, {"budget": args.budget}, cls,
                     {"generators": [g for g in group.generators]},
                     text, code)
    if args.action == "equiv":
        g1 = _load_group(_load_json(args.inputs[0]))
        g2 = _load_group(_load_json(args.inputs[1]))
        conj = (_rat_matrix(json.loads(args.conjugator))
                if args.conjugator else None)
        verdict = hausdorff_equivalent(g1, g2, conjugator=conj,
                                       budget=args.budget)
        text = f"{verdict.kind}: {verdict.reason}"
        code = (EXIT_DECIDED if verdict.kind in ("Equivalent",
                                                 "NotEquivalent")
                else EXIT_UNDETERMINED)
        return _emit(args, argv, {"budget": args.budget,
                                  "conjugator": conj}, verdict, {},
                     text, code)
    if args.action == "free":
        group = _load_group(_load_json(args.inputs[0]))
        cert = free_injectivity(group.generators)
        text = cert.kind
        if cert.kind == "RelationFound" and cert.word:
            text = f"RelationFound: word of length {len(cert.word)}"
        code = EXIT_UNDETERMINED if cert.kind == "Unknown" else EXIT_DECIDED
        return _emit(args, argv, {}, cert, {}, text, code)
    # reduce
    raw = " ".join(args.inputs).replace(",", " ").split()
    vec = [Fraction(x) for x in raw]
    trace = orbit_reduce(vec)
    # the final vector is (g, 0, ...), so its norm is |g| exactly; the float
    # norms of the JSON evidence underflow below the smallest double
    text = (f"reduce {_fmt_vec(trace.start)} -> {_fmt_vec(trace.final)} in "
            f"{trace.step_count} steps; final norm {_fmt_g6(trace.final[0])}")
    return _emit(args, argv, {"vector": trace.start},
                 {"final": trace.final, "steps": trace.step_count},
                 {"norms": trace.norms,
                  "transform": trace.transform}, text, EXIT_DECIDED)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coarsebundle",
        description="Exact coarse-geometry toolkit: classify graphs of "
                    "Z^n groups, check bounded cocycles, grow bundle "
                    "windows, and compare subgroup classes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="trichotomy verdict for a graph "
                                        "of groups JSON document")
    p.add_argument("gog_file")
    p.add_argument("--depth", type=int, default=trichotomy.DEFAULT_DEPTH)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("qi-compare", help="compare two graphs of groups")
    p.add_argument("gog_file_1")
    p.add_argument("gog_file_2")
    p.add_argument("--depth", type=int, default=trichotomy.DEFAULT_DEPTH)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_qi_compare)

    p = sub.add_parser("cocycle", help="bounded-cohomology checks on a "
                                       "finite 2-complex")
    p.add_argument("action", choices=("check", "primitive", "compare"))
    p.add_argument("input_file")
    p.add_argument("--C", dest="bound", default=None,
                   help="linear bound for primitive, read as an exact "
                        "'p/q' or decimal; default is the scanned ratio "
                        "bound")
    p.add_argument("--length-cap", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cocycle)

    p = sub.add_parser("bundle", help="build a windowed total space or "
                                      "measure its ball growth (CSV)")
    p.add_argument("action", choices=("build", "grow"))
    p.add_argument("spec_file")
    p.add_argument("--base-window", required=True,
                   help="half-width or lo:hi interval")
    p.add_argument("--fiber-window", required=True,
                   help="half-width or lo:hi interval")
    p.add_argument("--origin-fiber", default="0",
                   help="comma-separated fiber coordinates")
    p.add_argument("--origin-base", default="0",
                   help="base vertex (int, x,y pair, or name)")
    p.add_argument("--rmax", type=int, default=25)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bundle)

    p = sub.add_parser("subgroup", help="coarse classes of GL2(Q) "
                                        "subgroups and orbit reduction")
    p.add_argument("action", choices=("class", "equiv", "free", "reduce"))
    p.add_argument("inputs", nargs="+",
                   help="JSON file(s) with a 'matrices' array, or the "
                        "vector entries for reduce")
    p.add_argument("--budget", type=int, default=COSET_BUDGET)
    p.add_argument("--conjugator", default=None,
                   help="JSON 2x2 matrix with rational entries")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_subgroup)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return 0 if ex.code == 0 else EXIT_ERROR
    try:
        return args.func(args, argv)
    except CoarseBundleError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, KeyError, IndexError, OSError, OverflowError,
            json.JSONDecodeError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
