"""Spans around calls into coarsebundle, installed from outside the package.

``Tracer.install`` replaces each traced function by a wrapper on every name
the package binds it to (``trichotomy.build_ball``, ``cli.d1``, the package
root, ...), so calls are caught where the calling module looks them up.
A span records (name, start, end, parent).  Spans stay in memory until
``dump``; a span's self time is its duration minus its child spans'.
Wrappers do nothing but call through while the tracer is inactive, which
is how output checks and input generation stay out of the trace.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# "<module>.<function>" of every traced function; also its span name.
TRACED = (
    "graph_of_groups.modular_holonomy", "graph_of_groups.detect_ascending_hnn",
    "graph_of_groups.from_json_dict", "bass_serre.projected_ball_sizes",
    "bass_serre.build_ball", "bass_serre.halfspace",
    "bass_serre.carries_holonomy", "trichotomy.classify",
    "trichotomy.qi_compare", "core_algebra.gl_distance",
    "subgroup_analysis.free_injectivity", "subgroup_analysis.elementary_type",
    "subgroup_analysis.invariant_positive_form",
    "subgroup_analysis.hausdorff_class",
    "subgroup_analysis.hausdorff_equivalent",
    "subgroup_analysis.classify_psl2z_subgroup",
    "subgroup_analysis.hausdorff_class_gl1", "subgroup_analysis.orbit_reduce",
    "linf_cohomology.is_trivial", "linf_cohomology.solve_coboundary",
    "linf_cohomology.linear_bound_scan", "linf_cohomology.primitive",
    "linf_cohomology.coboundary_of_potential", "linf_cohomology.d1",
    "bundle_lab.build_total_space", "bundle_lab.ball_growth",
    "bundle_lab.growth_class", "cli.main",
)


# Work counts read off arguments and return values, by span name.


def _build_ball(counts, bound, result):
    counts["bass_serre.ball_vertices"] += result.size
    counts["bass_serre.ball_labels"] += len(result.labels)


def _classify(counts, bound, result):
    ev = result.evidence
    counts["trichotomy.rule." + ev.rule] += 1
    requested = bound.arguments["depth"]
    if ev.depth is not None and ev.depth < requested:
        counts["trichotomy.depth_shortfall"] += requested - ev.depth
        counts["trichotomy.capped_decisions"] += 1


def _psl(counts, bound, result):
    # The result cannot tell a spent budget from an enumeration that stopped
    # incomplete: both are InfiniteIndexOrUnknown with index None.
    if result.index is None:
        counts["subgroup_analysis.psl_budget_exhausted"] += 1


def _orbit(counts, bound, result):
    counts["subgroup_analysis.orbit_steps"] += result.step_count


def _is_trivial(counts, bound, result):
    if result.kind == "Trivial":
        counts["linf_cohomology.certificates"] += 1


def _edges(counts, bound, result):
    counts["linf_cohomology.edges_processed"] += len(
        bound.arguments["complex_"].edges)


def _from_map(counts, bound, result):
    counts["linf_cohomology.edges_processed"] += len(
        bound.arguments["mapping"])


def _window(counts, bound, result):
    counts["bundle_lab.window_vertices"] += result.size
    counts["bundle_lab.clipped_vertices"] += len(result.clipped)


def _growth(counts, bound, result):
    counts["bundle_lab.bfs_vertices"] += result.counts[-1]
    counts["bundle_lab.valid_radius_sum"] += len(result.valid_radii())


OBSERVERS = {
    "bass_serre.build_ball": _build_ball,
    "trichotomy.classify": _classify,
    "subgroup_analysis.classify_psl2z_subgroup": _psl,
    "subgroup_analysis.orbit_reduce": _orbit,
    "linf_cohomology.is_trivial": _is_trivial,
    "linf_cohomology.primitive": _edges,
    "linf_cohomology.d1": _edges,
    "linf_cohomology.coboundary_of_potential": _edges,
    "linf_cohomology.from_map": _from_map,
    "bundle_lab.build_total_space": _window,
    "bundle_lab.ball_growth": _growth,
}


class Tracer:
    """In-memory span recorder plus work counters."""

    def __init__(self):
        self.active = False
        self.spans: list = []     # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.raised: Counter = Counter()  # (span name, exception type)
        self._stack: list = []
        self._undo: list = []

    # -- recording -----------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span (used for decision roots)."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        except BaseException as ex:
            self.raised[(name, type(ex).__name__)] += 1
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        tracer = self
        observe = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            result = tracer.call(name, fn, *args, **kwargs)
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(tracer.counts, bound, result)
            return result

        return traced

    def _counting(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.active:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation --------------------------------------------------------

    def install(self, package: str = "coarsebundle") -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == package or key.startswith(package + ".")]
        for name in TRACED:
            mod_name, attr = name.split(".")
            original = getattr(sys.modules[f"{package}.{mod_name}"], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapper)
        lc = sys.modules[f"{package}.linf_cohomology"]
        from_map = lc.Cochain1.__dict__["from_map"].__func__
        self._replace(lc.Cochain1, "from_map", staticmethod(
            self._wrap("linf_cohomology.from_map", from_map)))
        ca = sys.modules[f"{package}.core_algebra"]
        for cls in (ca.RatMatrix, ca.IntMatrix):
            self._replace(cls, "__matmul__", self._counting(
                "core_algebra.matmul.calls", cls.__dict__["__matmul__"]))

    def _replace(self, owner, key, value) -> None:
        self._undo.append((owner, key, owner.__dict__[key]))
        if isinstance(owner, type):
            setattr(owner, key, value)
        else:
            vars(owner)[key] = value

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict:
        """name -> (self seconds, calls)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[name][0] += (end - start) - child[i]
            out[name][1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
