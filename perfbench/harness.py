"""Closed-loop runner: set-up, timed pass, optional traced pass, metrics.

One process, one caller, no threads.  A pass runs whole rounds of
decisions (plus the workload's once-per-run decisions first) until the
decisions' busy time reaches ``--seconds`` and at least MIN_DECISIONS have
run.  Each decision is timed alone; its output check runs after the timer
stops.  Every round of a workload has the same mix of decision kinds, so
``decisions_per_s`` is the median over rounds of decisions over summed
decision time, which a burst of load on a shared host moves less than the
whole-pass ratio does.

The timings are scaled to a nominal host speed: a fixed reference loop is
timed between decisions (``HostSpeed``), and each decision's time is
multiplied by REF_NOMINAL_MS over the reference time around it; each
set-up is scaled by the start time of a bare interpreter.  On a shared
host whose speed swings by 2x for a minute at a time, those ratios stay
within a few percent; the unscaled times are printed and saved too.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from perfbench import (bundle_windows, cochain_certificates, holonomy_classes,
                       tree_trichotomy)
from perfbench.decisions import DECIDED, CheckFailed, Context
from perfbench.tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

WORKLOADS = {
    "tree_trichotomy": tree_trichotomy,
    "holonomy_classes": holonomy_classes,
    "cochain_certificates": cochain_certificates,
    "bundle_windows": bundle_windows,
}
MODULES = ("bass_serre", "bundle_lab", "cli", "core_algebra", "errors",
           "graph_of_groups", "linf_cohomology", "subgroup_analysis",
           "trichotomy")
MIN_DECISIONS = 100   # p90 then has at least ten samples beyond it
SETUP_REPEATS = 5
REF_ITERATIONS = 500    # one run of the reference loop, ~4 ms
REF_NOMINAL_MS = 4.0    # reference time that scaled timings assume
REF_INTERVAL_S = 0.25   # wall time between reference samples in a pass
REF_WINDOW_S = 0.5      # samples within this of a decision scale it
BARE_NOMINAL_S = 0.05   # bare interpreter start that scaled set-up assumes

IMPORT_PROBE = ("import time; t = time.perf_counter(); import coarsebundle; "
                "print(time.perf_counter() - t)")


# ---------------------------------------------------------------------------
# library and set-up


def load_library() -> types.SimpleNamespace:
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    cb = importlib.import_module("coarsebundle")
    here = os.path.realpath(os.path.dirname(cb.__file__))
    if not here.startswith(os.path.realpath(SRC) + os.sep):
        raise RuntimeError(f"coarsebundle imported from {here}, not {SRC}")
    return types.SimpleNamespace(
        cb=cb, **{m: importlib.import_module(f"coarsebundle.{m}")
                  for m in MODULES})


def load_acceptance():
    """tests/test_acceptance.py, for its standalone coset enumerator."""
    path = os.path.join(ROOT, "tests", "test_acceptance.py")
    spec = importlib.util.spec_from_file_location("perfbench_acceptance", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _child(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60,
                          check=True)


def child_import_seconds() -> float:
    """Import time of coarsebundle in a fresh interpreter, as a user pays it
    (NumPy included), measured by the child itself.  The first child may
    write bytecode caches; the median over repeats reads them."""
    return float(_child(IMPORT_PROBE).stdout.strip().splitlines()[-1])


def bare_start_seconds() -> float:
    """Wall time to start and stop an interpreter that runs nothing: the
    reference that set-up times are scaled by."""
    t0 = time.perf_counter()
    _child("pass")
    return time.perf_counter() - t0


def timed_setup(workload, ctx: Context, seed: int, repeats: int
                ) -> tuple[float, float, list, list]:
    """Median over repeats of (fresh-interpreter import + generation of the
    once-per-run decisions and round 0, documents included), scaled to the
    nominal host speed and unscaled.

    An import mostly unmarshals and maps files, and follows the host's
    speed the way a bare interpreter start does, not the way the reference
    loop does; so each repeat is scaled by BARE_NOMINAL_S over the start
    time of a bare interpreter just before it."""
    scaled, raw = [], []
    once = round0 = None
    for _ in range(repeats):
        bare = bare_start_seconds()
        imp = child_import_seconds()
        t0 = time.perf_counter()
        once = workload.once(ctx, seed)
        round0 = workload.make_round(ctx, seed, 0)
        raw.append(imp + time.perf_counter() - t0)
        scaled.append(raw[-1] * BARE_NOMINAL_S / bare)
    return statistics.median(scaled), statistics.median(raw), once, round0


# ---------------------------------------------------------------------------
# host speed


def reference_sample_ms() -> float:
    """Median of three runs of a fixed pure-Python loop: Fraction sums,
    as the certificates and labels do, and tuple-keyed dict inserts and a
    sort, as the enumerators and ball indexes do.

    The collector is off while it runs, so the heap a decision leaves
    behind does not change its time; only the host's speed does.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            total, table = Fraction(0), {}
            for i in range(1, REF_ITERATIONS + 1):
                total += Fraction(1, i % 97 + 1)
                for j in range(3):
                    table[(i * 7919 + j) % 10007, i & 15] = i
            sorted(table.items())
            runs.append(1000 * (time.perf_counter() - t0))
    finally:
        if enabled:
            gc.enable()
    return statistics.median(runs)


class HostSpeed:
    """Reference samples taken between the decisions of a pass.

    A decision's scale factor is REF_NOMINAL_MS over the median of the
    samples taken within REF_WINDOW_S of its start, so a decision timed
    while the host ran at half speed counts what it would take at nominal
    speed.  The window is short because the host's speed also changes
    within a second; the median keeps one odd sample from setting the
    factor of the decisions around it.
    """

    def __init__(self):
        self.t0 = time.perf_counter()
        self.samples = []   # (seconds into the pass, ms)
        self.starts = []    # per decision: seconds into the pass
        self._sample()

    def _sample(self) -> None:
        ms = reference_sample_ms()
        self.samples.append((time.perf_counter() - self.t0, ms))

    def before_decision(self) -> None:
        since = time.perf_counter() - self.t0 - self.samples[-1][0]
        if since >= REF_INTERVAL_S:
            self._sample()
        self.starts.append(time.perf_counter() - self.t0)

    def factors(self) -> list:
        """Per-decision scale factors; takes the closing sample."""
        self._sample()
        times = [t for t, _ in self.samples]
        out = []
        for start in self.starts:
            lo = bisect.bisect_left(times, start - REF_WINDOW_S)
            hi = bisect.bisect_right(times, start + REF_WINDOW_S)
            # the samples just before and after the start are always in
            hi = max(hi, bisect.bisect_right(times, start) + 1)
            lo = min(lo, hi - 2)
            ref = statistics.median(ms for _, ms in self.samples[lo:hi])
            out.append(REF_NOMINAL_MS / ref)
        return out


# ---------------------------------------------------------------------------
# passes


@dataclass
class PassStats:
    latencies: list = field(default_factory=list)   # seconds, unscaled
    scaled: list = field(default_factory=list)      # at nominal host speed
    rounds_at: list = field(default_factory=list)   # (start, end) per round
    kinds: list = field(default_factory=list)       # per decision
    attempted: int = 0
    failed: int = 0
    probe_failed: int = 0
    undecided: int = 0
    rounds: int = 0
    exceptions: Counter = field(default_factory=Counter)
    failures: list = field(default_factory=list)   # first few messages
    counts: Counter = field(default_factory=Counter)
    reference_ms: list = field(default_factory=list)  # HostSpeed samples
    starts: list = field(default_factory=list)  # decision starts, HostSpeed

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def by_kind(self, values: list) -> dict:
        out = {}
        for kind, v in zip(self.kinds, values):
            out.setdefault(kind, []).append(v)
        return out

    def round_rates(self, values: list) -> list:
        """Decisions per busy second, per round."""
        return [(end - start) / sum(values[start:end])
                for start, end in self.rounds_at]

    def record_failure(self, decision, message: str) -> None:
        if decision.probe:
            self.probe_failed += 1
        else:
            self.failed += 1
        tag = "known defect" if decision.probe else "FAILED"
        line = f"{tag} {decision.kind}: {message}"
        # keep every distinct message up to a few, real failures first
        if line not in self.failures and len(self.failures) < 12:
            self.failures.append(line)
            self.failures.sort(key=lambda x: not x.startswith("FAILED"))


def execute(decision, stats: PassStats, tracer: Tracer | None,
            host: HostSpeed | None = None) -> None:
    stats.attempted += 1
    if host is not None:
        host.before_decision()
    try:
        if tracer is None:
            t0 = time.perf_counter()
            try:
                result = decision.call()
            finally:
                dt = time.perf_counter() - t0
        else:
            tracer.active = True
            t0 = time.perf_counter()
            try:
                result = tracer.call("decision." + decision.kind,
                                     decision.call)
            finally:
                dt = time.perf_counter() - t0
                tracer.active = False
    except Exception as ex:  # a raising decision is a counted failure
        stats.exceptions[type(ex).__name__] += 1
        stats.record_failure(decision, f"{type(ex).__name__}: {ex}")
        _account(stats, decision.kind, dt)
        return
    _account(stats, decision.kind, dt)
    try:
        checked = decision.check(result)
    except CheckFailed as ex:
        stats.exceptions["CheckFailed"] += 1
        stats.record_failure(decision, str(ex))
        stats.counts.update(ex.counts)
        return
    except Exception as ex:  # output too malformed for its check to read
        stats.exceptions["check:" + type(ex).__name__] += 1
        stats.record_failure(decision, f"check raised {type(ex).__name__}: "
                                       f"{ex}")
        return
    if checked.status != DECIDED:
        stats.undecided += 1
    stats.counts.update(checked.counts)


def _account(stats: PassStats, kind: str, dt: float) -> None:
    stats.latencies.append(dt)
    stats.kinds.append(kind)


def run_pass(workload, ctx: Context, seed: int, seconds: float,
             once: list, round0: list, tracer: Tracer | None = None,
             rounds: int | None = None) -> PassStats:
    """Whole rounds until the unscaled busy time reaches ``seconds``, or
    exactly ``rounds``.  Untraced passes sample the host's speed and fill
    ``stats.scaled``; traced passes leave their times unscaled."""
    stats = PassStats()
    host = HostSpeed() if tracer is None else None
    for d in once:
        execute(d, stats, tracer, host)
    while True:
        decisions = (round0 if stats.rounds == 0
                     else workload.make_round(ctx, seed, stats.rounds))
        start = len(stats.latencies)
        for d in decisions:
            execute(d, stats, tracer, host)
        del decisions
        stats.rounds_at.append((start, len(stats.latencies)))
        stats.rounds += 1
        if rounds is not None:
            if stats.rounds >= rounds:
                break
        elif stats.busy >= seconds and stats.attempted >= MIN_DECISIONS:
            break
    if host is None:
        stats.scaled = list(stats.latencies)
    else:
        stats.scaled = [dt * f for dt, f in zip(stats.latencies,
                                                host.factors())]
        stats.reference_ms = host.samples
        stats.starts = host.starts
    return stats


def warm_up(round0: list) -> None:
    """One untimed, unchecked decision of each kind, so lazy imports and
    first-touch allocations are not charged to the pass."""
    seen = set()
    for d in round0:
        if d.kind not in seen:
            seen.add(d.kind)
            try:
                d.call()
            except Exception:
                pass  # its failure is counted when the pass runs it


# ---------------------------------------------------------------------------
# metrics


def percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timings(stats: PassStats, values: list) -> dict:
    """The three decision timings over one list of per-decision times."""
    return {
        "decisions_per_s": (statistics.median(stats.round_rates(values)),
                            "1/s"),
        "decision_p50_ms": (1000 * statistics.median(values), "ms"),
        "decision_p90_ms": (1000 * percentile(values, 90), "ms"),
    }


def end_to_end(stats: PassStats, setup_s: float) -> dict:
    """Timings at the nominal host speed, memory and outcome shares."""
    n = stats.attempted
    return {
        "setup_s": (setup_s, "s"),
        **timings(stats, stats.scaled),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "passed_frac": ((n - stats.failed - stats.probe_failed) / n, "ratio"),
        "decided_frac": ((n - stats.undecided) / n, "ratio"),
    }


# per-layer metrics read off the spans: "<span name>.s" is self time,
# "<span name>.calls" the number of spans
SPAN_METRICS = (
    "graph_of_groups.modular_holonomy.s",
    "graph_of_groups.detect_ascending_hnn.s",
    "graph_of_groups.from_json_dict.s",
    "bass_serre.projected_ball_sizes.s", "bass_serre.build_ball.s",
    "bass_serre.build_ball.calls", "bass_serre.halfspace.s",
    "bass_serre.carries_holonomy.s",
    "trichotomy.classify.s", "trichotomy.classify.calls",
    "trichotomy.qi_compare.s",
    "core_algebra.gl_distance.s",
    "subgroup_analysis.free_injectivity.s",
    "subgroup_analysis.free_injectivity.calls",
    "subgroup_analysis.elementary_type.s",
    "subgroup_analysis.invariant_positive_form.s",
    "subgroup_analysis.hausdorff_class.s",
    "subgroup_analysis.hausdorff_equivalent.s",
    "subgroup_analysis.classify_psl2z_subgroup.s",
    "subgroup_analysis.orbit_reduce.s",
    "linf_cohomology.solve_coboundary.s",
    "linf_cohomology.linear_bound_scan.s", "linf_cohomology.primitive.s",
    "linf_cohomology.primitive.calls",
    "linf_cohomology.coboundary_of_potential.s", "linf_cohomology.d1.s",
    "linf_cohomology.from_map.s",
    "bundle_lab.build_total_space.s", "bundle_lab.ball_growth.s",
    "bundle_lab.growth_class.s",
    "cli.main.s", "cli.main.calls",
)
COUNT_METRICS = (
    "bass_serre.ball_vertices", "bass_serre.ball_labels",
    "trichotomy.rule.finite-image", "trichotomy.rule.ascending-hnn",
    "trichotomy.rule.free-discrete", "trichotomy.rule.ball-coverage",
    "trichotomy.depth_shortfall", "trichotomy.capped_decisions",
    "core_algebra.matmul.calls", "subgroup_analysis.psl_budget_exhausted",
    "subgroup_analysis.orbit_steps", "linf_cohomology.edges_processed",
    "bundle_lab.window_vertices", "bundle_lab.bfs_vertices",
    "bundle_lab.valid_radius_sum", "bundle_lab.clip_oracle_mismatches",
    "cli.report_bytes",
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, stats: PassStats, untraced_s: float) -> dict:
    selfs = tracer.self_times()
    counts = tracer.counts + stats.counts
    out = {}
    for metric in SPAN_METRICS:
        span, field = metric.rsplit(".", 1)
        seconds, calls = selfs.get(span, (0.0, 0))
        out[metric] = (seconds, "s") if field == "s" else (calls, "count")
    for metric in COUNT_METRICS:
        out[metric] = (counts[metric], "count")
    prim_calls = selfs.get("linf_cohomology.primitive", (0.0, 0))[1]
    build_s = selfs.get("bundle_lab.build_total_space", (0.0, 0))[0]
    out.update({
        "bass_serre.vertices_per_label": (
            _ratio(counts["bass_serre.ball_vertices"],
                   counts["bass_serre.ball_labels"]), "ratio"),
        "linf_cohomology.positive_cycles": (
            tracer.raised[("linf_cohomology.primitive", "PositiveCycle")],
            "count"),
        "linf_cohomology.primitive_attempts_per_certificate": (
            _ratio(prim_calls, counts["linf_cohomology.certificates"]),
            "ratio"),
        "bundle_lab.window_vertices_per_s": (
            _ratio(counts["bundle_lab.window_vertices"], build_s), "1/s"),
        "bundle_lab.clipped_frac": (
            _ratio(counts["bundle_lab.clipped_vertices"],
                   counts["bundle_lab.window_vertices"]), "ratio"),
        "trace.untraced_pass_s": (untraced_s, "s"),
        "trace.traced_pass_s": (stats.busy, "s"),
        "trace.overhead_s": (stats.busy - untraced_s, "s"),
    })
    return out


# ---------------------------------------------------------------------------
# host facts and output


def host_facts(lib) -> dict:
    src_lines = 0
    pkg = os.path.join(SRC, "coarsebundle")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                src_lines += sum(1 for _ in fh)
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            loadavg = fh.read().split()[:3]
    except OSError:
        loadavg = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        # read from package metadata: importing SciPy would add to the RSS
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "loadavg_at_start": loadavg,
        "src_lines": src_lines,
        "all_size": len(lib.cb.__all__),
    }


def kind_table(stats: PassStats) -> dict:
    """Per decision kind: count, scaled median and mean, unscaled median."""
    raw = stats.by_kind(stats.latencies)
    return {kind: {"n": len(v), "median_ms": 1000 * statistics.median(v),
                   "mean_ms": 1000 * sum(v) / len(v),
                   "unscaled_median_ms": 1000 * statistics.median(raw[kind])}
            for kind, v in sorted(stats.by_kind(stats.scaled).items())}


def summary_lines(name, seed, trace, stats, metrics, unscaled, facts, extra
                  ) -> list:
    n = stats.attempted
    beyond = sum(1 for x in stats.scaled
                 if 1000 * x > metrics["decision_p90_ms"][0])
    lines = [f"perfbench {name} seed={seed} trace={trace}: "
             f"{n} decisions in {stats.rounds} rounds, "
             f"{stats.busy:.3f} s busy; timings at the nominal host speed "
             f"(reference loop {REF_NOMINAL_MS} ms, bare interpreter start "
             f"{BARE_NOMINAL_S} s), unscaled beside them"]
    for key, (value, unit) in metrics.items():
        note = ""
        if key in unscaled:
            note = f"  (unscaled {unscaled[key][0]:.6g})"
        if key == "decision_p90_ms":
            note += f"  (n={n}, {beyond} beyond p90)"
        lines.append(f"  {key:48s} {value:14.6g} {unit}{note}")
    ref = [ms for _, ms in stats.reference_ms]
    lines.append(f"  reference loop: {len(ref)} samples, min "
                 f"{min(ref):.3f} median {statistics.median(ref):.3f} max "
                 f"{max(ref):.3f} ms")
    lines.append(f"  failed={stats.failed} known_defect_failures="
                 f"{stats.probe_failed} undecided={stats.undecided}")
    if stats.exceptions:
        lines.append(f"  exceptions by type: {dict(stats.exceptions)}")
    lines.extend("  " + msg for msg in stats.failures)
    for kind, row in kind_table(stats).items():
        lines.append(f"  kind {kind:28s} n={row['n']:5d} "
                     f"median={row['median_ms']:9.3f} ms "
                     f"mean={row['mean_ms']:9.3f} ms "
                     f"unscaled median={row['unscaled_median_ms']:9.3f} ms")
    lines.append(f"  host {json.dumps(facts, sort_keys=True)}")
    lines.extend(extra)
    return lines


def parse_args(argv):
    p = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one coarsebundle benchmark workload.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(name: str, seed: int, seconds: float, trace: bool,
        rounds: int | None = None, with_once: bool = True,
        setup_repeats: int = SETUP_REPEATS, workload=None) -> dict:
    """Run one workload; return the result record (metrics and details).

    ``rounds``, ``with_once`` and ``workload`` exist for the benchmark's own
    tests: fixed-size passes, no once-per-run decisions, a patched workload.
    """
    workload = workload or WORKLOADS[name]
    os.makedirs(OUT, exist_ok=True)
    lib = load_library()
    facts = host_facts(lib)
    docs_dir = tempfile.mkdtemp(prefix=f"docs-{name}-", dir=OUT)
    try:
        ctx = Context(lib=lib, docs_dir=docs_dir,
                      acceptance=load_acceptance())
        setup_s, raw_setup_s, once, round0 = timed_setup(
            workload, ctx, seed, setup_repeats)
        once = once if with_once else []
        warm_up(round0)
        gc.collect()
        stats = run_pass(workload, ctx, seed, seconds, once, round0,
                         rounds=rounds)
        metrics = end_to_end(stats, setup_s)
        unscaled = {"setup_s": (raw_setup_s, "s"),
                    **timings(stats, stats.latencies)}
        extra = []
        record = {"workload": name, "seed": seed, "seconds": seconds,
                  "trace": int(trace), "host": facts, "rounds": stats.rounds,
                  "attempted": stats.attempted, "failed": stats.failed,
                  "known_defect_failures": stats.probe_failed,
                  "undecided": stats.undecided,
                  "exceptions": dict(stats.exceptions),
                  "failures": stats.failures, "end_to_end": metrics,
                  "unscaled": unscaled,
                  "by_kind": kind_table(stats),
                  "latencies_s": stats.latencies,
                  "scaled_latencies_s": stats.scaled,
                  "reference_ms": stats.reference_ms,
                  "decision_starts_s": stats.starts}
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                gc.collect()
                traced = run_pass(
                    workload, ctx, seed, seconds,
                    workload.once(ctx, seed) if with_once else [],
                    workload.make_round(ctx, seed, 0), tracer=tracer,
                    rounds=stats.rounds)
            finally:
                tracer.uninstall()
            layers = per_layer(tracer, traced, stats.busy)
            record["per_layer"] = layers
            record["traced_failed"] = traced.failed
            record["traced_raised"] = {f"{span}: {exc}": n for (span, exc), n
                                       in sorted(tracer.raised.items())}
            spans_path = os.path.join(OUT, f"spans-{name}-s{seed}.jsonl")
            tracer.dump(spans_path)
            extra.append("  spans written to "
                         + os.path.relpath(spans_path, ROOT))
            for key, (value, unit) in layers.items():
                extra.append(f"  {key:48s} {value:14.6g} {unit}")
        record["summary"] = summary_lines(name, seed, int(trace), stats,
                                          metrics, unscaled, facts, extra)
        return record
    finally:
        shutil.rmtree(docs_dir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "coarsebundle", "__init__.py")):
        print(f"perfbench: no coarsebundle sources under {SRC}; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in record["summary"]:
        print(line)
    chosen = record["per_layer"] if args.trace else record["end_to_end"]
    result = {
        "correct": (record["failed"] == 0
                    and record.get("traced_failed", 0) == 0),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in chosen.items()},
    }
    path = os.path.join(
        OUT, f"result-{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({k: v for k, v in record.items() if k != "summary"}, fh,
                  indent=1, sort_keys=True, default=str)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0
