"""The benchmark's own tests: tiny runs of every workload.

Run with ``python -m pytest perfbench`` from the root of the repository.
"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

from perfbench import harness
from perfbench.decisions import CheckFailed

ROOT = harness.ROOT
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TIMES = {m["name"] for m in SPEC["per_layer"]
         if m["unit"] in ("s", "1/s")}


def tiny(name, seed=5, workload=None):
    """One round, both passes, no once-per-run decisions, one set-up."""
    return harness.run(name, seed, 0.0, trace=True, rounds=1,
                       with_once=False, setup_repeats=1, workload=workload)


@pytest.fixture(scope="module")
def records():
    return {name: tiny(name) for name in WORKLOADS}


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_is_emitted(records, name):
    rec = records[name]
    assert set(rec["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(rec["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]
             + SPEC["per_layer"]}
    for metrics in (rec["end_to_end"], rec["per_layer"]):
        for key, (value, unit) in metrics.items():
            assert unit == units[key], key
            assert isinstance(value, (int, float)), key
    assert rec["failed"] == 0 and rec["traced_failed"] == 0, rec["failures"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_self_times_fit_in_the_traced_pass(records, name):
    layers = records[name]["per_layer"]
    total = sum(value for key, (value, unit) in layers.items()
                if key.endswith(".s") and not key.startswith("trace."))
    assert 0 < total <= layers["trace.traced_pass_s"][0]


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_identical_work_counts(records, name):
    again = tiny(name)

    def counts(rec):
        return {k: v for k, (v, unit) in rec["per_layer"].items()
                if k not in TIMES and not k.endswith(".s")}
    assert counts(again) == counts(records[name])
    assert again["attempted"] == records[name]["attempted"]


def test_workloads_load_their_layers(records):
    layers = {name: rec["per_layer"] for name, rec in records.items()}
    assert layers["tree_trichotomy"]["bass_serre.build_ball.calls"][0] > 0
    assert layers["tree_trichotomy"]["trichotomy.depth_shortfall"][0] > 0
    assert layers["holonomy_classes"][
        "subgroup_analysis.psl_budget_exhausted"][0] > 0
    assert layers["cochain_certificates"][
        "linf_cohomology.primitive.calls"][0] > 0
    assert layers["bundle_windows"]["bundle_lab.window_vertices"][0] > 0
    for name in WORKLOADS:
        assert layers[name]["cli.main.calls"][0] > 0, name
    for name in ("cochain_certificates", "bundle_windows"):
        assert layers[name]["bass_serre.build_ball.calls"][0] == 0


def test_only_the_fibonacci_probes_fail(records):
    rec = records["bundle_windows"]
    assert rec["failed"] == 0
    assert rec["known_defect_failures"] > 0
    assert all(line.startswith("known defect fibonacci_")
               for line in rec["failures"])
    passed = rec["end_to_end"]["passed_frac"][0]
    assert passed == pytest.approx(
        1 - rec["known_defect_failures"] / rec["attempted"])
    for name in ("tree_trichotomy", "holonomy_classes",
                 "cochain_certificates"):
        assert records[name]["end_to_end"]["passed_frac"][0] == 1.0


def test_scale_factors_follow_the_reference_samples_around_a_decision(
        monkeypatch):
    nominal = harness.REF_NOMINAL_MS
    monkeypatch.setattr(harness, "reference_sample_ms", lambda: 2 * nominal)
    host = harness.HostSpeed()
    # nominal speed for 10 s, then half speed; one sample every 0.25 s
    host.samples = ([(i / 4, nominal) for i in range(40)]
                    + [(10 + i / 4, 2 * nominal) for i in range(40)])
    host.starts = [1.0, 9.9, 15.0]
    host.t0 -= 21.0   # the closing sample lands after the last one
    factors = host.factors()
    assert factors[0] == pytest.approx(1.0)
    assert factors[2] == pytest.approx(0.5)
    assert 0.5 <= factors[1] <= 1.0   # straddles the change


def test_an_injected_failing_check_counts_as_failed():
    base = harness.WORKLOADS["cochain_certificates"]

    def make_round(ctx, seed, r):
        decisions = base.make_round(ctx, seed, r)

        def refuse(result):
            raise CheckFailed("injected")
        decisions[0].check = refuse
        return decisions

    patched = types.SimpleNamespace(once=base.once, make_round=make_round)
    rec = tiny("cochain_certificates", workload=patched)
    n = rec["attempted"]
    assert rec["failed"] == 1 and rec["traced_failed"] == 1
    assert rec["end_to_end"]["passed_frac"][0] == (n - 1) / n
    assert rec["exceptions"] == {"CheckFailed": 1}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
