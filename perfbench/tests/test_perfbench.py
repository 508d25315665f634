"""Tests of the benchmark itself: layer attribution, determinism, the
result contract and clean failure.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter
from types import SimpleNamespace

import pytest

from perfbench import layers, workloads
from repro.macsim.schedulers.random_delay import RandomDelayScheduler

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: Busy-wait planted inside every ``scheduler.plan`` call.
PLANTED_S = 50e-6


def _table(name, seed, scratch, seconds=1.0):
    outcome = workloads.run_workload(name, seed, seconds, True, str(scratch))
    assert outcome.correct, outcome.problems
    return outcome.metrics


def _time_rows(table):
    return [m for m, unit in workloads.PER_LAYER_UNITS.items()
            if unit == "s" and m != "traced_wall_s"]


def test_planted_plan_delay_lands_in_schedulers_plan(tmp_path, monkeypatch):
    baseline = [_table("audit", 7, tmp_path) for _ in range(3)]

    original = RandomDelayScheduler.plan

    def slow_plan(self, **kwargs):
        end = perf_counter() + PLANTED_S
        while perf_counter() < end:
            pass
        return original(self, **kwargs)

    monkeypatch.setattr(RandomDelayScheduler, "plan", slow_plan)
    planted = _table("audit", 7, tmp_path)

    plan = "schedulers.plan.self_s"
    expected = planted["schedulers.plan.calls"] * PLANTED_S
    moved = planted[plan] - statistics.median(t[plan] for t in baseline)
    assert 0.8 * expected < moved < 1.5 * expected

    # Other layers are compared as shares of the time outside planning,
    # which cancels a machine-wide change of speed between runs.
    others = [m for m in _time_rows(planted) if m != plan]

    def shares(table):
        rest = table["traced_wall_s"] - table[plan]
        return {m: table[m] / rest for m in others}

    base = [shares(t) for t in baseline]
    after = shares(planted)
    for metric in others:
        values = [b[metric] for b in base]
        spread = max(values) - min(values)
        slack = max(2 * spread, 0.02)
        assert min(values) - slack <= after[metric] <= max(values) + slack, \
            (metric, values, after[metric])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_layer_table_sums_to_traced_wall(tmp_path, name):
    table = _table(name, 3, tmp_path)
    total = sum(table[m] for m in _time_rows(table))
    assert total == pytest.approx(table["traced_wall_s"], rel=1e-9)
    assert table["trace_overhead"] > 0.5
    assert abs(table["unattributed_s"]) < 0.25 * table["traced_wall_s"]


@pytest.mark.parametrize("name", ["audit", "sweep"])
def test_latencies_and_counts_repeat_for_a_seed(tmp_path, name):
    runs = [workloads.run_workload(name, 5, 0, False, str(tmp_path))
            for _ in range(2)]
    for outcome in runs:
        assert outcome.correct, outcome.problems
    first, second = runs
    for key in ("latency_p50_vt", "latency_p99_vt"):
        assert first.metrics[key] == second.metrics[key], key
    assert (first.attempted, first.failed) == \
        (second.attempted, second.failed)


def test_counts_and_latencies_repeat_and_shards_match(tmp_path):
    runs = [workloads.run_workload(name, 11, 3.6, False, str(tmp_path))
            for name in ("serve", "serve", "serve_sharded")]
    for outcome in runs:
        assert outcome.correct, outcome.problems
    keys = ("latency_p50_vt", "latency_p99_vt")
    first = [runs[0].metrics[k] for k in keys]
    for outcome in runs[1:]:
        assert [outcome.metrics[k] for k in keys] == first
        assert (outcome.attempted, outcome.failed) == \
            (runs[0].attempted, runs[0].failed)
    serve = [_table("serve", 11, tmp_path) for _ in range(2)]
    sharded = _table("serve_sharded", 11, tmp_path)
    for metric, unit in workloads.PER_LAYER_UNITS.items():
        if unit not in ("count", "events", "req/slot", "F_ack"):
            continue
        assert serve[0][metric] == serve[1][metric], metric
        # Engine slices depend on how many groups share one runtime.
        if metric != "simulator.run.calls":
            assert sharded[metric] == serve[0][metric], metric


def test_slot_audit_flags_disagreement_and_invalid_values():
    scenario = workloads.serve_session(1, 1).base

    def run(decisions, batch=3):
        return SimpleNamespace(
            scenario=scenario, result=SimpleNamespace(decisions=decisions),
            context=([None] * batch, 0, False))

    verdict = workloads._audit_slots([
        run({0: 1, 1: 1}), run({0: 0, 1: 1}), run({0: 7}), run({})])
    assert verdict == {"slots": 4, "bad_slots": 3, "bad_requests": 6}


def test_benchmark_json_matches_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        workloads.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        workloads.PER_LAYER_UNITS
    assert set(layers.SELF_ROWS.values()) <= set(workloads.PER_LAYER_UNITS)


def test_run_prints_every_metric_and_cleans_up():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_sharded",
         "--seed", "2", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(workloads.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not os.path.exists(os.path.join(ROOT, ".perfbench-tmp"))


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
