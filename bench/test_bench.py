"""Checks on the benchmark itself: its declared metrics, its pinned outputs,
and that each workload still exercises the layer it was chosen for.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import END_TO_END, PER_LAYER
from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def bench(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def layers():
    """Per-layer metrics of a short traced run of every workload."""
    proc = bench("--workload", "all", "--seed", str(DEFAULT_SEED),
                  "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout.splitlines()[-1])
    for name, run in runs.items():
        assert run["correct"] and run["failed"] == 0, (name, proc.stdout)
    return {name: {k: v["value"] for k, v in run["metrics"].items()}
            for name, run in runs.items()}


def test_declared_metrics_and_workloads_match_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}


def test_untraced_run_reports_every_end_to_end_metric_and_no_failure():
    proc = bench("--workload", "lte_crowd", "--seed", str(DEFAULT_SEED),
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout.splitlines()[-1])
    assert run["correct"] and run["failed"] == 0
    assert set(run["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in run["metrics"].values())
    assert "fail_ratio" in proc.stdout


def test_traced_run_reports_every_per_layer_metric(layers):
    for name, metrics in layers.items():
        assert set(metrics) == set(PER_LAYER), name
        assert metrics["trace.overhead_ratio"] > 1.0


def test_pf_runs_on_lte_crowd_only(layers):
    assert layers["lte_crowd"]["phymac.pf_calls"] > 0
    assert layers["nr_flood"]["phymac.pf_calls"] == 0


def test_queue_rejects_on_lte_crowd_only(layers):
    assert layers["lte_crowd"]["traffic.offer_reject_ratio"] > 0.5
    assert layers["nr_flood"]["traffic.offer_reject_ratio"] == 0


def test_harq_retries_on_speed_sweep_only(layers):
    assert layers["speed_sweep"]["phymac.harq_attempts_per_packet"] > 1.2
    assert layers["nr_flood"]["phymac.harq_attempts_per_packet"] < 1.01


def test_pool_figures_come_from_speed_sweep(layers):
    assert 0.0 < layers["speed_sweep"]["runner.pool_efficiency"] <= 1.0
    assert layers["lte_crowd"]["runner.pool_efficiency"] == 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "lte_crowd", "--seconds", "1", root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
