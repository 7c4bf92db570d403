"""Tiny runs of every workload emit every named metric with its unit."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import api
import ingest
import query
import serve
from harness import END_TO_END, PER_LAYER, combine_replays
from layers import Recorder

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "ingest": lambda rec: ingest.run(5, 0.5, recorder=rec, setup_repeats=1),
    "query": lambda rec: query.run(5, 0.1, recorder=rec, min_queries=24, setup_repeats=1),
    "serve": lambda rec: serve.run(5, 0.6, recorder=rec, setup_repeats=1,
                                   phases_qps=((10.0, 0.3), (20.0, 0.4), (40.0, 0.3)), warm_questions=16),
    "api": lambda rec: api.run(5, 0.5, recorder=rec, setup_repeats=1, warm_questions=8),
}


def test_benchmark_json_lists_the_metrics_the_runs_emit():
    assert [(m["name"], m["unit"]) for m in CONFIG["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in CONFIG["per_layer"]] == list(PER_LAYER)
    # query runs from run.py but is not one of the benchmark's workloads
    # (see CATALOGUE.md, "Stability").
    assert [w["name"] for w in CONFIG["workloads"]] == ["ingest", "serve", "api"]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_traced_run_emits_every_metric(workload):
    result = TINY[workload](Recorder())
    assert result.checks.attempted > 0
    assert result.checks.failed == 0, result.checks.examples
    for name, _ in END_TO_END:
        assert math.isfinite(result.end_to_end[name]), name
    assert result.end_to_end["setup_s"] > 0
    for name, _ in PER_LAYER:
        assert math.isfinite(result.per_layer[name]), name


def _run_cli(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)


def test_cli_prints_the_contract_line():
    done = _run_cli(ROOT, "--workload", "ingest", "--seed", "2", "--seconds", "0.3",
                    "--trace", "1")
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert {name: m["unit"] for name, m in last["metrics"].items()} == dict(PER_LAYER)


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run_cli(tmp_path, "--workload", "query", "--seed", "1", "--seconds", "10",
                    "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def _round(latencies, setups, rss, failures=None):
    failures = failures or {}
    return {"end_to_end": {"setup_s": 0.0, "peak_rss_mb": rss, "throughput_per_s": 0.0,
                           "latency_p50_ms": 0.0, "latency_p95_ms": 0.0,
                           "cost_usd_per_op": 0.5, "accuracy": 0.9},
            "per_layer": {}, "attempted": len(latencies),
            "failed": sum(failures.values()), "failures": failures,
            "failure_examples": [], "fingerprint": {},
            "info": {"op_latencies_ms": latencies, "setup_runs_s": setups,
                     "elapsed_s": 1.0, "gc_gen2_pauses_ms": []}}


def test_replays_combine_to_each_operations_fastest_time():
    combined = combine_replays([
        _round([4.0, 1.0, None], [0.3, 0.1, 0.5], 10.0, {"exception:ValueError": 1}),
        _round([2.0, 3.0, 6.0], [0.2, 0.4, 0.6], 12.0),
        _round([5.0, 2.0, 8.0], [0.9, 0.2, 0.35], 11.0),
    ])
    e2e = combined["end_to_end"]
    assert e2e["latency_p50_ms"] == 2.0 and e2e["latency_p95_ms"] == 6.0
    assert e2e["throughput_per_s"] == pytest.approx(3 / 0.009)
    assert e2e["setup_s"] == 0.2 and e2e["peak_rss_mb"] == 12.0
    assert e2e["cost_usd_per_op"] == 0.5
    assert combined["attempted"] == 9 and combined["failed"] == 1
    assert "op_latencies_ms" not in combined["info"]
