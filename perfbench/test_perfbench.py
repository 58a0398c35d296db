"""Tests of the benchmark itself.

Run from the repository root (about six minutes)::

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import END_TO_END_UNITS, EXACT_COUNTS, PER_LAYER_UNITS, WORKLOADS

HERE = Path(__file__).resolve().parent


def _traced_run(workload: str, seed: int) -> "tuple[dict, str]":
    """One traced run of the shortest length: an untraced and a traced
    sweep.  Returns the JSON report and the printed results digest."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=600)
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.splitlines()
    digest = next(line.split("=", 1)[1].strip() for line in lines
                  if line.strip().startswith("results_digest ="))
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_simulated_counts_and_digest_repeat_for_one_seed(workload):
    first, first_digest = _traced_run(workload, seed=7)
    second, second_digest = _traced_run(workload, seed=7)
    assert first["correct"] and second["correct"]
    assert first["failed"] == second["failed"] == 0
    assert first_digest == second_digest
    assert len(first_digest.split()) == 1
    for name in EXACT_COUNTS:
        assert (first["metrics"][name]["value"]
                == second["metrics"][name]["value"]), name

    metrics = {name: metric["value"]
               for name, metric in first["metrics"].items()}
    backend, injector = WORKLOADS[workload]
    # Each workload loads the layers it was chosen for and bypasses the
    # others (perfbench/README.md).
    assert metrics["mem.l1d_accesses"] > 0
    if injector == "geometric":
        assert metrics["mem.fast_lane_share"] > 0.9
    else:
        assert metrics["mem.fast_lane_accesses"] == 0
    if backend == "replay":
        assert metrics["replay.price_calls"] == 140
        assert 0 < metrics["replay.declined"] < 140
        assert metrics["replay.trace_events"] > 0
    else:
        assert metrics["replay.price_calls"] == 0
        assert metrics["replay.trace_events"] == 0
        assert metrics["experiment.calls"] == 140
    assert 0.95 <= metrics["trace.span_coverage"] <= 1.0


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {metric["name"]: metric["unit"]
            for metric in spec["end_to_end"]} == END_TO_END_UNITS
    assert {metric["name"]: metric["unit"]
            for metric in spec["per_layer"]} == PER_LAYER_UNITS
    assert {workload["name"] for workload in spec["workloads"]} <= set(
        WORKLOADS)
    assert spec["paths"] == [HERE.name]


def test_refuses_without_simulator_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload",
         "edf-geometric", "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert completed.returncode != 0
    assert completed.stdout == ""
