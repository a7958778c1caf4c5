"""Smoke test of the benchmark: each workload, run at tiny size, emits every
metric that BENCHMARK.json names, with its unit, in the result-line format."""

import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {"--per-class": "2", "--epochs": "1"}

_spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def test_benchmark_json_names_only_workloads_run_py_knows():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_run_emits_every_named_metric(workload):
    record = run.measure(workload, seed=3, seconds=0.1, trace=True,
                         overrides=TINY, probes=1)
    assert record["seed"] == 3
    assert record["attempted"] >= 3
    assert record["environment"]["cpu_count"] >= 1
    for key in ("end_to_end", "per_layer"):
        line = run.result_line(record, BENCHMARK[key])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert [m["name"] for m in BENCHMARK[key]] == list(line["metrics"])
        for metric in BENCHMARK[key]:
            emitted = line["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"]
            assert math.isfinite(emitted["value"])


def test_exits_nonzero_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("tests", "results", ".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train-synth12", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
