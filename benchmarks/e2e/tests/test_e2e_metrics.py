"""Every workload reports every metric, with its unit, and agrees with BENCHMARK.json."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from benchmarks.e2e.run import (
    COUNTERS,
    DRIVER_END_TO_END,
    DRIVER_PER_LAYER,
    END_TO_END,
    document,
    result_line,
)
from benchmarks.e2e.tracer import LAYERS
from benchmarks.e2e.workloads import ROOT, WORKLOADS

UNITS = {metric.name: metric.unit for metric in END_TO_END}


def test_every_metric_and_unit_for_every_workload(tiny_results):
    assert set(tiny_results) == set(WORKLOADS)
    for name, result in tiny_results.items():
        assert result["correct"], (name, result["errors"])
        assert result["missing_targets"] == []
        assert {m: e["unit"] for m, e in result["end_to_end"].items()} == UNITS
        assert result["end_to_end"]["error_rate"]["value"] == 0
        per_layer = result["per_layer"]
        for layer in LAYERS:
            for suffix, unit in (("calls", "count"), ("self_s", "s"),
                                 ("share", "ratio")):
                assert per_layer[f"{layer}.{suffix}"]["unit"] == unit
        for counter, unit in COUNTERS:
            assert per_layer[counter]["unit"] == unit
        line = result_line(result, trace=False)
        assert list(line["metrics"]) == list(DRIVER_END_TO_END)
        assert line["attempted"] >= 1 and line["failed"] == 0
        assert list(result_line(result, trace=True)["metrics"]) == list(DRIVER_PER_LAYER)
    json.dumps(document(tiny_results, 1996))


def test_workload_health_counters(tiny_results):
    def counter(name, key):
        return tiny_results[name]["per_layer"][key]["value"]

    assert counter("sweep_cold", "experiment.cache.misses") == 24
    assert counter("sweep_cold", "experiment.cache.hits") == 0
    assert counter("sweep_warm", "experiment.cache.hits") == 24
    assert counter("sweep_warm", "netsim.events.dispatched") == 0
    assert counter("mega", "netsim.fastforward.captured") > 0
    for name in ("sweep_cold", "chaos", "congestion"):
        assert counter(name, "netsim.fastforward.captured") == 0
    for name in WORKLOADS:
        assert counter(name, "netsim.fastforward.replayed") == 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/e2e/"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    bounds = {m.name: (m.unit, m.bound) for m in END_TO_END}
    assert [m["name"] for m in spec["end_to_end"]] == list(DRIVER_END_TO_END)
    for metric in spec["end_to_end"]:
        assert (metric["unit"], metric["bound"]) == bounds[metric["name"]]
        assert metric["better"] == "lower"
    assert [m["name"] for m in spec["per_layer"]] == list(DRIVER_PER_LAYER)


def test_without_program_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--workload", "chaos",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
