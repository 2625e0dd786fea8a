import json
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench.harness import (
    Tally,
    Tracer,
    percentile,
    supported_tail,
    timing,
    valid_name,
)
from perfbench.run import WORKLOAD_NAMES
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
     (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_rule_needs_ten_samples_beyond(n, expected):
    assert supported_tail(n) == expected


def test_percentile_matches_numpy_linear_rule():
    rng = random.Random(3)
    values = [rng.random() for _ in range(257)]
    for p in (0.0, 10.0, 50.0, 90.0, 99.0, 100.0):
        assert percentile(values, p) == pytest.approx(np.percentile(values, p), abs=1e-15)


def test_timing_reports_sample_count_and_supported_tail():
    out = timing("x_p50_s", [float(i) for i in range(50)], tail=("x_p90_s", 90.0))
    assert out["x_p50_s"].n == 50 and out["x_p50_s"].value == 24.5
    assert "5 samples beyond p90" in out["x_p90_s"].note
    assert "highest supported: p50" in out["x_p90_s"].note


@pytest.mark.parametrize("name", ["setup_s", "sim.kernel.replay_s", "a-b", "9x"])
def test_valid_names(name):
    assert valid_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "é", "x" * 65])
def test_invalid_names(name):
    assert not valid_name(name)


def test_benchmark_json_names_and_bounds():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(valid_name(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert list(WORKLOAD_NAMES) == list(WORKLOADS)


def test_every_workload_maps_every_gate_metric():
    gates = {m["name"] for m in SPEC["end_to_end"]} - {"setup_s", "peak_rss_mb"}
    for module in WORKLOADS.values():
        assert set(module.GATE) == gates
        assert all(valid_name(n) for n in module.GATE.values())


def test_tally_counts_each_failed_operation_once():
    tally = Tally()
    tally.attempt(10)
    tally.fail("op-1", "raised")
    tally.fail("op-1", "output mismatch")
    tally.fail("op-2", "output mismatch")
    assert tally.failed == 2
    assert tally.failed_share == pytest.approx(0.2)
    assert tally.reasons["op-1"] == "raised"


def test_tracer_records_parents():
    tracer = Tracer()
    with tracer.span("op") as outer:
        with tracer.span("inner") as inner:
            pass
    assert inner["parent"] == outer["id"]
    assert outer["parent"] is None
    assert tracer.durations("inner")[0] <= tracer.durations("op")[0]


def test_run_without_program_sources_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point-replay"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
