"""Tests of the benchmark itself: objectives, span bookkeeping and the
output schema in smoke mode.  They never look at timings.

Run from the repository root: python3 -m pytest bench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import objectives  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


@pytest.mark.parametrize("name,value,published,tolerance", objectives.published_minima())
def test_objective_reaches_published_minimum(name, value, published, tolerance):
    assert abs(value - published) <= tolerance


def test_published_minimisers_are_minima():
    assert objectives.goldstein_price((0.01, -1.0)) > objectives.GOLDSTEIN_PRICE_MIN
    assert objectives.tilt((-0.99, -1.0, -1.0, -1.0)) > objectives.TILT_MIN


def test_self_time_subtracts_the_union_of_children():
    spans = [
        tracing.Span(1, "batch", 0.0, 10.0, None, "r"),
        tracing.Span(2, "objective", 1.0, 5.0, 1, "r"),
        tracing.Span(3, "objective", 2.0, 6.0, 1, "r"),
        tracing.Span(4, "objective", 8.0, 9.0, 1, "r"),
    ]
    assert tracing.self_times(spans)[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert tracing.self_times(spans)[2] == pytest.approx(4.0)


def test_idle_gaps_cut_calls_at_batch_boundaries():
    workload = workloads.WORKLOADS["long-2d"]
    sizes = workloads.batch_sizes(workload, workload.smoke_iter)
    assert sizes == [2, 2, 2, 2, 2]
    calls, clock = [], 0.0
    for size in sizes:
        calls += [(clock, clock + 1.0)] * size
        clock += 1.5
    record = workloads.RunRecord(0, workload.smoke_iter, 0.0, clock, calls[::-1], "", 0.0)
    assert workloads.idle_gaps(workload, record) == pytest.approx([0.5, 0.5])


def test_spec_lists_every_workload():
    assert SPEC["workloads"] == [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()]


def _smoke(workload: str, trace: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload]
    command += ["--seed", "3", "--trace", str(trace), "--smoke"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_output_matches_spec(workload, trace):
    result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_to_run_without_the_library(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    command = [sys.executable, str(bench / "run.py"), "--workload", "long-2d", "--seed", "1"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
