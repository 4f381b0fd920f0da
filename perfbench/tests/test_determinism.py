"""Two runs of the same seeds give identical counters and verdicts."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import workloads

ROOT = Path(__file__).resolve().parents[2]

SMALL = {
    "golden-replay": dict(duration=25.0),
    "detector-trace": dict(num_requests=6000, gap_seconds=200.0),
    "defend-recover": {},
    "fleet": dict(devices=4, workers=2),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_unit_repeats_exactly(name):
    unit_fn = workloads.WORKLOADS[name].unit
    first = unit_fn(7, 1, **SMALL[name])
    second = unit_fn(7, 1, **SMALL[name])
    assert first.problems == [] and second.problems == []
    assert first.counters == second.counters
    assert (first.attempted, first.failed) == (second.attempted,
                                               second.failed)
    assert first.detect_latency_s == second.detect_latency_s


def test_different_units_get_different_inputs():
    first = workloads.golden_unit(7, 1, duration=25.0)
    other = workloads.golden_unit(7, 2, duration=25.0)
    assert first.counters != other.counters


def _unit_lines(seed):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "golden-replay",
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    return [l for l in lines if l.startswith("unit ")], result


def test_command_repeats_counters_and_verdict():
    first, first_result = _unit_lines(4)
    second, second_result = _unit_lines(4)
    common = min(len(first), len(second))
    assert common >= 1
    assert first[:common] == second[:common]
    assert first_result["correct"] is second_result["correct"] is True
    assert set(first_result["metrics"]) == {
        "setup_s", "requests_per_s", "request_p50_us", "request_p99_us"}
