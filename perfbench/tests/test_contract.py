"""BENCHMARK.json names exactly the workloads and metrics the command prints."""

from __future__ import annotations

import json
import re
from pathlib import Path

from perfbench import run, workloads

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_workloads_match():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])


def test_per_layer_metrics_match():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == run.PER_LAYER


def test_end_to_end_metrics_match():
    names = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert names == {"setup_s", "requests_per_s", "request_p50_us",
                     "request_p99_us"}
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_names_are_well_formed():
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in metrics + BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
