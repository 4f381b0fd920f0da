"""Spawn import safety, hang containment, missing sources, no stray writes."""

from __future__ import annotations

import json
import os
import runpy
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
DEAD_WORKERS = ROOT / "perfbench" / "tests" / "fleet_dead_workers.py"


def test_spawn_import_runs_nothing(capsys):
    """A spawn worker imports the entry file as __mp_main__: no side effects."""
    namespace = runpy.run_path(str(RUN), run_name="__mp_main__")
    assert callable(namespace["main"])
    assert capsys.readouterr().out == ""


def test_dead_pool_worker_is_reported_not_hung(capsys):
    from perfbench.run import supervise

    started = time.monotonic()
    code = supervise([sys.executable, str(DEAD_WORKERS)], limit=25.0)
    elapsed = time.monotonic() - started
    lines = capsys.readouterr().out.splitlines()
    assert code != 0
    assert elapsed < 60
    assert any(l.startswith("FAILED: fleet_unit unit 0") for l in lines)
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "golden-replay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert not any(l.startswith("{") for l in out.stdout.splitlines())


def _snapshot():
    files = {}
    for path in ROOT.rglob("*"):
        parts = path.relative_to(ROOT).parts
        if (parts[0] in (".git", ".pytest_cache")
                or parts[:2] == ("perfbench", "out") or not path.is_file()):
            continue
        files[path] = path.stat().st_mtime_ns
    return files


def test_writes_only_its_own_directory():
    # Allow bytecode writes, so that any that land in the tree show.
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    before = _snapshot()
    for workload in ("fleet", "detector-trace"):
        subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", "2",
             "--seconds", "1", "--trace", "1"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
            check=True)
    assert _snapshot() == before
