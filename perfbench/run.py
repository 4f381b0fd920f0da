"""Run one benchmark workload and print its metrics as a JSON last line.

Usage, from the repository root::

    python3 perfbench/run.py --workload golden-replay --seed 1 --seconds 25 --trace 0

The command re-runs itself in a fresh process (``--in-process``) under a
wall limit, in its own process group.  When that process overruns the
limit -- a dead fleet pool worker makes ``run_fleet`` wait forever -- the
whole group is killed and the operation that was running is reported as
failed, instead of hanging.  Everything here sits under the ``__main__``
guard, so the fleet's ``spawn`` workers can import this file safely.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced round and then traced rounds, and prints the per-layer metrics
(README.md lists both sets).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

WORKLOAD_NAMES = ("golden-replay", "detector-trace", "defend-recover", "fleet")

#: Fresh processes that time the program's imports for ``setup_s``.
IMPORT_REPEATS = 6

#: Prefix of the progress lines the measuring process prints before each
#: unit, so a killed run can name what it was doing.
OP = "op: "

#: Spans written by traced runs, and temporary files, land here.
OUT = Path(__file__).resolve().parent / "out"

#: Per-layer metrics: name -> unit (BENCHMARK.json lists the same names).
PER_LAYER = {
    "ssd.submit.calls": "count",
    "ssd.submit.self_s": "s",
    "ssd.write.self_s": "s",
    "ssd.read.self_s": "s",
    "ssd.recover.self_s": "s",
    "core.detector.observe.calls": "count",
    "core.detector.observe.self_s": "s",
    "core.detector.tick.self_s": "s",
    "core.detector.slices_closed": "count",
    "core.detector.slices_fast_forwarded": "count",
    "core.detector.detect_latency_s": "s",
    "ftl.write.calls": "count",
    "ftl.write.self_s": "s",
    "ftl.read.self_s": "s",
    "ftl.collect_garbage.calls": "count",
    "ftl.collect_garbage.self_s": "s",
    "ftl.victim_index.select.calls": "count",
    "ftl.victim_index.select.self_s": "s",
    "ftl.host_writes": "count",
    "ftl.host_reads": "count",
    "ftl.gc_runs": "count",
    "ftl.gc_page_copies": "count",
    "ftl.gc_pinned_copies": "count",
    "ftl.gc.reclaimed_per_copy": "pages/copy",
    "ftl.write_amplification": "programs/write",
    "ftl.rollback.self_s": "s",
    "ftl.rollback.entries_applied": "count",
    "ftl.rollback.entries_per_s": "1/s",
    "ftl.recovery_queue.calls": "count",
    "ftl.recovery_queue.self_s": "s",
    "ftl.recovery_queue.depth_peak": "count",
    "ftl.recovery_queue.evictions": "count",
    "ftl.mapping.calls": "count",
    "ftl.mapping.self_s": "s",
    "nand.program.calls": "count",
    "nand.program.self_s": "s",
    "nand.erase.calls": "count",
    "nand.erase.self_s": "s",
    "nand.invalidate.self_s": "s",
    "nand.read.calls": "count",
    "nand.read.self_s": "s",
    "nand.programs": "count",
    "nand.erases": "count",
    "nand.busy_sim_s": "s",
    "workloads.scenario_build_s": "s",
    "ssd.device_build_s": "s",
    "ssd.device_rss_mb": "MiB",
    "fleet.run_device_s": "s",
    "fleet.parallel_efficiency": "ratio",
    "fleet.record_codec_s": "s",
    "fleet.requests_replayed": "count",
    "bench.loop.self_s": "s",
    "trace.coverage_pct": "%",
    "trace.overhead_pct": "%",
    "host.calibration_s": "s",
}


def build_parser() -> argparse.ArgumentParser:
    """The command-line interface."""
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one benchmark workload; the last stdout line is "
                    "the JSON result.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to measure (whole units are run "
                             "until this much time has passed)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--in-process", action="store_true",
                        help=argparse.SUPPRESS)
    return parser


# -- supervisor ----------------------------------------------------------------

def wall_limit(seconds: float) -> float:
    """Seconds the measuring process may take before it is killed.

    A run takes its imports and set-up, ``seconds``, and one round past the
    deadline; the limit leaves room for all of that on a slow host.
    """
    return 3.0 * seconds + 60.0


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _end_group(pgid: int) -> None:
    """Kill whatever is left of the process group and wait for it to go.

    Orphans are reaped by init, so this polls (for at most ten seconds).
    """
    if _group_alive(pgid):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
    deadline = time.monotonic() + 10.0
    while _group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)


def supervise(command: List[str], limit: float) -> int:
    """Run ``command`` in a fresh process group and relay its result.

    The command prints :data:`OP` lines as it goes and a JSON result last;
    if it overruns ``limit`` seconds, fails, or prints no result, the last
    operation it named is reported as failed.
    """
    # A fixed string-hash seed gives every run the same dict layouts, one
    # less source of run-to-run spread.  Temporary files (the fleet file)
    # stay inside the benchmark's own directory, and no bytecode is written
    # beside the program's sources.
    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0", TMPDIR=str(scratch),
               PYTHONDONTWRITEBYTECODE="1")
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             cwd=str(ROOT), env=env, start_new_session=True)
    reason = None
    try:
        output, _ = child.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        output, _ = child.communicate()
        reason = f"still running after the {limit:.0f} s wall limit"
    finally:
        # The measuring process is reaped by now; end its pool workers too.
        _end_group(child.pid)
    lines = output.splitlines()
    last_op = "start-up"
    attempted = 0
    result = None
    for line in lines:
        if line.startswith(OP):
            last_op = line[len(OP):]
            continue
        if line.startswith("unit "):
            attempted += json.loads(line.split(": ", 1)[1])["attempted"]
        if line.startswith("{"):
            try:
                result = json.loads(line)
                continue
            except json.JSONDecodeError:
                pass
        print(line)
    if reason is None and child.returncode != 0:
        reason = f"measuring process exited with code {child.returncode}"
    if reason is None and result is None:
        reason = "measuring process printed no result"
    if reason is not None:
        print(f"FAILED: {last_op}: {reason}")
        print(json.dumps({"correct": False, "attempted": attempted + 1,
                          "failed": 1, "metrics": {}}))
        return 1
    print(json.dumps(result))
    return 0


# -- measuring process ---------------------------------------------------------

def mean_repetitions(units, per_round: int):
    """Means over the repetitions of each input, operation by operation.

    Replays are deterministic, so entry ``i`` of every repetition of an
    input times the same work.  Returns the per-entry means of every input,
    concatenated, and the host seconds of one round: the sum over inputs of
    the mean ``timed_s`` of their repetitions.
    """
    import numpy as np

    means = []
    seconds = 0.0
    for key in range(per_round):
        reps = units[key::per_round]
        means.append(np.vstack([np.frombuffer(unit.latencies_ns, np.int64)
                                for unit in reps]).mean(axis=0))
        seconds += statistics.fmean(unit.timed_s for unit in reps)
    return np.concatenate(means), seconds


def end_to_end(units, per_round: int, import_s: float,
               scale: float) -> Dict[str, Dict[str, object]]:
    """The end-to-end metrics.

    ``setup_s`` is ``import_s`` plus the median over inputs of the mean
    set-up of their repetitions, in host seconds as measured: start-up and
    file reads follow the calibration kernel less than the replays do.
    The rest come from :func:`mean_repetitions`, multiplied by ``scale``
    (:func:`perfbench.hostinfo.host_scale`) to put them on the reference
    host speed.
    """
    import numpy as np

    setup_s = import_s + statistics.median(
        statistics.fmean(u.setup_s for u in units[key::per_round])
        for key in range(per_round))
    means, seconds = mean_repetitions(units, per_round)
    p50, p99 = np.percentile(means, [50, 99]) / 1e3
    values = {
        "setup_s": (setup_s, "s"),
        "requests_per_s": (sum(u.attempted for u in units[:per_round])
                           / (seconds * scale), "req/s"),
        "request_p50_us": (float(p50) * scale, "us"),
        "request_p99_us": (float(p99) * scale, "us"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def _sum_counters(units) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for unit in units:
        for name, value in unit.counters.items():
            total[name] = total.get(name, 0) + value
    return total


def _detect_latency(units) -> float:
    latencies = [u.detect_latency_s for u in units
                 if u.detect_latency_s is not None]
    return statistics.median(latencies) if latencies else 0.0


def per_layer(workload: str, table: Dict[str, Dict[str, float]], units,
              rounds: int, untraced_s: float, traced_round_s: float,
              traced_s: float, rss_mb: float, calibration_s: float,
              workers: int) -> Dict[str, Dict[str, object]]:
    """Per-layer metrics of the traced rounds, as means per round.

    ``untraced_s`` and ``traced_round_s`` time the same inputs without and
    with tracing (the overhead); ``traced_s`` is the traced units' wall
    time.  ``trace.coverage_pct`` is the share of it spent inside layer
    spans, i.e. outside the benchmark loop's own self time.
    """
    def calls(name: str) -> float:
        return table.get(name, {}).get("calls", 0) / rounds

    def self_s(name: str) -> float:
        return table.get(name, {}).get("self_s", 0.0) / rounds

    def inclusive(name: str) -> float:
        return table.get(name, {}).get("inclusive_s", 0.0)

    counters = _sum_counters(units)

    def count(name: str) -> float:
        return counters.get(name, 0) / rounds

    copies = counters.get("gc_page_copies", 0)
    host_writes = counters.get("host_writes", 0)
    applied = counters.get("rollback_entries_applied", 0)
    rollback_s = inclusive("ftl.rollback")
    device_s = inclusive("fleet.run_device")
    device_calls = table.get("fleet.run_device", {}).get("calls", 0)
    fleet_s = inclusive("fleet.run_fleet")
    fleet = workload == "fleet"
    values = {
        "ssd.submit.calls": calls("ssd.submit"),
        "ssd.submit.self_s": self_s("ssd.submit"),
        "ssd.write.self_s": self_s("ssd.write"),
        "ssd.read.self_s": self_s("ssd.read"),
        "ssd.recover.self_s": self_s("ssd.recover"),
        "core.detector.observe.calls": calls("core.detector.observe"),
        "core.detector.observe.self_s": self_s("core.detector.observe"),
        "core.detector.tick.self_s": self_s("core.detector.tick"),
        "core.detector.slices_closed": count("slices_closed"),
        "core.detector.slices_fast_forwarded":
            count("slices_fast_forwarded"),
        "core.detector.detect_latency_s": _detect_latency(units),
        "ftl.write.calls": calls("ftl.write"),
        "ftl.write.self_s": self_s("ftl.write"),
        "ftl.read.self_s": self_s("ftl.read"),
        "ftl.collect_garbage.calls": calls("ftl.collect_garbage"),
        "ftl.collect_garbage.self_s": self_s("ftl.collect_garbage"),
        "ftl.victim_index.select.calls": calls("ftl.victim_index.select"),
        "ftl.victim_index.select.self_s": self_s("ftl.victim_index.select"),
        "ftl.host_writes": count("host_writes") if not fleet
        else count("blocks_written"),
        "ftl.host_reads": count("host_reads") if not fleet
        else count("blocks_read"),
        "ftl.gc_runs": count("gc_runs"),
        "ftl.gc_page_copies": count("gc_page_copies"),
        "ftl.gc_pinned_copies": count("gc_pinned_copies"),
        "ftl.gc.reclaimed_per_copy": (
            counters.get("gc_reclaimed_pages", 0) / copies
            if copies and "gc_reclaimed_pages" in counters else 0.0),
        "ftl.write_amplification": (
            counters.get("nand_programs", 0) / host_writes
            if host_writes and "nand_programs" in counters else 0.0),
        "ftl.rollback.self_s": self_s("ftl.rollback"),
        "ftl.rollback.entries_applied": applied / rounds,
        "ftl.rollback.entries_per_s": applied / rollback_s
        if rollback_s else 0.0,
        "ftl.recovery_queue.calls": calls("ftl.recovery_queue"),
        "ftl.recovery_queue.self_s": self_s("ftl.recovery_queue"),
        "ftl.recovery_queue.depth_peak": max(
            (u.counters.get("queue_depth_peak", 0) for u in units),
            default=0),
        "ftl.recovery_queue.evictions": count("queue_evictions"),
        "ftl.mapping.calls": calls("ftl.mapping"),
        "ftl.mapping.self_s": self_s("ftl.mapping"),
        "nand.program.calls": calls("nand.program"),
        "nand.program.self_s": self_s("nand.program"),
        "nand.erase.calls": calls("nand.erase"),
        "nand.erase.self_s": self_s("nand.erase"),
        "nand.invalidate.self_s": self_s("nand.invalidate"),
        "nand.read.calls": calls("nand.read"),
        "nand.read.self_s": self_s("nand.read"),
        "nand.programs": count("nand_programs"),
        "nand.erases": count("nand_erases"),
        "nand.busy_sim_s": count("nand_busy_sim_s"),
        "workloads.scenario_build_s": statistics.median(
            u.details.get("scenario_build_s", 0.0) for u in units),
        "ssd.device_build_s": statistics.median(
            u.details.get("device_build_s", 0.0) for u in units),
        "ssd.device_rss_mb": rss_mb,
        "fleet.run_device_s": device_s / device_calls if device_calls
        else 0.0,
        "fleet.parallel_efficiency": device_s / (workers * fleet_s)
        if fleet_s else 0.0,
        "fleet.record_codec_s": (inclusive("fleet.record_codec") / rounds),
        "fleet.requests_replayed": count("requests_replayed"),
        "bench.loop.self_s": self_s("bench.loop"),
        "trace.coverage_pct": 100.0 * (1.0 - table.get("bench.loop", {})
                                       .get("self_s", 0.0) / traced_s)
        if traced_s else 0.0,
        "trace.overhead_pct": 100.0 * (traced_round_s - untraced_s)
        / untraced_s if untraced_s else 0.0,
        "host.calibration_s": calibration_s,
    }
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in PER_LAYER.items()}


def _result(units, metrics) -> Dict[str, object]:
    return {
        "correct": not any(u.problems for u in units),
        "attempted": sum(u.attempted for u in units),
        "failed": sum(u.failed for u in units),
        "metrics": metrics,
    }


def _report_units(units) -> None:
    for index, unit in enumerate(units):
        print(f"unit {index}: " + json.dumps(
            {"attempted": unit.attempted, "failed": unit.failed,
             "counters": unit.counters}, sort_keys=True))
        for problem in unit.problems:
            print(f"CHECK FAILED: {problem}")
        for error in unit.errors[:3]:
            print(f"OPERATION FAILED: {error}")


def _run_units(unit_fn, per_round: int, seed: int, seconds: float,
               label: str = "unit", recorder_factory=None, on_round=None,
               **kwargs) -> tuple:
    """Whole rounds of units (inputs ``0 .. per_round-1``) until ``seconds``.

    Returns the units and the times of the calibration kernel runs made
    before each (:data:`~perfbench.hostinfo.SAMPLES` of them).  With
    ``recorder_factory``, each round gets a fresh recorder, handed to
    every unit of the round and then to ``on_round``.
    """
    import gc

    from perfbench.hostinfo import SAMPLES, kernel_seconds

    units = []
    kernel_s: List[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        recorder = recorder_factory() if recorder_factory else None
        extra = (kwargs if recorder is None
                 else dict(kwargs, recorder=recorder))
        for index in range(per_round):
            print(f"{OP}{unit_fn.__name__} {label} {len(units)} "
                  f"(input {index})", flush=True)
            gc.collect()
            kernel_s.extend(kernel_seconds() for _ in range(SAMPLES))
            units.append(unit_fn(seed, index, **extra))
        if on_round is not None:
            on_round(recorder)
        if time.perf_counter() >= deadline:
            return units, kernel_s


def import_seconds(modules) -> float:
    """Mean of :data:`IMPORT_REPEATS` imports, each in a fresh process."""
    code = ("import importlib, sys, time\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "started = time.perf_counter()\n"
            "for module in sys.argv[2:]:\n"
            "    importlib.import_module(module)\n"
            "print(time.perf_counter() - started)\n")
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", code, str(SOURCE), *modules],
            capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.fmean(times)


def measure(args: argparse.Namespace) -> int:
    """The measuring process: import, run units, print metrics."""
    import importlib

    sys.path[:0] = [str(ROOT), str(SOURCE)]
    from perfbench import hostinfo, workloads

    unit_fn, per_round, modules = workloads.WORKLOADS[args.workload]
    import_s = import_seconds(modules)
    for module in modules:
        importlib.import_module(module)
    print("host: " + json.dumps(hostinfo.fingerprint(), sort_keys=True))
    if not args.trace:
        units, kernel_s = _run_units(unit_fn, per_round, args.seed,
                                     args.seconds)
        _report_units(units)
        scale = hostinfo.host_scale(kernel_s)
        info = _info(args.workload, units, per_round, import_s)
        info["calibration_s"] = statistics.fmean(kernel_s)
        info["host_scale"] = scale
        print("info: " + json.dumps(info, sort_keys=True))
        print(json.dumps(_result(units, end_to_end(units, per_round,
                                                   import_s, scale))))
        return 0
    return measure_traced(args, unit_fn, per_round, import_s)


def _info(workload: str, units, per_round: int,
          import_s: float) -> Dict[str, object]:
    """Workload-specific figures printed beside the metrics (host times
    as measured, not scaled)."""
    mean = statistics.fmean
    info: Dict[str, object] = {
        "units": len(units), "rounds": len(units) // per_round,
        "import_s": import_s,
        "timed_s": sum(u.timed_s for u in units),
        "detect_latency_s": _detect_latency(units),
    }
    counters = _sum_counters(units)
    if workload == "golden-replay":
        info["write_amplification"] = (counters["nand_programs"]
                                       / counters["host_writes"])
    if workload == "defend-recover":
        info["defense_s"] = statistics.median(
            mean(u.timed_s for u in units[key::per_round])
            for key in range(per_round))
    if workload == "fleet":
        info["devices_per_s"] = units[0].attempted / mean(
            u.timed_s for u in units)
    return info


def resident_bytes() -> int:
    """Current resident set size of this process."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def measure_traced(args, unit_fn, per_round: int, import_s: float) -> int:
    """One untraced round, then traced rounds; prints per-layer metrics."""
    import gc

    from perfbench import hostinfo, tracing
    from perfbench.workloads import shards

    calibration_s = hostinfo.calibration_seconds()
    keep: list = []
    gc.collect()
    before = resident_bytes()
    untraced = [unit_fn(args.seed, index, keep=keep)
                for index in range(per_round)]
    gc.collect()
    rss_mb = ((resident_bytes() - before) / len(keep) / 2 ** 20
              if keep else 0.0)
    keep.clear()
    table: Dict[str, Dict[str, float]] = {}
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    written: List[Path] = []

    def merge(recorder) -> None:
        """Fold a traced round into the table; keep the first round's spans."""
        for name, row in tracing.layer_table(recorder).items():
            merged = table.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                merged[key] += value
        if not written:
            recorder.write(spans_path)
            written.append(spans_path)
            print(f"spans: {len(recorder)} -> {spans_path.relative_to(ROOT)}")

    traced, _kernel_s = _run_units(unit_fn, per_round, args.seed,
                                   args.seconds, label="traced unit",
                                   recorder_factory=tracing.SpanRecorder,
                                   on_round=merge)
    rounds = len(traced) // per_round
    _report_units(traced)
    for name in sorted(table, key=lambda n: -table[n]["self_s"]):
        row = table[name]
        print(f"layer {name}: calls {row['calls'] / rounds:.0f}, self "
              f"{row['self_s'] / rounds:.4f} s, inclusive "
              f"{row['inclusive_s'] / rounds:.4f} s per round")
    metrics = per_layer(
        args.workload, table, traced, rounds,
        untraced_s=sum(u.timed_s for u in untraced),
        traced_round_s=sum(u.timed_s for u in traced[:per_round]),
        traced_s=sum(u.details.get("loop_s", u.timed_s) for u in traced),
        rss_mb=rss_mb, calibration_s=calibration_s, workers=shards())
    print(json.dumps(_result(untraced + traced, metrics)))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: supervise, or measure when ``--in-process``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SOURCE}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.in_process:
        return measure(args)
    command = [sys.executable, str(Path(__file__).resolve()), *argv,
               "--in-process"]
    return supervise(command, wall_limit(args.seconds))


if __name__ == "__main__":
    raise SystemExit(main())
