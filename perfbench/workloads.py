"""The four benchmark workloads, each driven through public entry points.

Every workload is a sequence of *units* (one golden seed replayed on a
fresh device, one synthetic mix through a fresh detector, one sample's
defense cycle, one whole fleet).  A round is a fixed number of units with
input indices ``0 .. n-1``, and a run repeats whole rounds, so every input
is replayed several times.  The inputs of unit ``index`` are a pure
function of ``(seed, index)``.  A unit returns a :class:`Unit`: its
program set-up time, the host time of its timed operations with the
per-operation latencies, the operations it attempted and saw fail, its
exact simulated work counters and the problems its correctness checks
found.

A unit given a :class:`~perfbench.tracing.SpanRecorder` wraps the layer
objects of each device it builds, once the device is built, and runs its
timed loop inside a ``bench.loop`` span; the wrappers are removed before
the checks read the device.
"""

from __future__ import annotations

import os
import random
import statistics
import tempfile
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from perfbench import checks
from perfbench.tracing import LOOP, SpanRecorder

#: Golden replay: the scenario seeds of one round (the bench tool's golden
#: seed and its successors) and the simulated run length.  Requests keep
#: their time; their LBAs fold onto the small device and rotate by a
#: seed-derived offset.
GOLDEN_SEED = 20180706
GOLDEN_SEEDS = 3
GOLDEN_DURATION = 60.0

#: Detector trace: mixes per round, and each mix's size and idle gap.
MIX_INPUTS = 2
MIX_REQUESTS = 100_000
MIX_GAP_SECONDS = 3600.0

#: Defense cycle: the ``defend`` CLI's device and data set.
DEFEND_GEOMETRY = dict(channels=2, ways=4, blocks_per_chip=128,
                       pages_per_block=64)
DEFEND_QUEUE = 20_000
DEFEND_USER_BLOCKS = 15_000
#: Seconds between populate writes, and the quiet gap before the attack
#: (longer than the 10 s retention window, so the data set is "old").
DEFEND_WRITE_STEP = 0.0005
DEFEND_IDLE_GAP = 15.0
DEFEND_ATTACK_SECONDS = 60.0
#: Bytes of benchmark-made payload per populated block.
PAYLOAD_BYTES = 32

#: Fleet: devices per run and the plan seed (see README: fixed plan).
FLEET_DEVICES = 16
FLEET_PLAN_SEED = 0
#: Devices per fleet that the check re-derives in-process.
FLEET_REDERIVED = 2


def unit_seed(seed: int, label: str, index: int) -> int:
    """A 32-bit seed for unit ``index`` of a run started with ``seed``."""
    return random.Random(f"{seed}:{label}:{index}").getrandbits(32)


def shards() -> int:
    """Worker processes for the fleet: the CPUs this process may use."""
    return len(os.sched_getaffinity(0))


@dataclass
class Unit:
    """What one unit of a workload did and measured."""

    setup_s: float
    timed_s: float
    #: Host nanoseconds of each operation; for the fleet, each record's
    #: delivery time since the fleet started.
    latencies_ns: array
    attempted: int
    failed: int = 0
    #: What the failed operations raised, one line each.
    errors: List[str] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    #: Host-time details the traced run reports: build times, and for the
    #: fleet the wall time of its whole traced loop (``loop_s``).
    details: Dict[str, float] = field(default_factory=dict)
    #: Simulated seconds from attack onset to the first alarm, if any.
    detect_latency_s: Optional[float] = None


def _span(recorder: Optional[SpanRecorder], name: str):
    """A span of ``recorder``, or nothing when the unit is not traced."""
    return recorder.span(name) if recorder is not None else nullcontext()


def _replay(device, requests, recorder: Optional[SpanRecorder],
            end_time: float):
    """Submit each request, dismissing alarms; the golden replay loop.

    Returns (latencies, indices of requests after which the device was
    locked, simulated alarm times, errors of failed submits, host seconds).
    """
    latencies = array("q")
    lockdowns: List[int] = []
    alarms: List[float] = []
    errors: List[str] = []
    submit = device.submit
    clock = perf_counter_ns
    started = perf_counter()
    with _span(recorder, LOOP):
        for index, request in enumerate(requests):
            t0 = clock()
            try:
                submit(request)
            except Exception as exc:  # noqa: BLE001 - counted and reported
                errors.append(f"request {index}: {exc!r}")
            latencies.append(clock() - t0)
            if device.read_only:
                lockdowns.append(index)
                alarms.append(device.detector.alarm_event.time)
                device.dismiss_alarm()
        device.tick(end_time)
    return latencies, lockdowns, alarms, errors, perf_counter() - started


def device_view(device, log) -> Dict[str, object]:
    """What the device reports about the write path, for checks.check_write_path.

    ``resolved`` reads every LBA any logged write named through the FTL's
    public read (after the timed replay; these reads are not timed).
    """
    from repro.errors import UnmappedReadError

    ftl = device.ftl
    resolved = {}
    for lba in {lba for _t, start, length, is_write in log if is_write
                for lba in range(start, start + length)}:
        try:
            page = ftl.read(lba)
        except UnmappedReadError:
            resolved[lba] = None
        else:
            resolved[lba] = (page.lba, page.written_at)
    return {
        "dropped_writes": device.stats.dropped_writes,
        "host_writes": ftl.stats.host_writes,
        "gc_page_copies": ftl.stats.gc_page_copies,
        "nand_programs": device.nand.total_programs(),
        "mapped_count": ftl.mapping.mapped_count(),
        "resolved": resolved,
    }


def golden_unit(seed: int, index: int,
                recorder: Optional[SpanRecorder] = None,
                keep: Optional[list] = None,
                duration: float = GOLDEN_DURATION) -> Unit:
    """Golden scenario seed ``GOLDEN_SEED + index`` on a fresh small device.

    LBAs fold onto the device modulo ``num_lbas - longest request`` and
    then rotate by an offset drawn from ``(seed, index)``: a rotation keeps
    which requests overlap, so the work stays the same size for every
    seed while the addresses differ.
    """
    from repro import IORequest, SimulatedSSD, SSDConfig
    from repro.tools.profile import golden_scenario

    t0 = perf_counter()
    run = golden_scenario(duration=duration).build(seed=GOLDEN_SEED + index)
    t1 = perf_counter()
    device = SimulatedSSD(SSDConfig.small())
    t2 = perf_counter()
    fold = device.num_lbas - max(r.length for r in run.trace)
    offset = unit_seed(seed, "golden", index) % fold
    requests = [
        IORequest(time=r.time, lba=(r.lba % fold + offset) % fold,
                  mode=r.mode, length=r.length, source=r.source)
        for r in run.trace
    ]
    if recorder is not None:
        recorder.wrap_device(device)
    latencies, lockdowns, alarms, errors, replay_s = _replay(
        device, requests, recorder, run.duration)
    if recorder is not None:
        recorder.unwrap_all()
    log = [(r.time, r.lba, r.length, r.is_write) for r in requests]
    ftl, nand, detector = device.ftl, device.nand, device.detector
    stats = ftl.stats
    counters = {
        "requests": len(requests),
        "blocks_submitted": sum(r.length for r in requests),
        "alarms_dismissed": len(lockdowns),
        "dropped_writes": device.stats.dropped_writes,
        "host_writes": stats.host_writes,
        "host_reads": stats.host_reads,
        "gc_runs": stats.gc_runs,
        "gc_page_copies": stats.gc_page_copies,
        "gc_pinned_copies": stats.gc_pinned_copies,
        "gc_reclaimed_pages": stats.gc_runs * nand.geometry.pages_per_block
        - stats.gc_page_copies,
        "nand_programs": nand.total_programs(),
        "nand_erases": nand.total_erases(),
        "queue_evictions": ftl.queue.evictions,
        "queue_depth_peak": ftl.queue.depth_peak,
        "slices_closed": len(detector.events)
        - detector.fast_forwarded_slices,
        "slices_fast_forwarded": detector.fast_forwarded_slices,
        "nand_busy_sim_s": nand.busy_time,
    }
    view = device_view(device, log)
    problems = checks.check_write_path(log, lockdowns, view)
    problems += checks.check_slice_io(
        [(event.slice_index, event.features.io) for event in detector.events],
        checks.slice_blocks(log, detector.config.slice_duration))
    if keep is not None:
        keep.append(device)
    after_onset = [time - run.onset for time in alarms
                   if run.onset is not None and time >= run.onset]
    latency = after_onset[0] if after_onset else None
    return Unit(
        setup_s=t2 - t0, timed_s=replay_s, latencies_ns=latencies,
        attempted=len(requests), failed=len(errors), errors=errors,
        counters=counters,
        problems=[f"golden seed {index}: {p}" for p in problems],
        details={"scenario_build_s": t1 - t0, "device_build_s": t2 - t1},
        detect_latency_s=latency,
    )


def detector_unit(seed: int, index: int,
                  recorder: Optional[SpanRecorder] = None,
                  keep: Optional[list] = None,
                  num_requests: int = MIX_REQUESTS,
                  gap_seconds: float = MIX_GAP_SECONDS) -> Unit:
    """One synthetic mix through a bare detector built as the device builds it."""
    from repro import RansomwareDetector
    from repro.core.config import DetectorConfig
    from repro.tools.bench import synthesize_mix

    t0 = perf_counter()
    mix = synthesize_mix(num_requests, gap_seconds,
                         unit_seed(seed, "mix", index))
    t1 = perf_counter()
    detector = RansomwareDetector(config=DetectorConfig())
    t2 = perf_counter()
    if recorder is not None:
        for attr in ("observe", "tick"):
            recorder.wrap(detector, attr, f"core.detector.{attr}")
    latencies = array("q")
    errors: List[str] = []
    observe = detector.observe
    clock = perf_counter_ns
    duration = detector.config.slice_duration
    final_time = mix[-1].time + duration
    started = perf_counter()
    with _span(recorder, LOOP):
        for position, request in enumerate(mix):
            start = clock()
            try:
                observe(request)
            except Exception as exc:  # noqa: BLE001 - counted and reported
                errors.append(f"request {position}: {exc!r}")
            latencies.append(clock() - start)
        detector.tick(final_time)
    replay_s = perf_counter() - started
    if recorder is not None:
        recorder.unwrap_all()
    log = [(r.time, r.lba, r.length, r.is_write) for r in mix]
    forwarded = detector.fast_forwarded_slices
    closed = len(detector.events) - forwarded
    problems = checks.check_slice_counts(closed, forwarded, final_time,
                                         duration, gap_seconds)
    problems += checks.check_slice_io(
        [(event.slice_index, event.features.io) for event in detector.events],
        checks.slice_blocks(log, duration))
    onset = next((r.time for r in mix if r.source == "ransomware"), None)
    alarm = detector.alarm_event
    if keep is not None:
        keep.append(detector)
    return Unit(
        setup_s=t2 - t0, timed_s=replay_s, latencies_ns=latencies,
        attempted=len(mix), failed=len(errors), errors=errors,
        counters={
            "requests": len(mix),
            "blocks": sum(r.length for r in mix),
            "slices_closed": closed,
            "slices_fast_forwarded": forwarded,
            "alarm_slice": alarm.slice_index if alarm is not None else -1,
        },
        problems=[f"mix {index}: {p}" for p in problems],
        details={"scenario_build_s": t1 - t0, "device_build_s": t2 - t1},
        detect_latency_s=(alarm.time - onset
                          if alarm is not None and onset is not None
                          else None),
    )


#: The samples of ``RANSOMWARE_PROFILES`` in name order, fixed here so that
#: a sample added to the program does not silently change this workload.
DEFEND_SAMPLES = (
    "cryptoshield", "globeimposter", "inhouse-inplace", "inhouse-outplace",
    "jaff", "locky.bbs", "locky.bdf", "mole", "wannacry", "zerber.ufb",
)


def defend_unit(seed: int, index: int,
                recorder: Optional[SpanRecorder] = None,
                keep: Optional[list] = None,
                user_blocks: int = DEFEND_USER_BLOCKS) -> Unit:
    """One sample's full cycle: populate, attack to the alarm, recover, audit.

    Unit ``index`` attacks with sample ``index`` (the samples in name
    order), so a round of ten units covers every sample.  The seed sets the
    payload bytes and where on the device the data set starts.  The
    attack's own seed is the sample's index: how many requests run before
    the alarm sets most of the cycle's work, and a fixed attack keeps that
    the same for every seed.
    """
    from repro import SimulatedSSD, SSDConfig
    from repro.nand.geometry import NandGeometry
    from repro.workloads import LbaRegion, make_ransomware

    sample = DEFEND_SAMPLES[index]
    rng = random.Random(unit_seed(seed, "defend", index))
    payloads = [rng.randbytes(PAYLOAD_BYTES) for _ in range(user_blocks)]
    stamps = []
    now = 0.0
    for _ in range(user_blocks):
        now += DEFEND_WRITE_STEP
        stamps.append(now)
    onset = now + DEFEND_IDLE_GAP
    t0 = perf_counter()
    device = SimulatedSSD(SSDConfig(geometry=NandGeometry(**DEFEND_GEOMETRY),
                                    queue_capacity=DEFEND_QUEUE))
    t1 = perf_counter()
    base = rng.randrange(device.num_lbas - user_blocks)
    attack = make_ransomware(sample, LbaRegion(base, user_blocks),
                             start=onset, duration=DEFEND_ATTACK_SECONDS,
                             seed=index)
    t2 = perf_counter()
    if recorder is not None:
        recorder.wrap_device(device)
    latencies = array("q")
    clock = perf_counter_ns
    write, submit, read = device.write, device.submit, device.read
    errors: List[str] = []
    served = 0
    readback: Dict[int, bytes] = {}
    report = None
    latency = None
    started = perf_counter()
    with _span(recorder, LOOP):
        for offset, payload in enumerate(payloads):
            start = clock()
            write(base + offset, payload, now=stamps[offset])
            latencies.append(clock() - start)
        start = clock()
        device.tick(onset)
        latencies.append(clock() - start)
        for request in attack.requests():
            start = clock()
            try:
                submit(request)
            except Exception as exc:  # noqa: BLE001 - counted and reported
                errors.append(f"attack request {served}: {exc!r}")
            latencies.append(clock() - start)
            served += 1
            if device.alarm_raised:
                latency = device.clock.now - onset
                break
        if device.alarm_raised:
            start = clock()
            report = device.recover()
            latencies.append(clock() - start)
        for lba in range(base, base + user_blocks):
            start = clock()
            readback[lba] = read(lba)
            latencies.append(clock() - start)
    cycle_s = perf_counter() - started
    if recorder is not None:
        recorder.unwrap_all()
    queue = device.ftl.queue
    problems = checks.check_recovery(
        sample, latency is not None, dict(enumerate(payloads, start=base)),
        readback, queue.evictions)
    stats = device.ftl.stats
    counters = {
        "attack_requests": served,
        "dropped_writes": device.stats.dropped_writes,
        "host_writes": stats.host_writes,
        "host_reads": stats.host_reads,
        "gc_runs": stats.gc_runs,
        "gc_page_copies": stats.gc_page_copies,
        "nand_programs": device.nand.total_programs(),
        "nand_reads": sum(device.nand.chip(i).counters.reads
                          for i in range(device.nand.geometry.num_chips)),
        "nand_erases": device.nand.total_erases(),
        "nand_busy_sim_s": device.nand.busy_time,
        "queue_evictions": queue.evictions,
        "queue_depth_peak": queue.depth_peak,
        "rollback_entries_applied": (report.entries_applied
                                     if report is not None else 0),
        "rollback_lbas_restored": (report.lbas_restored
                                   if report is not None else 0),
        "rollback_lbas_unmapped": (report.lbas_unmapped
                                   if report is not None else 0),
    }
    if keep is not None:
        keep.append(device)
    return Unit(
        setup_s=t2 - t0, timed_s=cycle_s, latencies_ns=latencies,
        attempted=len(latencies), failed=len(errors),
        errors=[f"{sample}: {error}" for error in errors], counters=counters,
        problems=problems,
        details={"scenario_build_s": t2 - t1, "device_build_s": t1 - t0},
        detect_latency_s=latency,
    )


def fleet_unit(seed: int, index: int,
               recorder: Optional[SpanRecorder] = None,
               keep: Optional[list] = None,
               devices: int = FLEET_DEVICES,
               workers: Optional[int] = None) -> Unit:
    """One fleet run over the worker pool, its file, and two re-derivations.

    The plan is fixed, so every seed runs the same fleet; ``seed`` picks
    the devices the check re-derives in-process (every device, when
    traced).
    """
    from repro.fleet import FleetPlan, read_fleet_file, run_device, run_fleet
    from repro.fleet import orchestrator

    workers = workers or shards()
    t0 = perf_counter()
    plan = FleetPlan(devices=devices, seed=FLEET_PLAN_SEED)
    plan.validate()
    setup_s = perf_counter() - t0
    arrivals = array("q")
    loop_started = perf_counter()
    with _span(recorder, LOOP), \
            tempfile.TemporaryDirectory(prefix="perfbench-fleet-") as tmp:
        out = Path(tmp) / "fleet.rec"
        if recorder is not None:
            recorder.wrap(orchestrator, "write_fleet_file",
                          "fleet.record_codec")
        started_ns = perf_counter_ns()

        def delivered(_done, _total, _record) -> None:
            arrivals.append(perf_counter_ns() - started_ns)

        with _span(recorder, "fleet.run_fleet"):
            result = run_fleet(plan, shards=workers, out_path=out,
                               progress=delivered)
        wall = (perf_counter_ns() - started_ns) / 1e9
        if recorder is not None:
            recorder.unwrap_all()
        with _span(recorder, "fleet.record_codec"):
            header, file_records = read_fleet_file(out)
        records = result.records
        picker = random.Random(unit_seed(seed, "fleet", index))
        chosen = sorted(picker.sample(range(devices), FLEET_REDERIVED))
        if recorder is not None:
            # The traced run re-derives every device, to sum device time.
            chosen = list(range(devices))
        rederived = {}
        for i in chosen:
            with _span(recorder, "fleet.run_device"):
                rederived[i] = run_device(plan, plan.device_spec(i))[0]
    loop_s = perf_counter() - loop_started
    problems = checks.check_fleet(records, devices, rederived, header,
                                  file_records, plan.to_dict())
    failed = sum(1 for record in records if record.get("verdict") == "error")
    failed += devices - len(records)
    verdicts: Dict[str, int] = {}
    for record in records:
        verdict = str(record.get("verdict"))
        verdicts[verdict] = verdicts.get(verdict, 0) + 1
    counters = {
        "devices": len(records),
        "requests_replayed": sum(int(r["requests_replayed"])
                                 for r in records),
        "blocks_written": sum(int(r["blocks_written"]) for r in records),
        "blocks_read": sum(int(r["blocks_read"]) for r in records),
        "gc_runs": sum(int(r["gc_runs"]) for r in records),
        "gc_page_copies": sum(int(r["gc_page_copies"]) for r in records),
        "slices_closed": sum(int(r["slices_closed"]) for r in records),
        **{f"verdict_{name}": count for name, count in sorted(verdicts.items())},
    }
    latencies = [r["detection_latency"] for r in records
                 if r.get("verdict") == "true_alarm"]
    return Unit(
        setup_s=setup_s, timed_s=wall, latencies_ns=arrivals,
        attempted=devices, failed=failed, counters=counters,
        problems=[f"fleet {index}: {p}" for p in problems],
        details={"loop_s": loop_s},
        detect_latency_s=(statistics.median(latencies) if latencies
                          else None),
    )


class Workload(NamedTuple):
    """A workload: its unit, the inputs of one round, the modules it imports."""

    unit: Callable[..., Unit]
    inputs: int
    modules: Tuple[str, ...]


WORKLOADS: Dict[str, Workload] = {
    "golden-replay": Workload(golden_unit, GOLDEN_SEEDS,
                              ("repro", "repro.tools.profile")),
    "detector-trace": Workload(detector_unit, MIX_INPUTS,
                               ("repro", "repro.tools.bench")),
    "defend-recover": Workload(defend_unit, len(DEFEND_SAMPLES),
                               ("repro", "repro.workloads")),
    "fleet": Workload(fleet_unit, 1, ("repro", "repro.fleet")),
}
