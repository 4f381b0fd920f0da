"""Each correctness check passes on real output and fails on a corrupted one."""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

import pytest

from perfbench import checks, workloads


def _golden_view():
    """A short golden replay: the request log, lockdowns and device view."""
    from repro import IORequest, SimulatedSSD, SSDConfig
    from repro.tools.profile import golden_scenario

    run = golden_scenario(duration=25.0).build(seed=3)
    device = SimulatedSSD(SSDConfig.small())
    requests = [IORequest(time=r.time,
                          lba=r.lba % (device.num_lbas - r.length),
                          mode=r.mode, length=r.length)
                for r in run.trace]
    _lat, lockdowns, _alarms, errors, _s = workloads._replay(
        device, requests, None, run.duration)
    assert errors == []
    log = [(r.time, r.lba, r.length, r.is_write) for r in requests]
    return device, log, lockdowns, workloads.device_view(device, log)


@pytest.fixture(scope="module")
def golden():
    return _golden_view()


def test_write_path_passes_on_real_output(golden):
    device, log, lockdowns, view = golden
    assert lockdowns, "the replay should raise at least one alarm"
    assert view["dropped_writes"] > 0
    assert checks.check_write_path(log, lockdowns, view) == []


def test_shifted_write_time_fails(golden):
    _device, log, lockdowns, view = golden
    lba = next(lba for lba, page in view["resolved"].items() if page)
    oob_lba, written_at = view["resolved"][lba]
    corrupt = dict(view, resolved={**view["resolved"],
                                   lba: (oob_lba, written_at + 1e-6)})
    problems = checks.check_write_path(log, lockdowns, corrupt)
    assert any("wrong page" in p for p in problems)


@pytest.mark.parametrize("field", ["dropped_writes", "host_writes",
                                   "nand_programs", "mapped_count"])
def test_off_by_one_device_counter_fails(golden, field):
    _device, log, lockdowns, view = golden
    corrupt = dict(view, **{field: view[field] + 1})
    assert checks.check_write_path(log, lockdowns, corrupt)


def test_missed_lockdown_fails(golden):
    _device, log, lockdowns, view = golden
    assert checks.check_write_path(log, lockdowns[1:], view)


def test_slice_io_passes_and_fails_on_off_by_one(golden):
    device, log, _lockdowns, _view = golden
    events = [(e.slice_index, e.features.io) for e in device.detector.events]
    counts = checks.slice_blocks(log, device.detector.config.slice_duration)
    assert checks.check_slice_io(events, counts) == []
    busy = next(i for i, (_index, io) in enumerate(events) if io)
    index, io = events[busy]
    shifted = events[:busy] + [(index, io + 1)] + events[busy + 1:]
    assert checks.check_slice_io(shifted, counts)
    assert checks.check_slice_io(events[:busy] + events[busy + 1:], counts)


def test_detector_io_feature_corruption_is_caught():
    """A detector whose IO feature is off by one fails the mix unit."""
    from repro.core import detector as detector_module

    real = detector_module.compute_features

    def off_by_one(table, window):
        features = real(table, window)
        if features.io:
            return replace(features, io=features.io + 1)
        return features

    with mock.patch.object(detector_module, "compute_features", off_by_one):
        unit = workloads.detector_unit(1, 0, num_requests=4000,
                                       gap_seconds=100.0)
    assert any("IO feature" in p for p in unit.problems)


def test_slice_counts():
    assert checks.check_slice_counts(23, 97, 120.5, 1.0, 100.0) == []
    assert checks.check_slice_counts(24, 97, 120.5, 1.0, 100.0)
    assert checks.check_slice_counts(22, 97, 120.5, 1.0, 100.0)
    assert checks.check_slice_counts(20, 101, 121.5, 1.0, 100.0)


def test_flipped_payload_byte_after_recovery_fails():
    """One flipped byte in one block read back after recover() is caught."""
    from repro.ssd.device import SimulatedSSD

    real_read = SimulatedSSD.read
    flipped = []

    def flipping_read(self, lba, now=None):
        data = real_read(self, lba, now)
        if not flipped:
            flipped.append(lba)
            data = bytes([data[0] ^ 0x01]) + data[1:]
        return data

    clean = workloads.defend_unit(5, 8)
    assert clean.problems == []
    with mock.patch.object(SimulatedSSD, "read", flipping_read):
        unit = workloads.defend_unit(5, 8)
    assert len(unit.problems) == 1 and "bit-exact" in unit.problems[0]
    assert f"[{flipped[0]}]" in unit.problems[0]


def test_recovery_check_flags_missed_alarm_and_evictions():
    data = {0: b"a", 1: b"b"}
    assert checks.check_recovery("x", True, data, dict(data), 0) == []
    assert checks.check_recovery("x", False, data, dict(data), 0)
    assert checks.check_recovery("x", True, data, dict(data), 3)


@pytest.fixture(scope="module")
def fleet_run():
    from repro.fleet import FleetPlan, read_fleet_file, run_device, run_fleet

    plan = FleetPlan(devices=4, seed=0)
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "fleet.rec"
        result = run_fleet(plan, shards=2, out_path=out)
        header, file_records = read_fleet_file(out)
    rederived = {i: run_device(plan, plan.device_spec(i))[0] for i in (0, 3)}
    return plan, result.records, rederived, header, file_records


def test_fleet_check_passes_on_real_output(fleet_run):
    plan, records, rederived, header, file_records = fleet_run
    assert checks.check_fleet(records, 4, rederived, header, file_records,
                              plan.to_dict()) == []


def test_altered_fleet_record_fails(fleet_run):
    plan, records, rederived, header, file_records = fleet_run
    altered = [dict(r) for r in file_records]
    altered[2]["gc_runs"] += 1
    assert checks.check_fleet(records, 4, rederived, header, altered,
                              plan.to_dict())
    bad_rederived = {**rederived, 3: dict(rederived[3], slices_closed=-1)}
    assert checks.check_fleet(records, 4, bad_rederived, header,
                              file_records, plan.to_dict())
    swapped = [records[1], records[0], *records[2:]]
    assert checks.check_fleet(swapped, 4, rederived, header, file_records,
                              plan.to_dict())
    errored = [dict(records[0], verdict="error"), *records[1:]]
    assert checks.check_fleet(errored, 4, rederived, header, file_records,
                              plan.to_dict())
