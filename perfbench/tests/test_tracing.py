"""Self time is span time minus direct children; wrappers come off cleanly."""

from __future__ import annotations

import time

from perfbench.tracing import LOOP, SpanRecorder, layer_table


class Layer:
    def __init__(self, inner=None):
        self.inner = inner

    def work(self, seconds):
        time.sleep(seconds)
        if self.inner is not None:
            self.inner.work(seconds)
        return seconds


def test_self_time_subtracts_children():
    inner, outer = Layer(), None
    outer = Layer(inner)
    recorder = SpanRecorder()
    recorder.wrap(outer, "work", "outer")
    recorder.wrap(inner, "work", "inner")
    with recorder.span(LOOP):
        assert outer.work(0.01) == 0.01
    table = layer_table(recorder)
    assert table["outer"]["calls"] == table["inner"]["calls"] == 1
    assert table["outer"]["inclusive_s"] >= 0.02
    assert 0.009 < table["outer"]["self_s"] < 0.019
    total_self = sum(row["self_s"] for row in table.values())
    assert abs(total_self - table[LOOP]["inclusive_s"]) < 1e-9
    recorder.unwrap_all()
    assert "work" not in vars(outer) and "work" not in vars(inner)


def test_device_wrappers_come_off(tmp_path):
    from repro import SSDConfig, SimulatedSSD

    device = SimulatedSSD(SSDConfig.small())
    recorder = SpanRecorder()
    recorder.wrap_device(device)
    device.write(5, b"x", now=1.0)
    assert device.read(5) == b"x"
    table = layer_table(recorder)
    assert table["ssd.write"]["calls"] == 1
    assert table["nand.program"]["calls"] == 1
    assert table["ftl.mapping"]["calls"] >= 2
    recorder.unwrap_all()
    assert "write" not in vars(device) and "program" not in vars(device.nand)
    recorder.write(tmp_path / "spans.npz")
    assert (tmp_path / "spans.npz").stat().st_size > 0
