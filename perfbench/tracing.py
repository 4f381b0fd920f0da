"""Spans recorded from outside the program, by wrapping layer objects.

A traced run installs a wrapper over each public method named in
:data:`DEVICE_LAYERS` on the live layer objects of a device, after the
device is built.  The wrapper is an instance attribute, so the class and
every other instance stay untouched.  Each call records one span (name,
start, end, parent) into flat arrays held in memory; :func:`layer_table`
turns them into per-layer call counts, inclusive time and self time, where
self time is a span's duration minus the part its direct child spans
cover.

Work the program reaches through a reference it bound at construction or
inline is not a call on the layer object, so no wrapper sees it and its
time lands in the caller's self time (README.md lists those paths).
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Dict, Iterator, List, Tuple

import numpy as np

#: (attribute path from the device, {method: span name}) for every layer
#: object of a :class:`repro.ssd.device.SimulatedSSD`.
DEVICE_LAYERS: Tuple[Tuple[str, Dict[str, str]], ...] = (
    ("", {
        "submit": "ssd.submit",
        "write": "ssd.write",
        "read": "ssd.read",
        "recover": "ssd.recover",
        "tick": "ssd.tick",
        "dismiss_alarm": "ssd.dismiss_alarm",
    }),
    ("detector", {
        "observe": "core.detector.observe",
        "tick": "core.detector.tick",
    }),
    ("ftl", {
        "write": "ftl.write",
        "write_span": "ftl.write",
        "read": "ftl.read",
        "trim": "ftl.trim",
        "collect_garbage": "ftl.collect_garbage",
        "rollback": "ftl.rollback",
    }),
    ("ftl.victim_index", {"select": "ftl.victim_index.select"}),
    ("ftl.queue", {
        name: "ftl.recovery_queue"
        for name in ("push", "log", "expire", "repin", "drain", "is_pinned")
    }),
    ("ftl.mapping", {
        name: "ftl.mapping"
        for name in ("lookup", "update", "update_unchecked", "unmap",
                     "lba_of", "translate_many", "mapped_count", "is_mapped")
    }),
    ("nand", {
        "program": "nand.program",
        "program_many": "nand.program",
        "erase": "nand.erase",
        "invalidate": "nand.invalidate",
        "invalidate_many": "nand.invalidate",
        "read": "nand.read",
        "revalidate": "nand.revalidate",
        "page_state": "nand.page_state",
    }),
)

#: Span name of the benchmark's own loop around each timed replay.
LOOP = "bench.loop"


class SpanRecorder:
    """Flat in-memory span store: name id, parent index, start, end (ns)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: List[int] = []
        #: (object, attribute, value to restore or None to delete).
        self._installed: List[Tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def intern(self, name: str) -> int:
        """The id of ``name``, allocated on first use."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the ``with`` body (used for the loop)."""
        index = self._open(self.intern(name))
        try:
            yield
        finally:
            self._stack.pop()
            self.end[index] = perf_counter_ns()

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(perf_counter_ns())
        self.end.append(0)
        self._stack.append(index)
        return index

    def wrap(self, obj: object, attr: str, name: str) -> None:
        """Shadow ``obj.attr`` with a span-recording wrapper.

        On an instance the wrapper is an instance attribute over the class
        method; on a module it replaces the function until
        :meth:`unwrap_all` puts the original back.
        """
        inner = getattr(obj, attr)
        own = vars(obj).get(attr)
        name_id = self.intern(name)
        name_ids, parents = self.name_id, self.parent
        starts, ends, stack = self.start, self.end, self._stack
        clock = perf_counter_ns

        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(clock())
            ends.append(0)
            stack.append(index)
            try:
                return inner(*args, **kwargs)
            finally:
                stack.pop()
                ends[index] = clock()

        setattr(obj, attr, traced)
        self._installed.append((obj, attr, own))

    def wrap_device(self, device: object) -> None:
        """Wrap every method of :data:`DEVICE_LAYERS` present on ``device``."""
        for path, methods in DEVICE_LAYERS:
            target = device
            for part in filter(None, path.split(".")):
                target = getattr(target, part)
            if target is None:
                continue
            for attr, name in methods.items():
                if hasattr(target, attr):
                    self.wrap(target, attr, name)

    def unwrap_all(self) -> None:
        """Remove every wrapper this recorder installed."""
        for obj, attr, own in reversed(self._installed):
            if own is None:
                delattr(obj, attr)
            else:
                setattr(obj, attr, own)
        self._installed.clear()

    def arrays(self) -> Dict[str, np.ndarray]:
        """The spans as numpy arrays (start/end in ns, parent -1 at roots)."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def write(self, path: Path) -> None:
        """Write the spans and their name table to a compressed ``.npz``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def layer_table(recorder: SpanRecorder) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``inclusive_s`` and ``self_s``.

    Self time is each span's duration minus the summed duration of its
    direct children, so the self times of all spans add up to the
    duration of the root spans.
    """
    if not len(recorder):
        return {}
    spans = recorder.arrays()
    duration = (spans["end_ns"] - spans["start_ns"]).astype(np.float64)
    parent = spans["parent"]
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested],
                          minlength=len(duration))
    own = duration - covered
    names = spans["name_id"]
    count = len(recorder.names)
    calls = np.bincount(names, minlength=count)
    inclusive = np.bincount(names, weights=duration, minlength=count)
    self_time = np.bincount(names, weights=own, minlength=count)
    return {
        name: {
            "calls": int(calls[index]),
            "inclusive_s": float(inclusive[index]) / 1e9,
            "self_s": float(self_time[index]) / 1e9,
        }
        for index, name in enumerate(recorder.names)
    }
