"""Host fingerprint and the calibration kernel.

The kernel is a fixed pure-Python loop that shares no code with the
program: list and dict traffic over a 64k-entry table.  Its time moves only
with the host (CPU speed, contention from other tenants on the same
machine), never with a change to the program.  The measuring process runs
it :data:`SAMPLES` times before every unit.  On a shared host, other
tenants slow this process in stretches of a tenth of a second to tens of
seconds, and the kernel slows with the program.  The end-to-end replay
times are therefore put on a reference speed: multiplied by
:data:`REFERENCE_S` over the run's mean kernel time (:func:`host_scale`).
"""

from __future__ import annotations

import os
import platform
import statistics
from time import perf_counter
from typing import Dict, Iterable

#: Table size and steps of the calibration kernel.
_TABLE = 1 << 16
_STEPS = 1 << 14

#: Kernel runs before every unit.
SAMPLES = 5

#: Kernel seconds at the reference host speed, near what the kernel takes
#: on the host README.md describes when other tenants leave it alone.
REFERENCE_S = 0.005


def _kernel() -> int:
    table = [0] * _TABLE
    counts: Dict[int, int] = {}
    index = 12345
    for step in range(_STEPS):
        index = (index * 1103515245 + 12345) & (_TABLE - 1)
        table[index] += step
        key = table[index] & 1023
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


def kernel_seconds() -> float:
    """Host seconds of one calibration kernel run."""
    started = perf_counter()
    _kernel()
    return perf_counter() - started


def host_scale(kernel_s: Iterable[float]) -> float:
    """Factor that puts host times measured alongside ``kernel_s`` on the
    reference host speed."""
    return REFERENCE_S / statistics.fmean(kernel_s)


def calibration_seconds(repeats: int = 5) -> float:
    """Median host seconds of one calibration kernel run."""
    return statistics.median(kernel_seconds() for _ in range(repeats))


def fingerprint() -> Dict[str, object]:
    """CPU model, usable cores, Python and numpy versions."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "cpu_model": model,
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
