"""One fleet unit whose pool workers are SIGKILLed while they run.

A dead pool worker leaves ``run_fleet`` waiting forever, so this script
does not end by itself.  ``test_safety`` runs it under
``perfbench.run.supervise`` and expects the fleet unit to be reported as a
failed operation at the wall limit.  The code sits under the ``__main__``
guard, because the fleet's ``spawn`` workers import this file.
"""

import multiprocessing
import os
import signal
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def kill_pool_workers() -> None:
    """SIGKILL the pool workers once they have run for a moment.

    Each then holds a device it will never deliver.
    """
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if multiprocessing.active_children():
            time.sleep(1.0)
            for worker in multiprocessing.active_children():
                os.kill(worker.pid, signal.SIGKILL)
            return
        time.sleep(0.05)


def main() -> None:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.run import OP
    from perfbench.workloads import fleet_unit

    threading.Thread(target=kill_pool_workers, daemon=True).start()
    print(f"{OP}fleet_unit unit 0 (input 0)", flush=True)
    fleet_unit(1, 0)


if __name__ == "__main__":
    main()
