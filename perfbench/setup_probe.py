"""Time the set-up of one workload in this fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed> <smoke: 0 or 1>

Set-up is importing ``diffrelay`` and building the workload's config and
plans; calibration is not part of it.  Prints the seconds as its last line.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workload = workloads.make(sys.argv[1], int(sys.argv[2]), smoke=sys.argv[3] == "1")
workload.setup()
print(repr(time.perf_counter() - START))
