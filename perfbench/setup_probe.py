"""One ``setup_s`` sample: run as a fresh interpreter, prints the
reference-speed CPU seconds from its start to ``gaugelab.cli`` imported.

    PYTHONPATH=src python3 perfbench/setup_probe.py

The process CPU clock starts at zero in a new process and counts the
interpreter's own start-up.  Reference chunks timed just before and after
the import give the core's speed (speedclock.py); their own time is left
out.
"""

import time

import speedclock

CHUNKS = 3   # before the import, and again after it

before = [speedclock.chunk_seconds() for _ in range(CHUNKS)]
import gaugelab.cli  # noqa: E402,F401  (the import is what is timed)
cpu = time.process_time() - sum(before)
chunks = sorted(before + [speedclock.chunk_seconds() for _ in range(CHUNKS)])
speed = (chunks[CHUNKS - 1] + chunks[CHUNKS]) / 2   # their median
print(cpu * speedclock.NOMINAL_S / speed)
