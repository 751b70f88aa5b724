"""A CPU clock that reads in seconds of a core running at reference speed.

The cores of a shared host change speed by half or more for seconds at a
time, in CPU time too, because other tenants share the physical core (seen
on a 2-core Intel Xeon VM: 30 repeats of one verdict within a minute spread
by a factor of 1.9 in CPU time, IQR 46% of the median, and by 1.14 in the
time this clock gives, IQR 2%).  ``SpeedClock`` measures that speed as it goes:
a profiling timer interrupts the work every ``PERIOD_S`` CPU seconds, and
the handler times one fixed reference chunk of pure-Python work, with the
garbage collector paused, on the thread's CPU clock.  The CPU time of the
work since the previous sample is scaled by ``NOMINAL_S`` over that
previous chunk's time.  So ``now()`` advances by the seconds the work would
take on a core that runs the chunk in ``NOMINAL_S``, and the chunks' own
time is left out.

The chunk does what the package does most: Fraction arithmetic accumulated
in a dict keyed by small tuples.  It lives here, outside the package, so
that a change to the package never changes the yardstick.

The thread CPU clock is used, not the process one: while a process-wide CPU
timer is armed, the process clock advances in whole scheduler ticks.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

NOMINAL_S = 0.001    # one chunk's CPU time on the reference core
PERIOD_S = 0.02      # CPU seconds of work between two samples


def reference_chunk() -> int:
    acc: dict[tuple, Fraction] = {}
    for i in range(40):
        for j in range(6):
            key = (i % 13, j, (i * j) % 5)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(i + 1, j + 2) * Fraction(3, 7)
    return len(acc)


def chunk_seconds() -> float:
    """Thread CPU seconds of one reference chunk, the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.thread_time()
    reference_chunk()
    t1 = time.thread_time()
    if enabled:
        gc.enable()
    return t1 - t0


class SpeedClock:
    """Reference-speed seconds of this thread's work since ``start``."""

    def __init__(self):
        # (reference seconds up to mark, thread CPU time of mark, scale);
        # replaced whole, so a reader never sees half an update
        self._state = (0.0, time.thread_time(), 1.0)
        self._busy = False
        self.samples = 0

    def sample(self, *_signal_args) -> None:
        if self._busy:    # a timer signal that arrives during a sample
            return
        self._busy = True
        try:
            ref, mark, scale = self._state
            t0 = time.thread_time()
            chunk = chunk_seconds()
            self._state = (ref + (t0 - mark) * scale, time.thread_time(), NOMINAL_S / chunk)
            self.samples += 1
        finally:
            self._busy = False

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def now(self) -> float:
        while True:
            state = self._state
            t = time.thread_time()
            if state is self._state:
                ref, mark, scale = state
                return ref + (t - mark) * scale
