"""Machine-speed calibration interleaved with the measured work.

The speed of a small shared machine drifts by a quarter and more, over
seconds and over minutes, and the drift slows every computation alike.  A
Calibrator interrupts the process every PERIOD_S of wall time (SIGALRM)
and runs a fixed slice of pure-Python work.  The mean time of the slices that ran during a
span of work, over REFERENCE_SLICE_S, is the slowdown of the machine
during that span; the span's time divided by it is in seconds at the
reference speed.  `clock_ns`
leaves out the time spent in slices, so the work is timed without them.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.033
SLICE_ITERATIONS = 20_000
# a slice's time on an unloaded 2.1 GHz core of the machine the benchmark
# was defined on; only ratios between runs matter
REFERENCE_SLICE_S = 0.0033
# a span shorter than this many slices takes the whole unit's slowdown
MIN_SLICES = 10


def calibration_slice():
    """Seconds for a fixed pure-Python loop."""
    t0 = time.perf_counter()
    table = {}
    acc = 0
    for i in range(SLICE_ITERATIONS):
        acc += (i * i) & 7
        table[i & 1023] = acc
    return time.perf_counter() - t0


class Calibrator:
    """Runs calibration slices from a timer signal between start and stop."""

    def __init__(self):
        self.slices = []
        self.stolen_ns = 0
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, _signum, _frame):
        if self._busy:  # a tick that arrives during a slice is dropped
            return
        self._busy = True
        t0 = time.perf_counter_ns()
        self.slices.append(calibration_slice())
        self.stolen_ns += time.perf_counter_ns() - t0
        self._busy = False

    def clock_ns(self):
        """perf_counter_ns without the time spent in slices."""
        return time.perf_counter_ns() - self.stolen_ns

    def slowdown(self, first=0, last=None):
        """Slowdown over the slices from index first to last, or over all
        slices when fewer than MIN_SLICES fell in that span."""
        chosen = self.slices[first:last]
        if len(chosen) < MIN_SLICES:
            chosen = self.slices or [calibration_slice()]
        return sum(chosen) / len(chosen) / REFERENCE_SLICE_S
