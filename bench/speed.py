"""Machine-speed calibration interleaved with the measured work.

On a shared VM the speed of the same pure-Python work drifts by +-25% over
seconds to minutes, which no run length averages away.  A fixed reference
workload that never touches chordcubic is timed between requests, and each
measured time is scaled by ``REFERENCE_S / calibration`` with the
calibrations taken around it.  A change to chordcubic moves the scaled
time fully; a slow or fast moment of the machine moves both together.
The speed also changes within a request of a few seconds, so while a
request runs a SIGALRM timer calibrates every TICK_S (no thread is
started); the time spent in those calibrations is taken out of the
request's time.
The reference mixes the kinds of work the program does - exact rationals,
dicts and JSON, and a plain-integer group law - because a mix tracks the
program's slowdowns better than any one of them.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import signal
import statistics
import time
from fractions import Fraction

import oracle

# Median calibration time between requests on the 2-vCPU Intel Xeon VM the
# bounds were set on, so scaled times are seconds at its typical speed.
REFERENCE_S = 0.0025
EVERY_S = 0.05
TICK_S = 0.1
WINDOW_S = 0.25
# After a long request, calibrate for this share of the time since the last
# sample, so that a sample standing for seconds of work is a median of many.
SHARE = 0.01

_A, _B, _P = -3, 2, 10007
_START = (3, pow(6, (_P + 1) // 4, _P))  # 3^3 - 3*3^2 + 2*3 = 6, a square mod p


def calibrate() -> float:
    """Seconds for a fixed reference workload built from the oracle."""
    started = time.perf_counter()
    for k in range(1, 7):
        a, b = Fraction(k - 4, k + 2), Fraction(3 * k + 1, 5)
        json.dumps(dict(oracle.cubic_table(a, b)))
        oracle.cubic_invariants(a, b)
        oracle.chord_line(a, b, (Fraction(k, 3), Fraction(2, k)))
    acc = None
    for _ in range(800):
        acc = oracle._add(acc, _START, _A, _B, _P)
    return time.perf_counter() - started


class SpeedProbe:
    """Timestamped calibration samples and the scale factor around a span of time."""

    def __init__(self):
        self.times = []
        self.samples = []
        self.paused = 0.0  # seconds spent calibrating inside ``ticking``

    @contextlib.contextmanager
    def ticking(self):
        """Calibrate every TICK_S while the body runs; the time taken adds to ``paused``."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _tick(self, signum, frame):
        started = time.perf_counter()
        self.samples.append(calibrate())
        self.times.append(started)
        self.paused += time.perf_counter() - started

    def sample(self, every: float = EVERY_S):
        """Calibrate unless the last sample is more recent than ``every`` seconds."""
        now = time.perf_counter()
        gap = now - self.times[-1] if self.times else 0.0
        if self.times and gap < every:
            return
        runs = [calibrate()]
        while sum(runs) < SHARE * gap:
            runs.append(calibrate())
        self.samples.append(statistics.median(runs))
        self.times.append(now)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median calibration within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        return REFERENCE_S / statistics.median(self.samples[lo:hi])
