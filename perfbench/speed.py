"""Timings rescaled to a reference machine speed.

The shared 2-core machine this benchmark was built on changes speed by up to
+-25% over seconds: the same `selftest` report took 0.28 s to 0.50 s within
one minute.  A `Speedometer` therefore samples the current speed every
SAMPLE_PERIOD_S, from a SIGALRM handler that times a fixed small mix of
integer, 2x2-matrix and object work (no hypcone code).  A timing, less the
time spent sampling inside it, is multiplied by REFERENCE_S over the mean
sample taken within WINDOW_S of it: the time the same work takes when the
mix takes REFERENCE_S, its usual time on that machine.  A change to the
program moves the rescaled time as it moves wall time.
"""

from __future__ import annotations

import contextlib
import math
import signal
import statistics
import time

import numpy as np

SAMPLE_PERIOD_S = 0.02
WINDOW_S = 0.5
REFERENCE_S = 0.0005
ROTATION = np.array([[0.6, -0.8], [0.8, 0.6]])


def speed_sample() -> float:
    """Seconds a fixed small mix of work takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(4_000):
        total += i * i
    m = ROTATION
    for _ in range(120):
        m = m @ ROTATION
    table = {}
    for i in range(800):
        table[i % 97] = (math.sinh(i * 1e-4), [i])
    return time.perf_counter() - start


class Speedometer:
    """Speed samples as (start, seconds), taken on demand and, inside
    `running()`, every SAMPLE_PERIOD_S of wall time."""

    def __init__(self):
        self.samples: list = []

    def sample(self, *_):
        self.samples.append((time.perf_counter(), speed_sample()))

    def sampling_time(self, start: float, end: float) -> float:
        """Seconds spent sampling from `start` to `end`; a handler runs to
        completion between two bytecodes, so no sample straddles either."""
        return sum(d for t, d in self.samples if start <= t < end)

    def scale(self) -> float:
        """REFERENCE_S over the mean sample."""
        return REFERENCE_S / statistics.fmean(d for _, d in self.samples)

    def at_reference(self, start: float, end: float) -> float:
        """Seconds from `start` to `end`, less sampling, at reference speed."""
        near = [d for t, d in self.samples if start - WINDOW_S <= t < end + WINDOW_S]
        speed = statistics.fmean(near) if near else statistics.fmean(
            d for _, d in self.samples)
        return (end - start - self.sampling_time(start, end)) * REFERENCE_S / speed

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
