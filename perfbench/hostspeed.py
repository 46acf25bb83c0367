"""How fast the host runs, read from a fixed reference kernel.

The benchmark's host is a shared VM whose CPU speed switches between
levels ~1.45x apart for seconds to tens of seconds at a time, so that a
run can spend all of its time at one level or the other. The benchmark
times its reference kernel between pieces of the work (set-ups, epochs,
requests, gradient checks, and within long ones after the first step or
probe that ends READ_EVERY_S after the last reading), and reports the
time of the work between two readings scaled to the host speed at which
the kernel takes NOMINAL_S. The kernel belongs to the
benchmark, not to fuselab, and mixes what fuselab's hot paths do: dict
and integer work in the interpreter and small numpy matrix products and
ufuncs.
"""

from __future__ import annotations

import bisect
import gc
import time
from typing import List, Tuple

import numpy as np

NOMINAL_S = 0.002
READ_EVERY_S = 0.5

_MATRIX = np.random.default_rng(0).normal(size=(8, 8))


def reference() -> float:
    """Seconds the reference kernel takes now. The cyclic collector is off
    meanwhile: a collection of the program's objects is not host speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        counts = {}
        for i in range(6000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        a = np.ones((4, 8))
        for _ in range(200):
            a = np.tanh(a @ _MATRIX * 0.1 + 0.1)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Timeline:
    """The readings of one run, and the time of any stretch of it scaled
    to the nominal host speed.

    Between two consecutive readings lies a segment of work, scaled by
    NOMINAL_S over the mean of the two readings. A stretch's scaled time
    sums the parts of the segments it covers, so the readings inside it
    count for nothing. While paused (a traced unit, where a reading would
    land in the spans around it) no readings are taken and stretches read
    as measured."""

    def __init__(self):
        self.readings: List[Tuple[float, float, float]] = []   # (begin, end, seconds)
        self._ends: List[float] = []
        self.paused = False

    def read(self) -> None:
        if self.paused:
            return
        begin = time.perf_counter()
        seconds = reference()
        end = time.perf_counter()
        self.readings.append((begin, end, seconds))
        self._ends.append(end)

    def read_if_due(self) -> None:
        """Read when READ_EVERY_S has passed since the last reading."""
        if not self._ends or time.perf_counter() - self._ends[-1] >= READ_EVERY_S:
            self.read()

    def _segments(self, t0: float, t1: float):
        """(overlap seconds, scale) of each segment that [t0, t1] covers."""
        if self.paused:
            return [(t1 - t0, 1.0)]
        i = bisect.bisect_right(self._ends, t0) - 1
        if i < 0 or i + 1 >= len(self.readings) or self.readings[-1][0] < t1:
            raise RuntimeError("perfbench: a timed stretch lacks a host speed "
                               "reading before or after it")
        out = []
        while i + 1 < len(self.readings):
            (_, end0, r0), (begin1, _, r1) = self.readings[i], self.readings[i + 1]
            if end0 >= t1:
                break
            overlap = min(t1, begin1) - max(t0, end0)
            if overlap > 0:
                out.append((overlap, NOMINAL_S / ((r0 + r1) / 2)))
            i += 1
        return out

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds [t0, t1] would take at the nominal host speed, readings
        left out."""
        return sum(s * k for s, k in self._segments(t0, t1))

    def unread(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] as measured, readings left out."""
        return sum(s for s, _ in self._segments(t0, t1))

