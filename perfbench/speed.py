"""Machine-speed reference, measured alongside the workload.

On a shared host the same CPU-bound Python code can run at speeds that differ
by 40% from one stretch of seconds or minutes to the next, and the speed moves
within a second.  A run cannot average that away, so the benchmark times a
fixed reference computation between operations, every INTERVAL_S, and scales
every time it reports to the speed at which the reference takes NOMINAL_MS:

    reported = measured * NOMINAL_MS / (reference time around the operation)

The reference is pure-Python fraction arithmetic with dict accumulation, like
the engine's inner loops, and lives here so that no change to the program can
move it.  run.py keeps the benchmark and its children on one CPU so that the
reference runs where the measured work runs; a set-up probe times the
reference in its own process.  The raw times go into the run record.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction
from typing import List

# What the reference takes with CPython 3.11 on a quiet 2-vCPU x86-64 VM.
NOMINAL_MS = 16.0
INTERVAL_S = 0.25
# Inside an operation too long to sample between, one sample per CPU second.
PROF_INTERVAL_S = 1.0
# Reference samples taken within this many seconds of an operation set its
# scale.  On a 2-vCPU shared host the ratio of an operation's time to the
# reference time around it varied 4% from one 2-second stretch to the next
# with samples close by, against 15% for the operation time itself.
WINDOW_S = 0.5


def reference() -> dict:
    acc = {}
    for i in range(6000):
        key = (i % 7, i % 5, i % 3)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 11 - 5, i % 13 + 1)
    return acc


def reference_s() -> float:
    """Fastest of three warm reference runs, for a process that measures
    itself once (the set-up probe)."""
    reference()
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reference()
        times.append(time.perf_counter() - start)
    return min(times)


class Speed:
    def __init__(self):
        self.starts: List[float] = []
        self.ends: List[float] = []
        self._busy = False
        reference()         # the first call runs before the interpreter has specialised

    def sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            reference()
            self.starts.append(start)
            self.ends.append(time.perf_counter())
        finally:
            self._busy = False

    def maybe_sample(self) -> None:
        """Sample if INTERVAL_S has passed since the last sample."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= INTERVAL_S:
            self.sample()

    @contextmanager
    def sampling_during(self):
        """Sample about once a CPU second from a SIGPROF handler, for
        operations too long to sample between."""
        previous = signal.signal(signal.SIGPROF, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_PROF, PROF_INTERVAL_S, PROF_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    def stolen(self, start: float, end: float) -> float:
        """Seconds of reference samples taken inside [start, end]."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        return sum(min(self.ends[i], end) - self.starts[i] for i in range(lo, hi))

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_MS over the mean reference time near [start, end].

        The mean, not the median: such a host switches between a fast and a
        slow state, and an operation's time follows the share of time spent
        in each, which the median of the samples does not see.  Over six
        verify passes the median left a spread of 23% and the mean 4%.
        """
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if lo == hi:
            nearest = min(range(len(self.starts)),
                          key=lambda i: abs(self.starts[i] - (start + end) / 2))
            lo, hi = nearest, nearest + 1
        durations = [self.ends[i] - self.starts[i] for i in range(lo, hi)]
        return NOMINAL_MS / 1e3 / statistics.mean(durations)

    def normalise(self, start: float, end: float) -> float:
        """The operation's time, less reference samples inside it, scaled."""
        return (end - start - self.stolen(start, end)) * self.scale(start, end)

    def summary(self) -> dict:
        durations = [(e - s) * 1e3 for s, e in zip(self.starts, self.ends)]
        return {"samples": len(durations),
                "reference_ms_median": statistics.median(durations) if durations else None,
                "reference_ms_min": min(durations, default=None),
                "reference_ms_max": max(durations, default=None)}
