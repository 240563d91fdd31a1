"""Wall time at the host's usual speed.

The benchmark host is shared: the same code runs up to about 1.6 times
slower for seconds at a time while neighbours load the core, and a run's
figures follow the host, not the program. A ``HostClock`` times a call and
also times a fixed reference kernel, which mixes scalar Python and small
numpy arrays as the program does, at both ends of the call and, for
in-process calls, every ``SAMPLE_S`` of wall time during it. The call's
wall time is scaled by ``REF_S`` over the mean reference time: it reads as
it would on the host at its usual speed. The kernel is fixed benchmark
code, so a change to the program moves the scaled time as it moves the
wall time.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# the reference kernel's time at the usual speed of a 2-vCPU Intel Xeon VM
# at 2.1 GHz (Python 3.11, numpy 2.4)
REF_S = 7.0e-4
REF_REPEATS = 3
SAMPLE_S = 0.1
_REF_ARRAY = np.linspace(1.0, 2.0, 2000)


def _ref_scalar() -> float:
    total = 0.0
    for i in range(3000):
        total += math.sin(i * 1e-3) * 0.5
    return total


def _ref_array():
    a = _REF_ARRAY
    for _ in range(30):
        a = np.sqrt(a * a + 1.0) - 0.5
    return a


def reference_s() -> float:
    """Time of the reference kernel: the least of REF_REPEATS timings of
    each of its two parts, summed."""
    best = [math.inf, math.inf]
    for _ in range(REF_REPEATS):
        for j, part in enumerate((_ref_scalar, _ref_array)):
            start = time.perf_counter()
            part()
            best[j] = min(best[j], time.perf_counter() - start)
    return best[0] + best[1]


class HostClock:
    """Times calls one after another, each scaled to the host's usual speed.

    With ``sample=True`` a SIGALRM timer runs the reference kernel inside
    the call, in the calling thread, and the kernel's time is taken off the
    call's. Sample only in-process calls: a subprocess runs on while the
    handler does. ``wall`` keeps every call's unscaled time.
    """

    def __init__(self, sample: bool) -> None:
        self.sample = sample
        self.wall: list[float] = []
        self._last = reference_s()
        self._inside: list[float] = []
        self._paused = 0.0

    def _take_sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self._inside.append(reference_s())
        self._paused += time.perf_counter() - start

    def measure(self, fn):
        """Call ``fn()``; return its result and its host-normalised time."""
        self._inside, self._paused = [], 0.0
        if self.sample:
            previous = signal.signal(signal.SIGALRM, self._take_sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - start
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        wall = elapsed - self._paused
        now = reference_s()
        refs = [self._last, now, *self._inside]
        self._last = now
        self.wall.append(wall)
        return result, wall * REF_S / statistics.fmean(refs)
