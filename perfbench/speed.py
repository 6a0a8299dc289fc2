"""Machine-speed probe that rescales measured times to a nominal speed.

The 2-core host these figures come from switches between a fast state and
states up to 2.3x slower, for stretches of under a second to minutes, and
the slowdown hits process CPU time as much as wall time. Raw wall times of
one workload therefore spread by 16-49 % between runs. A fixed probe kernel,
run every ``PERIOD_S`` from an interval timer on the measuring thread,
slows down with the host, so each operation's wall time is multiplied by
``PROBE_NOMINAL_S`` over the mean probe time around it. Program changes are
not cancelled, because the probe runs no program code.

Not all code slows down by the same factor: interpreter-bound code, like
the probe, slows down most, and BLAS-bound code least; the README gives the
measured factors. Rescaling divides every operation by the same probe
time, so it leaves the ratio between two versions of the code as it is in
wall time at the same moment.

The timer is per process and is not inherited by child processes. While
a child process is timed, both processes are pinned to one CPU, so the
probes measure the CPU that runs the child.
"""

from __future__ import annotations

import os
import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

PERIOD_S = 0.025
# The probe kernel's time in the host's fast state (its minimum over a
# minute of samples on the reference machine); a nominal-speed second is
# a wall second at that speed.
PROBE_NOMINAL_S = 0.0006
MIN_WINDOW = 4  # probes averaged at least, taken nearest a short operation

_VECTOR = np.ones(6, dtype=np.complex128)


def probe_kernel() -> float:
    """Fixed interpreter-bound work with small numpy calls, like the program."""
    total = 0.0
    v = _VECTOR
    for i in range(150):
        v = v * 1.0000001
        total += i * i + float(np.prod(v).real)
    return total


class SpeedProbe:
    """Samples ``probe_kernel`` periodically while started."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._previous = None

    def _sample(self, *_):
        start = perf_counter()
        probe_kernel()
        self.samples.append((start, perf_counter() - start))

    def start(self) -> None:
        for _ in range(MIN_WINDOW):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
        for _ in range(MIN_WINDOW):
            self._sample()

    def timed(self, call, child: bool = False):
        """Run ``call()``; returns ((start, end, wall seconds), result).

        Wall seconds exclude the probes that ran during the call. With
        ``child``, the call starts a child process: this process is pinned to
        one CPU for the call, the child inherits the pin, and the probes
        interrupt the child on the CPU that runs it.
        """
        cpus = os.sched_getaffinity(0)
        if child:
            os.sched_setaffinity(0, {min(cpus)})
        try:
            first = len(self.samples)
            start = perf_counter()
            result = call()
            end = perf_counter()
        finally:
            if child:
                os.sched_setaffinity(0, cpus)
        wall = end - start - sum(seconds for _, seconds in self.samples[first:])
        return (start, end, wall), result

    def nominal(self, timings) -> list[float]:
        """Nominal-speed seconds for each (start, end, wall seconds) of
        ``timed``: wall seconds times PROBE_NOMINAL_S over the mean of the
        probes that ran inside the call, or of the MIN_WINDOW probes nearest
        its middle when fewer did. Call after ``stop``."""
        starts = [start for start, _ in self.samples]
        result = []
        for start, end, wall in timings:
            lo, hi = bisect_left(starts, start), bisect_right(starts, end)
            if hi - lo < MIN_WINDOW:
                middle = bisect_left(starts, 0.5 * (start + end))
                lo = max(0, min(middle - MIN_WINDOW // 2, len(starts) - MIN_WINDOW))
                hi = lo + MIN_WINDOW
            window = [seconds for _, seconds in self.samples[lo:hi]]
            result.append(wall * PROBE_NOMINAL_S * len(window) / sum(window))
        return result
