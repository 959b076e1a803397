"""Host-speed calibration for the timed runs.

On a shared VM the same single-threaded code runs up to twice as fast in one
ten-second stretch as in the next, and CPU time drifts with wall time (the
slowdown is contention for the physical core, not stolen time). A run's
median wall time therefore mostly says which stretches it happened to fall
in. ``HostClock`` takes that out: while an interval is timed, a timer signal
interrupts the program every ``PERIOD_S`` to time a fixed calibration kernel
that is not part of the program under test. The kernel's time is subtracted
from the interval, and the rest is scaled by ``REFERENCE_S`` over the mean
kernel time measured inside the interval. The result reads as the interval's
length on a host that runs the kernel in ``REFERENCE_S``.

The kernel does the kind of work the library does (Python arithmetic and
``math.log`` over small tables, NumPy scalar reads, a small ``bincount``, a
sort and a dict), so a slow stretch stretches both alike: timed back to back
on the 2-core VM, kernel and library calls slowed together (regression slope
0.83-1.08), and dividing by the kernel cut the spread of one-second windows
from 0.16-0.20 to about 0.05 (standard deviation of the log). A change to the
program changes the interval, not the kernel, so it shows in full.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
from time import perf_counter

import numpy as np

# Mean kernel time on the 2-core Xeon VM (2.1 GHz) where the benchmark was
# defined; scaled times read as seconds on that host.
REFERENCE_S = 0.0060
# One kernel run every PERIOD_S of the timed interval: about a twentieth of it.
PERIOD_S = 0.100

_RNG = np.random.default_rng(20260)
_BITS = _RNG.integers(0, 2, size=(400, 8)).astype(np.int8)
_LABELS = _RNG.integers(0, 2, size=400).astype(np.int64)
_TABLE = _RNG.integers(1, 50, size=(160, 2, 2)).astype(np.int64)


def kernel() -> float:
    """Run the calibration kernel once with the garbage collector paused (so
    that it never pays for collecting the program's heap); return its time."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        scores = []
        for i in range(_BITS.shape[1]):
            code = _BITS[:, i].astype(np.int64) * 2 + _LABELS
            counts = np.bincount(code, minlength=4)
            for j in range(_TABLE.shape[0]):
                row = _TABLE[j]
                n = [float(row[a, b]) + 1.0 for a in (0, 1) for b in (0, 1)]
                total = math.fsum(n) + float(counts[0])
                scores.append((sum(x / total * math.log(x / total) for x in n), i, j))
        scores.sort()
        seen = {}
        for s, i, j in scores:
            seen[(i * 31 + j) & 255] = s
        return perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class HostClock:
    """Times calls and scales them to the reference host's speed.

    Use as a context manager: inside it the calibration timer runs. Only the
    main thread may use it (signal handlers run there), and nothing else in
    the process may use ``SIGALRM``.
    """

    def __init__(self):
        self.kernel_s: list[float] = []
        self._previous = None

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        self.kernel_s.append(kernel())
        # Re-armed only now, so a slow kernel can never queue up alarms.
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def time(self, fn, *args):
        """Call ``fn(*args)``; return ``(result, seconds, kernel_times)``:
        the call's wall time minus the kernel runs inside it, and those
        runs' times."""
        first = len(self.kernel_s)
        start = perf_counter()
        result = fn(*args)
        wall = perf_counter() - start
        inside = self.kernel_s[first:]
        return result, wall - sum(inside), inside


def scale_factor(kernel_s: list[float]) -> float:
    """Reference host time per second measured here, from the kernel runs
    inside the intervals being scaled."""
    if not kernel_s:
        raise ValueError("no calibration inside the interval; time more work")
    return REFERENCE_S / statistics.fmean(kernel_s)
