"""Host-speed probe: express measured times in nominal-host seconds.

On a shared 2-core box the same Python work runs up to a third faster or
slower from one second to the next, and process CPU time drifts with wall
time, so the drift is the host's speed rather than scheduling.  A raw wall
time then spreads too widely between runs to hold any useful bound.

The probe times a fixed, allocation-free pure-Python kernel every
INTERVAL_S from a SIGALRM timer, so its samples interleave with the work,
even inside one long library call.  Of the kernels tried, this one tracked
richlab's own slowdowns best.  An interval is converted to nominal seconds
by

    (wall - probe time inside it) * NOMINAL_S * mean(1 / kernel time nearby)

summed over slices of WINDOW_S, where "nearby" is the samples within
WINDOW_S of the slice.  NOMINAL_S is a fixed constant, roughly the
kernel's time on the 2-core Xeon box the benchmark was written on, so
nominal seconds read close to wall seconds there when it is quiet.  The
probe costs about 2 % of the timed phase and acts only on its own process.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left, bisect_right

INTERVAL_S = 0.02
WINDOW_S = 0.25
NOMINAL_S = 0.00013
_TEXT = "0110101101001011010110100101101" * 160


def kernel() -> int:
    # allocation-free: one-character strings and small ints are shared
    # objects, so the heap the workload left behind cannot change the cost
    n = 0
    for c in _TEXT:
        if c == "1":
            n ^= 1
        else:
            n ^= 2
    return n


class HostSpeedProbe:
    """Samples the kernel's run time; use as a context manager around work."""

    def __init__(self) -> None:
        self.at: list[float] = []    # perf_counter when each sample started
        self.took: list[float] = []  # its duration

    def sample(self, *_signal_args) -> None:
        t = time.perf_counter()
        kernel()
        self.at.append(t)
        self.took.append(time.perf_counter() - t)

    def warm(self, seconds: float) -> None:
        """Sample back to back for a while, e.g. before the timed phase."""
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self.sample()

    def __enter__(self) -> "HostSpeedProbe":
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float, end: float) -> float:
        """Nominal over actual speed within WINDOW_S of [start, end).

        Speed is 1 / kernel time, averaged over samples evenly spread in
        time; a sample slowed by preemption then counts as one slow moment,
        not as a long one.
        """
        lo = bisect_left(self.at, start - WINDOW_S)
        hi = bisect_right(self.at, end + WINDOW_S)
        took = self.took[lo:hi] or self.took
        return NOMINAL_S * sum(1.0 / t for t in took) / len(took)

    def nominal(self, start: float, end: float) -> float:
        """Nominal seconds of [start, end), the probe's own samples removed.

        A long interval is cut into WINDOW_S slices, each scaled by the
        speed around it, so speed changes within the interval are followed.
        """
        total = 0.0
        a = start
        while a < end:
            b = min(a + WINDOW_S, end)
            own = sum(self.took[bisect_left(self.at, a):bisect_left(self.at, b)])
            total += (b - a - own) * self.factor(a, b)
            a = b
        return total
