"""Host-speed probe: times a fixed piece of pure-Python work every 50 ms
while the benchmark runs, and keeps a clock in seconds on a host of fixed
speed.

The benchmark host is a shared two-core machine whose speed for Python
code drifts by 20-60% over minutes as other tenants come and go.  The
probe runs from a SIGALRM handler, between the bytecodes of whatever the
benchmark is doing, so it sees the same slowdowns.  Dividing the seconds
of repeated identical 5-10 s passes by the probe's mean duration during
each pass cut their spread (coefficient of variation) from 12-15% to
about 4%.  The probe's mean duration was the same within 1% while the
program grew a 1024-node complete graph as while it ran 4-node trials, so
the program's own memory footprint does not bias it.  The probe's own
time is left out of every measured interval.

The probe must never change: every figure of the benchmark is expressed
against it.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections import deque

PERIOD_S = 0.05
# Seconds the probe takes, run from the timer, on the nominal host (about
# the benchmark host's typical speed): scaled seconds are measured seconds
# times PROBE_NOMINAL_S / (mean probe duration).
PROBE_NOMINAL_S = 1.25e-3
PROBE_ITERATIONS = 2000


def probe_work() -> int:
    """Fixed interpreter work with a working set of a few cache lines, so
    that the program's own cache footprint hardly changes its duration."""
    x = 1
    acc = 0
    counts: dict[tuple[int, int], int] = {}
    for i in range(PROBE_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        r = x >> 24
        if r < 100:
            acc += r
        key = (i & 15, r & 15)
        counts[key] = counts.get(key, 0) + 1
    return acc


class HostSpeed:
    """Context manager that runs the probe on a timer while it is open and
    keeps a clock in nominal-host seconds.

    Between two probes the clock advances at ``PROBE_NOMINAL_S`` over the
    mean duration of the last ``SMOOTH`` probes; it stands still while a
    probe runs.  An interval timed with ``clock`` is therefore scaled by
    the host's speed at the time, down to the 50 ms period.
    """

    SMOOTH = 4

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._recent: deque[float] = deque(maxlen=self.SMOOTH)
        self._base = 0.0  # clock reading at _mark
        self._mark = time.perf_counter()
        self._rate = 1.0  # nominal seconds per second since _mark
        self._version = 0

    def _probe(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        probe_work()
        t1 = time.perf_counter()
        self.samples.append((t0, t1 - t0))
        self._recent.append(t1 - t0)
        self._base += (t0 - self._mark) * self._rate
        self._rate = PROBE_NOMINAL_S / statistics.fmean(self._recent)
        self._mark = time.perf_counter()
        self._version += 1

    def __enter__(self) -> "HostSpeed":
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        """Nominal-host seconds since the probe started, not counting the
        time spent in probes."""
        while True:
            version = self._version
            now = self._base + (time.perf_counter() - self._mark) * self._rate
            if version == self._version:  # no probe ran in between
                return now

    def scale(self, start: float, end: float) -> float:
        """Mean factor from seconds measured between the ``perf_counter``
        stamps ``start`` and ``end`` to nominal-host seconds."""
        inside = [dt for t, dt in self.samples if start <= t < end]
        if not inside:  # an interval shorter than the period: nearest probes
            inside = [dt for _, dt in self.samples[-10:]]
        return PROBE_NOMINAL_S / statistics.fmean(inside)
