"""Host-speed normalization of the benchmark's timings.

The machines this benchmark runs on are shared: the speed of a core drifts
by tens of percent over tens of seconds as other tenants come and go, with
no CPU steal to show for it (CPU time drifts exactly like wall time).  A
run-to-run spread that size would hide any change to the program.

So every timed phase is cut into slices of ``SLICE_NS``, and between
slices this process runs a fixed probe that does not touch the program: a
pure-Python integer loop.  Each slice's timings are then multiplied by
``NOMINAL_NS`` over the median probe time around that slice.  The result
is in ordinary units (us, s, ops/s) at a nominal host speed: on a host
where the probe takes ``NOMINAL_NS`` the values are unscaled.  A change to
the program moves them fully; a change of host speed mostly cancels.  The
report prints the speed index and raw figures too.

Why this probe: measured side by side over minutes of drift, the
program's query and update times moved with the loop's time at a log-log
slope of 1.0-1.2 (correlation ~0.9).  A dict walk warm in cache moved
five times as much as the program and is not used; a walk cold in cache
tracked about as well as the loop, but its time depends on what ran
before it, which would tie the probe to the program under test.
"""

from __future__ import annotations

import statistics

from common import now_ns

#: The probe time that maps to a speed index of 1.0 (about this probe's
#: median on a 2 GHz Xeon vCPU).
NOMINAL_NS = 550_000
#: Workload time between two probes.
SLICE_NS = 100_000_000
ITERS = 6_000


def _loop(iters: int) -> int:
    s = 0
    for i in range(iters):
        s += i * i % 7
    return s


class HostSpeed:
    """Probes of the host's speed, taken between the slices of a phase."""

    def __init__(self) -> None:
        self.samples: list[int] = []
        _loop(ITERS)  # warm

    def mark(self, count: int = 1) -> int:
        """Probe ``count`` times; returns the index of the last probe."""
        for _ in range(count):
            t0 = now_ns()
            _loop(ITERS)
            self.samples.append(now_ns() - t0)
        return len(self.samples) - 1

    def factor(self, lo: int, hi: int) -> float:
        """Scale factor for work timed between probes ``lo`` and ``hi - 1``:
        ``NOMINAL_NS`` over the median of those probes (``hi`` may run past
        the probes taken so far)."""
        return NOMINAL_NS / statistics.median(self.samples[max(lo, 0):hi])

    def slice_factor(self, before: int, after: int) -> float:
        """Factor for one slice between consecutive probes ``before`` and
        ``after``: the median of those two and one more on each side."""
        return self.factor(before - 1, after + 2)

    def index(self) -> float:
        """Median host speed over every probe so far (1.0 is nominal)."""
        return NOMINAL_NS / statistics.median(self.samples) if self.samples else 0.0
