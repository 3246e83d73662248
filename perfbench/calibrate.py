"""Machine-speed calibration for the benchmark's timings.

The machine the benchmark was built on is a shared 2-vCPU VM whose speed
drifts by up to about 1.8x for seconds to minutes at a time.  Other tenants
cause the drift.  CPU time drifts with wall time, so it is not
descheduling, and pinning to one CPU does not help.  Ten-seed spreads of
raw wall times reached 13-45% there.

So every reported time is *reference-normalised*: the raw wall time,
multiplied by REFERENCE_MS over the time the reference loop below took
around that moment.  The reference loop uses no superdual code and the
same kind of work the program does: exact `Fraction` arithmetic, small
tuples and dict updates.  A normalised millisecond is therefore a
millisecond on a machine that runs the reference loop in REFERENCE_MS.
The raw times go into each run's record next to the factors used.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_MS = 12.0  # nominal reference-loop time; sets the unit, not a gate
PERIOD_S = 0.5  # recalibrate at the first item boundary after this long
WINDOW = 3  # a factor is the median of the last WINDOW reference times


def reference_ms() -> float:
    """Wall time of one fixed pass of exact-arithmetic work, in ms."""
    t0 = time.perf_counter()
    acc = {}
    total = Fraction(0)
    for i in range(1, 1200):
        key = (i % 7, i % 11)
        total += Fraction(i % 13 + 1, i % 97 + 1)
        acc[key] = acc.get(key, Fraction(0)) + total / (i % 5 + 1)
    return (time.perf_counter() - t0) * 1e3


class Calibrator:
    """Reference times taken between items; `factor()` scales raw times."""

    def __init__(self):
        self.samples = []
        self.last = None

    def maybe_sample(self, now):
        """Take a reference sample if PERIOD_S has passed since the last one.

        Returns the seconds spent, which the caller leaves out of its timings."""
        if self.last is not None and now - self.last < PERIOD_S:
            return 0.0
        t0 = time.perf_counter()
        self.samples.append(reference_ms())
        self.last = time.perf_counter()
        return self.last - t0

    def factor(self):
        return REFERENCE_MS / statistics.median(self.samples[-WINDOW:])
