"""A host-speed probe sampled during an untraced run.

The benchmark's host is a shared virtual machine whose speed changes by up
to half within seconds, as other tenants load the physical cores; runs a
minute apart differ by more than the benchmark's bounds.  The probe is a
fixed piece of pure-Python work, independent of nmsflow, of the same kinds
as the workloads: small-int loops with dict and tuple churn, string
building and big-int arithmetic.  A timer signal runs it every
INTERVAL_S of the process's CPU time, so its samples fall inside the
operations and follow the host's speed while they run.  Each sample runs
the probe twice and times the second run: the first refills the caches
the interrupted work left, so that the figure depends on the host and
not on how much memory the workload touches.

Times the benchmark reports are scaled by `factor(since)`: REFERENCE_S
over the probe's median time while they were measured.  They read as times
on a host where the probe takes REFERENCE_S.  Because the probe does not
use nmsflow, a change to nmsflow moves the scaled times as it moves the raw
ones.
"""

from __future__ import annotations

import math
import signal
from array import array
from statistics import median
from time import perf_counter

# About the probe's median sampled time on the reference machine (see
# README.md); it only sets the scale, so scaled and raw times are alike.
REFERENCE_S = 0.00022
INTERVAL_S = 0.03
# The fewest samples a factor is taken over: about 0.45 s of processor
# time, short against the host's slow and fast phases.
WINDOW = 15


def probe() -> int:
    """The fixed work timed by each sample, about 0.2 ms."""
    acc = 0
    seen: dict = {}
    a = 123456789012
    for i in range(60):
        b = (a * (i + 7) + 12345) % 999999999989
        g = math.gcd(a, b)
        key = (a % 97, b % 89, g)
        seen[key] = seen.get(key, 0) + 1
        acc += sum(sorted((b % 13, a % 17, i % 11, g % 7)))
        a = b
    rows = sorted((i * 7919 % 101, str(i), (i, -i)) for i in range(80))
    text = ",".join(f"({x},{y[0]})" for x, _, y in rows)
    x, y = 3 ** 80, 7 ** 60
    for i in range(30):
        x = (x * y + i) % (10 ** 45 + 7)
        acc ^= math.gcd(x, y + i)
    return acc + len(seen) + len(text)


class HostSpeed:
    """Samples of the probe's time, taken on SIGVTALRM while started.

    `spent` is the wall time spent in samples; the caller subtracts it from
    the operations the samples interrupted.
    """

    def __init__(self):
        self.samples = array("d")
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        try:
            probe()
            warm = perf_counter()
            probe()
            self.samples.append(perf_counter() - warm)
        finally:  # a deadline may fire inside the sample
            self.spent += perf_counter() - start

    def start(self) -> None:
        """Take WINDOW samples now, so that a factor exists from the start,
        then one every INTERVAL_S of processor time."""
        for _ in range(WINDOW):
            self._sample(None, None)
        signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def factor(self, since: int = 0) -> float:
        """REFERENCE_S over the median of the samples from index `since` on,
        or of the last WINDOW samples when there are fewer: multiply the raw
        times measured over that stretch by it."""
        recent = self.samples[since:]
        if len(recent) < WINDOW:
            recent = self.samples[-WINDOW:]
        return REFERENCE_S / median(recent)
