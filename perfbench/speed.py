"""Seconds at reference speed, from a calibration loop sampled while a pass runs.

The benchmark shares a few cores of a host whose speed drifts within
seconds: a fixed pure-Python loop can take 60 % longer for a while, and a
seven-second request varied by 40 % between fresh processes.  The ratio
between two kinds of pure-Python work timed close together stays within a
few percent.  So a :class:`Clock` interrupts the pass every ``INTERVAL_S``
(``SIGALRM``, on the main thread between two bytecodes) to time one run of
:func:`work`, and maps raw time to reference time: the stretch of the pass
that a sample ends counts ``REFERENCE_S / s`` reference seconds per raw
second, ``s`` the median of the samples around it, and the samples
themselves count nothing.  A reference second is
what the stretch would have taken on a host where :func:`work` takes
``REFERENCE_S``.  A change to the program moves reference seconds as it
moves raw seconds; a slowdown of the host, which slows the samples around it
as much, cancels out.
"""

from __future__ import annotations

import itertools
import signal
import statistics
import time
from fractions import Fraction
from time import perf_counter

# one run of work() takes about this long on the 2-core VM the first
# numbers in README.md come from
REFERENCE_S = 0.002
# a sample every INTERVAL_S costs about a tenth of the pass; the rate of a
# stretch is the median of WINDOW samples around it
INTERVAL_S = 0.02
WINDOW = 5


def work() -> int:
    """Integers, tuples, dicts, sets, Fractions and calls: the operations the
    package spends its time in."""
    seen: dict[tuple, int] = {}
    for r in range(3):
        for p in itertools.permutations(range(5)):
            seen[p] = sum(i * v for i, v in enumerate(p)) % (11 + r)
    for r in range(4):
        for p in itertools.permutations(range(5), 4):
            seen[p] = sum(i * v for i, v in enumerate(p)) % (11 + r)
    cells = {(x, y) for x in range(110) for y in range(x, 110) if (x ^ y) & 1}
    best = Fraction(0)
    for i in range(1, 300):
        best = max(best, Fraction(i % 7 + 1, i % 12 + 1) + Fraction(1, i % 5 + 2))
    return len(seen) + len(cells) + best.numerator % 3


class Clock:
    """Samples :func:`work` every ``INTERVAL_S`` from :meth:`start` to
    :meth:`stop`, then converts ``perf_counter`` readings taken in between
    to reference seconds since :meth:`start`."""

    def __init__(self) -> None:
        self.begin = perf_counter()
        self.begin_monotonic = time.monotonic()
        self.samples: list[tuple[float, float]] = []  # (start, end) of each run of work()
        self._x: list[float] = []
        self._y: list[float] = []

    def start(self) -> Clock:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _tick(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        work()
        self.samples.append((t0, perf_counter()))

    def stop(self) -> None:
        """Stop sampling; a last sample closes the last stretch."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()
        x, y = [self.begin], [0.0]
        for i, (t0, t1) in enumerate(self.samples):
            y.append(y[-1] + (t0 - x[-1]) * self.rate(i))
            x += [t0, t1]
            y.append(y[-1])
        self._x, self._y = x, y

    def rate(self, i: int) -> float:
        """Reference seconds per raw second around sample ``i``: the median
        of the ``WINDOW`` samples centred on it, as one sample alone jitters."""
        near = self.samples[max(0, i - WINDOW // 2):i + WINDOW // 2 + 1]
        return REFERENCE_S / statistics.median(t1 - t0 for t0, t1 in near)

    def reference(self, times):
        """Reference seconds from :meth:`start` to each ``perf_counter``
        reading in ``times`` (a float or an array)."""
        import numpy as np  # after start(), so that importing it is sampled

        return np.interp(times, self._x, self._y)

    def seconds(self, t0: float, t1: float) -> float:
        """Reference seconds between two readings."""
        return float(self.reference(t1) - self.reference(t0))

    def since_spawn(self, spawned_at: float, t: float) -> float:
        """Reference seconds from ``spawned_at`` (the parent's
        ``time.monotonic()``) to the reading ``t``; the stretch before this
        clock was made counts at the rate of the first sample."""
        return ((self.begin_monotonic - spawned_at) * self.rate(0)
                + float(self.reference(t)))
