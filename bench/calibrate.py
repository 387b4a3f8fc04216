"""Host-speed calibration: a fixed kernel timed alongside the ops.

The machine this benchmark was tuned on is a 2-vCPU VM whose host runs
other tenants' work on the same physical cores.  A fixed piece of work there
runs at two speeds, about 1.35x apart, switching every few milliseconds, and
the share of time spent at the slow speed drifts over minutes.  Raw wall
times of identical runs minutes apart therefore differ by 20-50%.

The kernel below does a fixed amount of interpreter and numpy work and
shares no code with ``tensorjet``, so no change to the program can move it.
It is timed at short intervals during the measured phase.  Every op latency
is then scaled by ``REF_S / (mean kernel time in the same round)``: the
reported times are what the op would take on a host where the kernel takes
``REF_S``.  A change to the program moves the corrected times
just as it moves the raw ones; a slower or busier host does not, to the
extent it slows the kernel and the op alike.  The raw figures are kept in
the run record beside the corrected ones.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

import numpy as np

REF_S = 2.5e-3  # kernel time the corrected figures are scaled to
EVERY_S = 0.05  # least time between two kernel samples in the measured phase
BURST = 30  # kernel samples taken right after set-up

_ARRAY = np.linspace(-1.0, 1.0, 6**6).reshape((6,) * 6)
_PERMS = list(itertools.permutations(range(6)))[::120]


def kernel() -> float:
    """Run the fixed kernel once and return its wall time in seconds.

    Rational arithmetic, dict and list work for the interpreter, and strided
    sums over a 370 KB array for the memory system: while tuning, windows of
    this mix and of dense-tower, deep-chain and series ops slowed together
    (log-log slope 0.97-1.09 over ten-second windows).
    """
    start = time.perf_counter()
    x = Fraction(1, 3)
    counts = {}
    for i in range(150):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i + 3)
        counts[i % 37] = counts.get(i % 37, 0) + x.numerator % 11
    rows = [tuple(range(i % 9)) for i in range(800)]
    rows.sort(key=len)
    t = _ARRAY
    for p in _PERMS:
        t = t + _ARRAY.transpose(p)
    return time.perf_counter() - start


def burst() -> list:
    """``BURST`` back-to-back kernel samples."""
    kernel()  # refill caches after whatever ran before
    return [kernel() for _ in range(BURST)]


class Sampler:
    """Takes a kernel sample whenever ``EVERY_S`` has passed since the last one.

    A sample runs the kernel twice and keeps the time of the second run.  The
    first refills the caches that the op before it evicted, so the sample does
    not depend on how much memory the op touched: right after a CLI child
    process, a single run read about 20% slow.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # wall time of both runs of every sample since the last take()
        self._next = time.perf_counter()

    def _sample(self):
        start = time.perf_counter()
        kernel()
        self.samples.append(kernel())
        self.spent += time.perf_counter() - start

    def tick(self):
        if time.perf_counter() >= self._next:
            self._sample()
            self._next = time.perf_counter() + EVERY_S

    def take(self):
        """(samples, seconds spent taking them) since the last call, at least one sample."""
        if not self.samples:
            self._sample()
        out = self.samples, self.spent
        self.samples, self.spent = [], 0.0
        return out
