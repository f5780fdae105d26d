"""Host-speed calibration for the benchmark's timings.

A shared host (the baseline's: Intel Xeon, 2 vCPUs) can run the same Python
code up to a third slower for stretches of seconds to minutes, which would
swamp any change to the program.  A fixed reference kernel, timed on the same CPU
while the measured block runs, tracks that speed; timings are reported at
the kernel's reference speed.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# Mean reference_kernel() call on the machine the baseline was measured on
# (Intel Xeon, 2 vCPUs, Python 3.11.7); calibrated timings are in seconds at
# that speed.
REFERENCE_KERNEL_S = 0.0004
SAMPLE_EVERY_S = 0.05


def reference_kernel():
    """Fixed pure-Python work of the kind matropt does: exact rationals,
    tuples and dict updates.  It never touches matropt."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, 120):
        acc += Fraction(i, i + 1)
        key = (i % 13, i % 7)
        seen[key] = seen.get(key, 0) + acc.numerator % 97
    return acc, seen


class SpeedSampler:
    """Times a block and the host's speed while it runs.

    The reference kernel is timed on entry, on exit, and every
    SAMPLE_EVERY_S of wall time in between from SIGALRM, so on the same CPU
    as the block.  The collector is off during the kernel, so that objects
    the program leaves alive cannot slow it.  `wall` is the block's wall time
    less the kernel time inside it; `calibrated` is `wall` scaled by
    REFERENCE_KERNEL_S over the mean kernel time.  The mean, not the median,
    because a kernel call that loses the CPU to the host shows a loss the
    block suffers too.
    """

    def __enter__(self):
        self.samples = []
        self._in_block = 0.0
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall = time.perf_counter() - self._start - self._in_block
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        self.calibrated = self.wall * REFERENCE_KERNEL_S / statistics.mean(self.samples)

    def _tick(self, signum, frame):
        self._in_block += self._sample()

    def _sample(self):
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference_kernel()
        took = time.perf_counter() - start
        if enabled:
            gc.enable()
        self.samples.append(took)
        return time.perf_counter() - start
