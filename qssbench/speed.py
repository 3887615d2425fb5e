"""The machine-speed reference the reported timings are scaled by.

The benchmark runs on shared hosts whose speed moves by tens of percent
from second to second and from minute to minute, and every timed region
of a run moves with it.  So the benchmark times a fixed reference kernel
(pure Python: allocation, dict inserts, string formatting, a sort) at
regular points between its timed regions, and reports each timing as it
would read on a machine that runs the kernel in :data:`NOMINAL_S`::

    scaled = raw * NOMINAL_S / (kernel time around the raw sample)

"Around" is the mean of the last probe before the sample started and the
first probe after it.  The kernel is the benchmark's own code, so a
change to the program moves the scaled timings exactly as it moves the
raw ones; only the host's drift divides out.  The report prints the raw
figures and the run's median speed factor next to the scaled ones.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
from time import perf_counter

# The kernel's time at reference speed: about its median on an idle
# 2-vCPU cloud host (Python 3.11), where it reads 5-14 ms.
NOMINAL_S = 0.0065


def kernel() -> int:
    rng = random.Random(1)
    table = {}
    for index in range(2400):
        table[("k%d" % rng.randrange(10_000), index % 7)] = [index, str(index)]
    return sum(len(value[1]) for _, value in sorted(table.items()))


class SpeedProbe:
    """Kernel timings, ``(start, seconds)``, taken through one run."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def probe(self) -> None:
        # With the collector off the kernel's time does not depend on
        # how much the program has allocated.
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = perf_counter()
            kernel()
            self.seconds.append(perf_counter() - started)
            self.starts.append(started)
        finally:
            if enabled:
                gc.enable()

    def factor(self, at: float) -> float:
        """``NOMINAL_S`` / the kernel's time around the instant ``at``."""
        if not self.seconds:
            raise ValueError("no speed probe taken")
        index = bisect.bisect_right(self.starts, at)
        near = self.seconds[max(0, index - 1):index + 1]
        return NOMINAL_S * len(near) / sum(near)

    def scaled(self, samples) -> list[float]:
        """``(start, value)`` samples -> values at reference speed."""
        return [value * self.factor(at) for at, value in samples]

    def median_factor(self) -> float:
        return NOMINAL_S / statistics.median(self.seconds)
