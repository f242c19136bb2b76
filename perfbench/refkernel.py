"""The reference kernel: fixed work that every timing is divided by.

The kernel imports nothing from gegenkit.  It mixes the three kinds of cost
the library spends its time on -- ``Fraction``/bigint arithmetic, float
arithmetic and Python call overhead -- so that a slower or faster machine
moment scales the kernel roughly as it scales a library call.  Timings are
reported in units of the kernel's time measured beside them (unit ``ref``).
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction


def _step(a, b):
    return a + b


def kernel():
    """One fixed unit of mixed work (a few milliseconds on a 2 GHz core)."""
    acc = Fraction(0)
    c = Fraction(1)
    lam = Fraction(7, 3)
    for k in range(90):
        c = c * (lam + k) / (k + 1)
        acc += c
    big = 1
    for j in range(1, 400):
        big = big * (3 * j + 1) // math.gcd(big, j) + j
    x = 0.0
    for j in range(1, 3500):
        x = x * 0.999 + math.sqrt(j) / (j + 1.0)
    s = 0
    for j in range(6000):
        s = _step(s, j)
    return acc.numerator % 1000003, big % 1000003, round(x, 6), s


class RefClock:
    """Kernel samples taken beside the timed calls of one run.

    The machine's speed flips between a fast and a slow state within
    milliseconds, and the share of time spent slow drifts over seconds.  A
    timed call lasting a good part of a second sees the average of that mix,
    so one kernel run beside it is a poor yardstick.  Instead a batch of
    kernel runs goes before and after every timed call, and the call is
    divided by the mean kernel time of the two batches.
    """

    def __init__(self):
        self.walls: list[float] = []
        self.cpus: list[float] = []
        # A different result would mean the kernel's work changed, and with it
        # every ``ref`` figure.
        self.expected = kernel()

    def sample(self, runs: int) -> tuple[float, float]:
        """Run the kernel ``runs`` times; return the batch's mean (wall, cpu) seconds."""
        for _ in range(runs):
            w0 = time.perf_counter()
            c0 = time.process_time()
            out = kernel()
            self.cpus.append(time.process_time() - c0)
            self.walls.append(time.perf_counter() - w0)
            if out != self.expected:
                raise RuntimeError(f"reference kernel returned {out!r}, not {self.expected!r}")
        return statistics.fmean(self.walls[-runs:]), statistics.fmean(self.cpus[-runs:])

    def median_wall(self) -> float:
        return statistics.median(self.walls)

    def median_cpu(self) -> float:
        return statistics.median(self.cpus)
