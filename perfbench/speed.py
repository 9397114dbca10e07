"""Machine-speed calibration, so that timings from a shared CPU compare.

On a shared host the same pure-Python work can take 25-70% longer from one
minute to the next, more than any bound a benchmark could hold.  A run
therefore times a fixed kernel between ops, at most every EVERY_NS, and
scales each op's wall time by K_REF_NS over the kernel's time around that
op.  The kernel is the same kind of work as iqprox's hot path: Fraction
elimination on small integer matrices (its own copy, so that no change to
the package can change it).  Timings are thus seconds on a reference CPU on
which the kernel takes K_REF_NS, about its time on a busy 2-vCPU x86-64 VM
under CPython 3.11.  Raw wall times are printed next to them.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

K_REF_NS = 10_000_000
EVERY_NS = 100_000_000
# An op is scaled by the kernel samples from MARGIN_NS before it starts to
# MARGIN_NS after it ends: one sample is an 8 ms snapshot, and the speed
# wanders within a second, so a narrower window tracks noise, not speed.
MARGIN_NS = 1_000_000_000


MATRICES = [[[(3 * i + 5 * j + 7 * r) % 7 - 3 for j in range(4)] for i in range(3)]
            for r in range(20)]


def kernel() -> int:
    """Ranks of 80 small integer matrices by Fraction Gauss-Jordan."""
    total = 0
    for _ in range(4):
        for M in MATRICES:
            a = [[Fraction(x) for x in row] for row in M]
            r = 0
            for c in range(4):
                piv = next((i for i in range(r, 3) if a[i][c] != 0), None)
                if piv is None:
                    continue
                a[r], a[piv] = a[piv], a[r]
                inv = a[r][c]
                a[r] = [x / inv for x in a[r]]
                for i in range(3):
                    if i != r and a[i][c] != 0:
                        f = a[i][c]
                        a[i] = [x - f * y for x, y in zip(a[i], a[r])]
                r += 1
                if r == 3:
                    break
            total += r
    return total


class Speedometer:
    """Kernel timings through a run, and the scale they give each moment."""

    def __init__(self):
        self.at: list[int] = []
        self.took: list[int] = []

    def sample(self):
        t0 = time.perf_counter_ns()
        kernel()
        t1 = time.perf_counter_ns()
        self.at.append(t0)
        self.took.append(t1 - t0)

    def maybe_sample(self):
        if not self.at or time.perf_counter_ns() - self.at[-1] >= EVERY_NS:
            self.sample()

    def scale(self, start_ns: int, dur_ns: int) -> float:
        """K_REF_NS over the median kernel time around [start, start + dur].

        The window always holds the nearest sample on each side.
        """
        i = min(bisect_left(self.at, start_ns - MARGIN_NS), bisect_right(self.at, start_ns) - 1)
        j = max(bisect_right(self.at, start_ns + dur_ns + MARGIN_NS),
                bisect_right(self.at, start_ns + dur_ns) + 1)
        return K_REF_NS / statistics.median(self.took[max(i, 0):j])

    def run_scale(self) -> float:
        return K_REF_NS / statistics.median(self.took)
