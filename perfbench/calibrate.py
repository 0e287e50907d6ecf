"""A fixed calibration kernel that gauges how fast the host runs right now.

The benchmark's host is shared: the same solve takes 15% longer or
shorter from one minute to the next, and CPU time tracks wall time, so
the change is in the hardware's speed, not in scheduling. The kernel
below does a fixed amount of the same kinds of work the solver does
(interpreter loops, small numpy calls, (K, Np) @ (Np, Np) products,
gathers over arrays of a few MB and streaming over arrays larger than
the per-core cache) and uses no dgtd code, so a change to the program
cannot change its time. The benchmark runs it next to every timed
solve; a solve's time divided by the kernel's time measured around it
no longer carries the host's speed of that moment.

The five parts of the kernel take about equal time. In trials on the
workloads, that mix tracked the solves better than any single part, a
mix weighted to one part, or the mix without the streaming part.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Seconds the kernel takes on the reference host (2 shared x86-64 vCPUs,
# numpy 2.4.6, one OpenBLAS thread) at a quiet moment. Normalised times
# are solve time / kernel time x REFERENCE_S: the seconds the solve
# would take on that host at that speed.
REFERENCE_S = 0.1


class Calibrator:
    """Holds the kernel's inputs, built once, and times the kernel."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.a = rng.standard_normal((3200, 21))
        self.b = rng.standard_normal((21, 21))
        self.c = np.empty_like(self.a)
        self.big = rng.standard_normal(600_000)
        blocks = rng.permutation(self.big.size // 64)   # shuffled runs of 64 nodes
        self.index = (64 * blocks[:, None] + np.arange(64)).ravel()
        self.gathered = np.empty_like(self.big)
        self.stream = rng.standard_normal(2_000_000)
        self.streamed = np.empty_like(self.stream)
        self.small = rng.standard_normal(30)
        self.table = {i: float(i) for i in range(64)}

    def kernel(self) -> float:
        """One pass of fixed work; returns a checksum so nothing is skipped."""
        total = 0.0
        for i in range(200_000):                     # interpreter
            total += self.table[i & 63] * 0.5
        s = self.small
        for _ in range(6_000):                       # per-call numpy overhead
            s = np.sqrt(s * s + 1.0) - 1.0
        for _ in range(140):                         # small dense products
            np.matmul(self.a, self.b, out=self.c)
        for _ in range(8):                           # gathers over a few MB
            np.take(self.big, self.index, out=self.gathered)
            np.multiply(self.gathered, 0.5, out=self.gathered)
        for _ in range(9):                           # streaming over 16 MB arrays
            np.multiply(self.stream, 0.5, out=self.streamed)
            np.add(self.streamed, 0.5, out=self.stream)  # tends to 1, never overflows
        return (total + float(s[0]) + float(self.c[0, 0]) + float(self.gathered[0])
                + float(self.stream[0]))

    def measure(self) -> float:
        """Seconds one kernel pass takes now."""
        t0 = perf_counter()
        self.kernel()
        return perf_counter() - t0

    def start(self) -> None:
        """Gauge the host before the first piece of work."""
        self.before = self.measure()

    def normalise(self, elapsed: float) -> float:
        """Seconds of work just done, in seconds at the reference speed.

        Runs the kernel once and divides by the mean of this and the
        previous kernel time, the two measured around the work.
        """
        after = self.measure()
        norm = elapsed / (0.5 * (self.before + after)) * REFERENCE_S
        self.before = after
        return norm
