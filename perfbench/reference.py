"""A fixed reference kernel that tracks the machine's speed from moment to moment.

On a shared machine the same code runs 10-25% faster or slower for minutes
at a time, as neighbours load the cores, caches and memory. The harness times
this kernel, which does not touch ssnmf, right before and right after every
command it measures, and scales the command's time by NOMINAL_S over the
mean of those two kernel times. The scaled times read as seconds at the speed
the kernel had when NOMINAL_S was measured (2-core Intel Xeon, numpy 2.4
with OpenBLAS on one thread); a change in the machine's speed cancels out of
them, a change in the program's does not.

The kernel mixes the kinds of work the workloads do: multiplicative-update
style products and quotients on an in-cache 100x100 matrix and on a 400x400
one that falls out of L2, and a pure-Python loop. On a shared 2-core Xeon,
scaling each command by its neighbouring samples cut the spread of
30-second medians from 8-12% to 2-5%; one scale per run, from the median of
all samples, tracked worse.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.009


class Reference:
    def __init__(self):
        gen = np.random.default_rng(0)
        self.products = [
            (gen.random((100, 5)), gen.random((5, 100)), gen.random((100, 100)) + 0.1, 80),
            (gen.random((400, 10)), gen.random((10, 400)), gen.random((400, 400)) + 0.1, 2),
        ]
        self.samples = []

    def _once(self):
        start = time.perf_counter()
        for a, s, x, repeats in self.products:
            for _ in range(repeats):
                quotient = x / (a @ s + 1e-10)
                quotient @ s.T
                np.log(quotient).sum()
        total = 0
        for i in range(35000):
            total += i * i
        return time.perf_counter() - start

    def sample(self):
        """Time the kernel; the best of two drops a one-off preemption."""
        seconds = min(self._once(), self._once())
        self.samples.append(seconds)
        return seconds

    def scaled(self, seconds, before, after):
        """``seconds`` measured between kernel samples ``before`` and
        ``after``, converted to the nominal speed."""
        return seconds * NOMINAL_S * 2.0 / (before + after)
