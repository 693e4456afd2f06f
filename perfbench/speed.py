"""Machine-speed probe that puts timings on a common scale.

The benchmark's host is shared: over minutes the same op here ran anywhere
from 426 to 661 ms, and thread CPU time moved with wall time, so the
slowdowns are the core itself running slower (co-tenants), not waiting.
Medians inside one run cannot remove that. The probe is a fixed piece of
work that does not touch qnct: a small BLAS matmul chain, a 32 MB fill
and sum, and a pure-Python loop. It runs between ops, and every op's
wall time is scaled by ``REF_S / probe time`` measured next to it. In a
test of 217 train steps, the spread of 15 s window medians fell from 0.19
(wall) to 0.06 (scaled). The raw wall times are reported beside the
scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Probe time that defines the reference speed. Only ratios matter; the
# value is near the probe's time on the 2-core Xeon KVM guest the
# benchmark was written on (medians 16-20 ms with one OpenBLAS thread).
REF_S = 0.016


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((192, 192))
        self._b = np.empty(4_000_000)

    def sample(self) -> float:
        """Wall seconds of one run of the fixed probe work."""
        start = time.perf_counter()
        a = self._a
        for _ in range(12):
            a = np.tanh(a @ self._a * 1e-2)
        self._b[:] = 1.0
        float(self._b.sum())
        x = 0
        for i in range(60_000):
            x += i * i
        return time.perf_counter() - start

    @staticmethod
    def factor(samples) -> float:
        """Factor from wall time to reference-speed time, given the probe
        times measured around that wall time."""
        return REF_S / statistics.median(samples)
