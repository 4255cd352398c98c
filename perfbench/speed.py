"""Machine-speed probe for the end-to-end times.

The shared VMs this benchmark runs on switch between speed regimes for
minutes at a time, with CPU time tracking wall time. Two 10-seed sets of the
same code, 20 minutes apart, read raw median op times 25-33% apart on every
workload (STEADINESS.md), more than any bound may be. A fixed probe timed
right after every op and every set-up slows down and speeds up with the
machine, so the end-to-end times are reported at a reference machine speed:

    time at reference speed = measured time * REFERENCE_MS / probe ms

The probe is harness code that shares as little with the program as it can:
no BLAS call (so it neither uses nor waits on the program's BLAS threads),
no allocation while it runs (its arrays are its own, made once), only a
gather, an elementwise pass, a reduction and a pure-Python loop. What it still shares is the process and the machine. run.py checks
that: it compares the probe's median after ops with its median after
set-ups, which run no BLAS, and flags the run in `meta` when they differ by
more than PERTURBED, since the program then moved its own scale.
"""
from __future__ import annotations

import time

import numpy as np

# Median probe time on the machine the bounds were set on; only a scale.
REFERENCE_MS = 3.5
# Relative difference of the probe after ops and after set-ups that flags a run.
PERTURBED = 0.15


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal(1 << 20)  # 8 MiB, larger than L2
        self._idx = rng.integers(0, self._x.size, 1 << 16)
        self._buf = np.empty(self._idx.size)

    def run(self) -> float:
        """Time one pass of the probe; return seconds.

        An untimed pass first brings the probe's own data back into cache,
        so the timed pass does not depend on how much the program evicted.
        """
        self._pass()
        t0 = time.perf_counter()
        self._pass()
        return time.perf_counter() - t0

    def _pass(self) -> None:
        for _ in range(8):
            np.take(self._x, self._idx, out=self._buf)
            np.maximum(self._buf, 0.0, out=self._buf)
            self._buf.sum()
        s = 0
        for i in range(6000):
            s += i * i


def at_reference_speed(seconds: float, probe_seconds: float) -> float:
    return seconds * REFERENCE_MS / (1e3 * probe_seconds)
