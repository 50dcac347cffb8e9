"""Host speed, measured by a fixed calibration kernel.

On a shared machine the same code can run 1.5x slower for minutes at a
time (see README, "Spread").  The kernel does a fixed mix of the kinds of
work the program does -- an interpreter loop over lists, small numpy
calls, and small LAPACK calls -- and never touches erlang_edm, so a change
to the program cannot move it.  It runs once on each CPU the process may
use, single-threaded so that no BLAS thread keeps spinning into the span
that is timed next.  A span of t seconds measured next to a kernel time k
is reported as t * REFERENCE_S / k: seconds on a host where the kernel
takes REFERENCE_S.
"""

from __future__ import annotations

import os
import time

import numpy as np

REFERENCE_S = 0.045  # a kernel pass on the 2-CPU host of the README figures
# OpenBLAS threads keep spinning for about 0.11 s after a parallel call; a
# kernel timed before they stop would share a CPU with them.
SETTLE_S = 0.15

_MATRIX = np.random.default_rng(0).standard_normal((48, 48))


def _one_pass() -> float:
    t0 = time.perf_counter()
    counts = [0] * 12
    acc = 0.0
    for k in range(60_000):
        c = (k * 7919) % 12
        counts[c] += 1
        acc += counts[c] * 0.5
    x = np.full((3, 4), 1.0 / 12.0)
    for _ in range(2_250):
        y = x.sum(axis=1)
        x = x + 1e-9 * (y[:, None] - x)
    for _ in range(30):
        np.linalg.eigvals(_MATRIX)
    return time.perf_counter() - t0


def kernel_seconds() -> float:
    """Mean time of one kernel pass over the CPUs this thread may run on."""
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(_one_pass())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


def scaled(seconds: float, kernel: float) -> float:
    """A time measured next to `kernel`, at the reference host speed."""
    return seconds * REFERENCE_S / kernel
