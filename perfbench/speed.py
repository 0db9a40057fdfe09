"""Machine-speed index: a fixed NumPy kernel timed between the timed steps.

The reference machine is a shared virtual machine whose speed drifts by 20%
to 60% in spells of seconds to minutes, with no stolen time counted and CPU
time at 99% of wall time, so the loss is inside the processor (shared caches
and memory).  A run cannot outlast those spells.  Instead, a small kernel of
the same kinds of work as dqopt's, and no dqopt code, is timed before and
after every timed step: a Python loop over tiny NumPy products and norms,
which tracks the interpreter-bound solves, then sums over a 4 MB array,
which tracks the memory-bound part of large pose graphs.  Each step's
seconds are reported in *reference seconds*:

    measured seconds * REF_S / mean(kernel seconds before, kernel seconds after)

A reference second is the time the step would take at the speed at which
the kernel takes ``REF_S``.  The kernel does not change with the code under
test, so a slower or faster dqopt moves the reported times in full, while a
slow spell of the machine moves the kernel and the step together.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 0.018  # median kernel time on the reference machine
ITERS = 3000
SWEEPS = 20
_A = np.random.default_rng(0).standard_normal((8, 8))
# Allocated once, so that its 4 MB is a constant part of peak_rss_mb.
_BIG = np.random.default_rng(1).standard_normal(500_000)


def kernel_seconds(reps: int) -> float:
    """Mean seconds of one kernel pass over ``reps`` passes."""
    t0 = time.perf_counter()
    for _ in range(reps):
        x = np.ones(8)
        for _ in range(ITERS):
            x = _A @ x
            x /= np.linalg.norm(x)
        for _ in range(SWEEPS):
            _BIG.sum()
    return (time.perf_counter() - t0) / reps


class Clock:
    """Kernel samples between timed steps, and the steps in reference seconds."""

    def __init__(self, reps: int):
        self.reps = reps
        kernel_seconds(1)  # warm-up, untimed
        self.samples = [kernel_seconds(reps)]

    def after_step(self, seconds: float) -> float:
        """Sample the kernel again; the step just ended, in reference seconds."""
        before = self.samples[-1]
        self.samples.append(kernel_seconds(self.reps))
        return seconds * REF_S / (0.5 * (before + self.samples[-1]))

    def factor(self) -> float:
        """Reference seconds per measured second over the whole run."""
        return REF_S / statistics.median(self.samples)
