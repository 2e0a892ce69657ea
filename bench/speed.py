"""Correction of timings for the machine's speed during a run.

On a shared machine, the same code runs up to about twice as slow
for stretches of seconds to minutes while other tenants load it. A
fixed kernel that never calls the program is timed right before and
right after every piece of timed work: every set-up probe and every
round. Each piece's wall time is scaled to a machine on which the
kernel takes NOMINAL_S, using the two kernel times around it:

    scaled = wall * NOMINAL_S / mean(kernel before, kernel after)

Pieces are kept short (a few seconds at most), so the kernel samples
the same load phase as the piece it brackets.

The kernel mixes what the program spends its time on: interpreted
Python, many small numpy calls and one sparse LU solve.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import reference

# The kernel's median time on a quiet stretch of a 2-core x86-64 VM
# (Python 3.11, numpy 2.4, scipy 1.17); scaled times are in these units.
NOMINAL_S = 0.0225


class Speed:
    """Samples the kernel's time around timed work; scales that work."""

    def __init__(self):
        rng = np.random.default_rng(0)
        mats = rng.uniform(0.1, 1.0, (30, 8, 8))
        self._chains = mats / mats.sum(axis=2, keepdims=True)
        n = 20_000
        self._a = sp.diags(
            [np.full(n - 1, -1.0), np.full(n, 4.0), np.full(n - 1, -1.0), np.full(n - 7, -0.5)],
            [-1, 0, 1, 7],
            format="csc",
        )
        self._b = np.ones(n)
        self.samples = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        for P in self._chains:
            reference.stationary(P)
        acc = 0
        for i in range(150_000):
            acc += i * i
        spla.spsolve(self._a, self._b)
        self.samples.append(time.perf_counter() - t0)

    def timed(self, work):
        """Run work() right after the latest kernel sample and take
        another right after it; work()'s result, wall time and scaled time.
        Call sample() first whenever untimed work came since the latest."""
        before = self.samples[-1]
        t0 = time.perf_counter()
        out = work()
        wall = time.perf_counter() - t0
        self.sample()
        return out, wall, wall * NOMINAL_S / (0.5 * (before + self.samples[-1]))
