"""Machine-speed reference for the benchmark's timings.

On a shared host the speed available to one process drifts by ±20% over
tens of seconds, which swamps run-to-run differences. The benchmark runs a
fixed reference mix before and after set-up and after every epoch, and
scales each timing by NOMINAL_S / (mean reference time around it), so
every reported time is the time the work would take at the speed where one
mix takes NOMINAL_S. The mix
uses only numpy and scipy, never the program under test, and follows the
program's profile: small-array numpy calls driven from Python, a sparse
product, and a large sort. Raw timings are printed next to scaled ones.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

# Time of one mix on an uncontended 2-core x86_64 host, numpy 2.4, scipy 1.17.
NOMINAL_S = 0.05
# Mixes per measurement: enough to average the host's sub-second swings.
REPEATS = 4


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0x5EED)
        self._small = rng.random(16)
        n, nnz = 20_000, 160_000
        self._sparse = sp.csr_matrix(
            (np.ones(nnz), (rng.integers(0, n, nnz), rng.integers(0, n, nnz))), shape=(n, n)
        )
        self._vector = rng.random(400_000)

    def _mix(self):
        small = self._small
        for i in range(1500):
            g = np.random.Generator(np.random.PCG64(np.random.SeedSequence([7, i])))
            cdf = np.cumsum(small)
            np.searchsorted(cdf, g.random() * cdf[-1])
        (self._sparse @ self._sparse).nnz
        np.sort(self._vector)

    def seconds(self) -> float:
        """Mean time of one mix over REPEATS back-to-back mixes."""
        t0 = time.perf_counter()
        for _ in range(REPEATS):
            self._mix()
        return (time.perf_counter() - t0) / REPEATS

    def scale(self, before: float, after: float) -> float:
        """Factor from raw seconds to seconds at nominal speed, for work
        that ran between two reference measurements."""
        return NOMINAL_S / (0.5 * (before + after))
