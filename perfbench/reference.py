"""A fixed reference computation that measures how fast the host is right now.

Wall-clock on a shared virtual host drifts by 15-25 % between runs of the
same code: set-up, planning and prediction all slow down together.  The
untraced run times this computation before and after every unit, for
about 2 % of the unit's length, and divides each op's wall time by it,
so the bounded metrics are in multiples of the reference (unit ``ref``)
and a slow stretch of the host cancels out.

The computation calls no program code, so no change to the program moves
it, and no BLAS routine, so BLAS threading settings do not either.  It
mixes the kinds of work the program does: Python dictionaries and
strings, numpy element-wise work and sorting, and sparse matrix-vector
products.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp

MIN_REPEATS = 3
"""Fewest timings per reference measurement; their median is reported."""

NOMINAL_MS = 10.0
"""Reference time that ``setup_s`` is scaled to: set-up times are reported
in seconds on a host where one run of the computation takes 10 ms."""


class Reference:
    """Inputs of the reference computation, built once per run."""

    def __init__(self) -> None:
        side = 50
        line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(side, side))
        eye = sp.identity(side)
        self.laplacian = (sp.kron(eye, line) + sp.kron(line, eye)).tocsr()
        rng = np.random.default_rng(0)
        self.vector = rng.random(side * side)
        self.values = rng.random(100_000)

    def _once(self) -> float:
        start = time.perf_counter_ns()
        table = {f"node_{index}": index * 0.5 for index in range(10_000)}
        total = sum(table[f"node_{index}"] for index in range(0, 10_000, 3))
        ordered = np.sort(self.values)
        total += float(np.sqrt(ordered * 2.0 + 1.0).sum())
        vector = self.vector
        for _ in range(40):
            vector = self.laplacian @ vector
            vector /= np.abs(vector).max()
        total += float(vector.sum())
        elapsed = time.perf_counter_ns() - start
        if not np.isfinite(total):
            raise ArithmeticError("reference computation produced a non-finite value")
        return elapsed / 1e6

    def measure_ms(self, budget_ms: float = 0.0) -> float:
        """Median wall time of one run of the computation, in ms.

        Runs it :data:`MIN_REPEATS` times, and more until ``budget_ms``
        has been spent, so a long unit gets a steadier reference.
        """
        times = [self._once() for _ in range(MIN_REPEATS)]
        while sum(times) < budget_ms:
            times.append(self._once())
        return statistics.median(times)
