"""The machine-speed reference: a fixed workload owned by the benchmark.

The measurement host's speed (a 2-vCPU VM) drifts by tens of percent
over minutes (other tenants share the host; steal time stays near 0, so
the guest cannot see it).  Each run times this reference around its
measured loop, and the end-to-end timings are scaled to the speed at
which the reference takes :data:`REFERENCE_SECONDS`.  Set-up is measured
before the reference is built and scaled by reference samples taken
right after it, not by the loop's.  The reference does the kinds of work
the program spends its time on - a sparse conjugate-gradient solve, a
HiGHS LP, array arithmetic and sorting, and interpreted Python - on fixed
data, and never calls the program, so a change to the program cannot
move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.optimize
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: Reference wall seconds on the 2-vCPU measurement host in a quiet
#: period: the machine speed that scaled timings are expressed at.
REFERENCE_SECONDS = 0.24
#: Least wall time between the samples taken during a measured loop.
SAMPLE_INTERVAL_S = 1.0
#: End-to-end timings of the measured loop scaled to reference speed:
#: rates are multiplied by the slowdown, durations divided by it.
#: (``setup_s`` is scaled by its own samples: :meth:`Reference.setup_s`.)
SCALED_METRICS = {
    "cells_per_s": 1,
    "req_per_s": 1,
    "latency_s_p50": -1,
    "cold_latency_s_p50": -1,
}

#: Sizes of the CG system (a 128 x 128 grid, placer-sized), the LP and
#: the array, chosen so each part takes a comparable share of a sample.
_GRID = 128
_LP_VARS, _LP_ROWS = 300, 200
_VALUES = 400_000


class Reference:
    """Fixed inputs, built once; :meth:`seconds` times one pass over them."""

    def __init__(self) -> None:
        rng = np.random.default_rng(2006)
        n = _GRID * _GRID
        line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_GRID, _GRID))
        eye = sp.identity(_GRID)
        self.laplacian = (sp.kron(line, eye) + sp.kron(eye, line)
                          + 0.01 * sp.identity(n)).tocsr()
        self.rhs = rng.random(n)
        self.lp_cost = rng.random(_LP_VARS)
        self.lp_a = -rng.random((_LP_ROWS, _LP_VARS))
        self.lp_b = -np.ones(_LP_ROWS)
        self.values = rng.random(_VALUES)
        self.samples: list[float] = []
        self._last = 0.0
        self._time()  # first calls pay one-time solver set-up

    def _time(self) -> float:
        """Wall seconds of one pass over the fixed inputs."""
        start = time.monotonic()
        for _ in range(3):
            spla.cg(self.laplacian, self.rhs, rtol=1e-8, maxiter=4000)
        scipy.optimize.linprog(self.lp_cost, A_ub=self.lp_a, b_ub=self.lp_b,
                               bounds=(0, None), method="highs")
        order = np.argsort(self.values, kind="stable")
        np.cumsum(self.values[order] * 1.0001 + 0.5)
        table: dict[int, int] = {}
        for i in range(200_000):
            key = (i * 7919) % 1009
            table[key] = table.get(key, 0) + i
        return time.monotonic() - start

    def sample(self) -> None:
        """A sample of the measured loop's speed."""
        self.samples.append(self._time())
        self._last = time.monotonic()

    def between(self) -> None:
        """A sample between operations, once every few seconds."""
        if time.monotonic() - self._last >= SAMPLE_INTERVAL_S:
            self.sample()

    def setup_s(self, setups: list[float]) -> tuple[float, list[float]]:
        """The median set-up seconds at reference speed, scaled by as many
        reference samples taken now, right after the set-up samples (they
        stay out of :meth:`slowdown`): ``(value, reference samples)``."""
        refs = [self._time() for _ in setups]
        value = statistics.median(setups) * REFERENCE_SECONDS / statistics.median(refs)
        return value, refs

    def slowdown(self) -> float:
        """Mean reference time ÷ :data:`REFERENCE_SECONDS`.  The samples
        are spread evenly over the run, so their mean follows the average
        speed the run's throughput saw (a median would miss a slow spell)."""
        return statistics.fmean(self.samples) / REFERENCE_SECONDS

    def scale(self, metrics: dict[str, tuple[float, str]]) -> dict[str, tuple[float, str]]:
        """``metrics`` with the timings expressed at reference speed."""
        factor = self.slowdown()
        return {
            name: (value * factor ** SCALED_METRICS[name], unit)
            if name in SCALED_METRICS else (value, unit)
            for name, (value, unit) in metrics.items()
        }
