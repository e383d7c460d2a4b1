"""Chunk dispatch: fixed boundaries, bit identity, ordered errors."""

import numpy as np
import pytest

from repro.obs import TraceCollector
from repro.parallel import (
    chunk_kernel,
    fixed_chunks,
    run_chunk_tasks,
    run_kernel_chunks,
    shutdown_pools,
)


@chunk_kernel("tests.pool.affine")
def _affine(views, lo, hi):
    views["out"][lo:hi] = views["x"][lo:hi] * views["scale"][()] + views["bias"][lo:hi]


class TestFixedChunks:
    def test_covers_range_exactly(self):
        bounds = fixed_chunks(10, 3)
        assert bounds == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_single_chunk(self):
        assert fixed_chunks(5, 100) == [(0, 5)]

    def test_empty(self):
        assert fixed_chunks(0, 4) == []

    def test_boundaries_independent_of_worker_count(self):
        # The boundaries are a function of (n, chunk) only — there is no
        # worker-count parameter to leak in.
        assert fixed_chunks(1000, 64) == fixed_chunks(1000, 64)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_nonpositive_chunk(self, bad):
        with pytest.raises(ValueError):
            fixed_chunks(10, bad)


class TestRunChunkTasks:
    def _run(self, jobs: int) -> np.ndarray:
        rng = np.random.default_rng(7)
        x = rng.normal(size=10_000)
        out = np.empty_like(x)

        def task(lo: int, hi: int) -> None:
            out[lo:hi] = np.sqrt(np.abs(x[lo:hi])) * 3.0

        run_chunk_tasks(task, fixed_chunks(x.size, 512), jobs=jobs)
        return out

    def test_serial_and_parallel_are_bit_identical(self):
        serial = self._run(1)
        for jobs in (2, 3, 8):
            assert np.array_equal(serial, self._run(jobs))

    def test_lowest_failing_chunk_raises(self):
        def task(lo: int, hi: int) -> None:
            if lo >= 4:
                raise RuntimeError(f"chunk {lo}")

        with pytest.raises(RuntimeError, match="chunk 4"):
            run_chunk_tasks(task, fixed_chunks(12, 2), jobs=4)

    def test_counters_only_on_parallel_dispatch(self):
        collector = TraceCollector()
        run_chunk_tasks(
            lambda lo, hi: None, fixed_chunks(8, 2), jobs=1, collector=collector
        )
        assert "parallel.dispatches" not in collector.trace().counters

        run_chunk_tasks(
            lambda lo, hi: None,
            fixed_chunks(8, 2),
            jobs=2,
            collector=collector,
            stage="test.stage",
        )
        trace = collector.trace()
        assert trace.counters["parallel.dispatches"] == 1
        assert trace.counters["parallel.chunks"] == 4
        span = next(s for s in trace.spans if s.name == "parallel.dispatch")
        assert span.attrs is not None and span.attrs["stage"] == "test.stage"

    def test_shutdown_pools_is_idempotent(self):
        shutdown_pools()
        shutdown_pools()
        # Dispatch works again after a shutdown (pool is lazily rebuilt).
        out = self._run(2)
        assert out.shape == (10_000,)


class TestRunKernelChunks:
    def test_threads_match_serial(self):
        rng = np.random.default_rng(11)
        n = 4096
        x = rng.normal(size=n)
        bias = rng.normal(size=n)
        scale = np.asarray(1.75)

        def run(jobs):
            out = np.zeros(n)
            views = {"x": x, "bias": bias, "scale": scale, "out": out}
            run_kernel_chunks(
                "tests.pool.affine", views, fixed_chunks(n, 256), jobs=jobs
            )
            return out

        assert np.array_equal(run(1), run(3))
