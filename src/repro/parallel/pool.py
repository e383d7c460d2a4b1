"""The persistent worker pool and deterministic chunk dispatch.

The pool is process-global and lazily started: the first dispatch that
needs ``w`` workers creates (or widens) it, and every later dispatch
reuses it — a flow iterating the Fig. 3 loop pays thread startup once,
not once per stage per iteration.  A forked child drops the pool it
inherits, whose threads do not exist there, and starts its own.  Chunks
run on a ``ThreadPoolExecutor``: the dispatched kernels are
NumPy-dominated and release the GIL inside ufunc loops, so threads
scale without any data movement.

Determinism: chunk boundaries depend only on ``(n, chunk_width)``;
every chunk writes disjoint output slices; completion is awaited in
submission (chunk) order, so the earliest failing chunk raises
deterministically regardless of scheduling.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Mapping, Sequence

import numpy.typing as npt

from ..obs import NULL_COLLECTOR, Collector
from .registry import resolve_kernel

ChunkBounds = tuple[int, int]
ChunkTask = Callable[[int, int], None]

_POOL_LOCK = threading.Lock()
_THREAD_POOL: ThreadPoolExecutor | None = None
_THREAD_POOL_WIDTH = 0


def fixed_chunks(n: int, chunk: int) -> list[ChunkBounds]:
    """Half-open ``[lo, hi)`` bounds covering ``range(n)`` in fixed steps.

    The boundaries are a pure function of ``(n, chunk)`` — notably *not*
    of the worker count — which is the first half of the determinism
    contract (the second half is disjoint output slices per chunk).
    """
    if chunk <= 0:
        raise ValueError("chunk width must be positive")
    return [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]


def _thread_pool(width: int) -> ThreadPoolExecutor:
    """The shared thread pool, widened (never shrunk) to ``width``."""
    global _THREAD_POOL, _THREAD_POOL_WIDTH
    with _POOL_LOCK:
        if _THREAD_POOL is None or _THREAD_POOL_WIDTH < width:
            # Never shut the old pool down here: another dispatch may be
            # mid-flight on it.  Orphaned pools drain and get collected.
            _THREAD_POOL = ThreadPoolExecutor(
                max_workers=width, thread_name_prefix="repro-parallel"
            )
            _THREAD_POOL_WIDTH = width
        return _THREAD_POOL


def _forget_pool_in_child() -> None:
    """A forked child has none of its parent's pool threads, so a pool it
    inherited would queue chunks that no thread ever runs: start afresh."""
    global _POOL_LOCK, _THREAD_POOL, _THREAD_POOL_WIDTH
    _POOL_LOCK = threading.Lock()
    _THREAD_POOL, _THREAD_POOL_WIDTH = None, 0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool_in_child)


def shutdown_pools() -> None:
    """Tear down the shared pool (tests / interpreter shutdown only)."""
    global _THREAD_POOL, _THREAD_POOL_WIDTH
    with _POOL_LOCK:
        thread_pool, _THREAD_POOL, _THREAD_POOL_WIDTH = _THREAD_POOL, None, 0
    if thread_pool is not None:
        thread_pool.shutdown(wait=True)


def run_chunk_tasks(
    task: ChunkTask,
    bounds: Sequence[ChunkBounds],
    *,
    jobs: int = 1,
    collector: Collector = NULL_COLLECTOR,
    stage: str = "chunks",
) -> None:
    """Run ``task(lo, hi)`` over every chunk, on pool threads when ``jobs > 1``.

    ``task`` must write only to preallocated output slices that are
    disjoint across chunks; under that contract the result is
    bit-identical to the serial loop for any ``jobs``.  Every chunk is
    submitted before any is awaited, and the futures are awaited in
    chunk order, so the lowest-index failing chunk is the one that
    raises, whichever failed first on the wall clock.
    """
    if jobs <= 1 or len(bounds) <= 1:
        for lo, hi in bounds:
            task(lo, hi)
        return
    workers = min(jobs, len(bounds))
    collector.count("parallel.dispatches")
    collector.count("parallel.chunks", len(bounds))
    collector.gauge("parallel.workers", workers)
    with collector.span(
        "parallel.dispatch", stage=stage, chunks=len(bounds), workers=workers
    ):
        pool = _thread_pool(workers)
        futures = [pool.submit(task, lo, hi) for lo, hi in bounds]
        for future in futures:
            future.result()


def run_kernel_chunks(
    name: str,
    views: Mapping[str, npt.NDArray[Any]],
    bounds: Sequence[ChunkBounds],
    *,
    jobs: int = 1,
    collector: Collector = NULL_COLLECTOR,
    stage: str | None = None,
) -> None:
    """Run the registered kernel ``name`` over fixed chunks of ``views``.

    The kernel reads its inputs from ``views`` and fills the ``[lo:hi)``
    slices of the caller's output arrays in place; dispatch is
    :func:`run_chunk_tasks`, so ``jobs=1`` runs the chunks inline.
    """
    kernel = resolve_kernel(name)

    def task(lo: int, hi: int) -> None:
        kernel(views, lo, hi)

    run_chunk_tasks(
        task,
        bounds,
        jobs=jobs,
        collector=collector,
        stage=stage if stage is not None else name,
    )
