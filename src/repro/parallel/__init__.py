"""Intra-run multicore execution: the deterministic worker layer.

Every kernel on the Fig. 3 critical path is vectorized, but a single
flow run historically used exactly one core — all pre-existing
parallelism is *across* runs (table waves in
:mod:`repro.experiments.pool`, server jobs in :mod:`repro.server`).
This package parallelizes *inside* one run: hot loops split their work
into **fixed chunks** and dispatch the chunks to a persistent,
lazily-started worker pool.

Determinism contract (non-negotiable):

* chunk boundaries are a pure function of the input size and a fixed
  chunk width — never of the worker count;
* every chunk writes to a disjoint, preallocated slice of the output
  arrays (no shared accumulators), and any cross-chunk reduction is
  folded left in chunk order on the dispatching thread;
* therefore results are bit-identical for ``jobs=1``, ``jobs=N``, and
  ``jobs="auto"``.

Two dispatch surfaces, both on one persistent thread pool (the chunk
kernels are NumPy-bound and release the GIL inside ufunc loops):

* :func:`run_chunk_tasks` — closure-based dispatch;
* :func:`run_kernel_chunks` — dispatch of a *registered* chunk kernel
  (see :func:`chunk_kernel`) over a dict of named arrays.

Worker counts resolve through :func:`resolve_jobs`:
``FlowOptions(jobs=...)`` < ``REPRO_JOBS`` (the environment variable
wins so CI and the server can rebudget without touching request
documents — ``jobs`` is execution-only and digest-exempt either way).
"""

from .jobs import JOBS_ENV_VAR, jobs_from_env, parse_jobs, resolve_jobs
from .pool import (
    ChunkBounds,
    fixed_chunks,
    run_chunk_tasks,
    run_kernel_chunks,
    shutdown_pools,
)
from .registry import ChunkKernel, chunk_kernel, registered_kernels, resolve_kernel

__all__ = [
    "ChunkBounds",
    "ChunkKernel",
    "JOBS_ENV_VAR",
    "chunk_kernel",
    "fixed_chunks",
    "jobs_from_env",
    "parse_jobs",
    "registered_kernels",
    "resolve_jobs",
    "resolve_kernel",
    "run_chunk_tasks",
    "run_kernel_chunks",
    "shutdown_pools",
]
