"""Wave-scheduled process-pool execution for the flow service.

The process-mode dispatcher of :class:`~repro.server.service.FlowService`
runs its jobs through :func:`run_wave`, which gives process fan-out
three guarantees:

* **honest deadlines** — a wave never exceeds the worker count, so every
  submitted task starts executing immediately and its wall-clock timeout
  measures the task, not queue time;
* **hung-worker teardown** — a timeout or worker death abandons the
  whole pool generation (:func:`drain_pool` terminates anything still
  alive); tasks that neither finished nor caused the teardown are
  reported unpenalized so the dispatcher requeues them at the same
  attempt;
* **bounded exponential backoff** — :func:`backoff_delay` is the one
  formula between retries.

Task functions must be module-level picklable (they run in
``ProcessPoolExecutor`` workers) and receive the task's ``payload``
dict.
"""

from __future__ import annotations

import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Mapping, Sequence

from ..obs import NULL_COLLECTOR, Collector

#: One soft failure: ``(task, kind, message, penalize)``.  ``kind`` is
#: ``"timeout"``, ``"crash"``, ``"error"``, or ``"aborted"``;
#: ``penalize`` is False for innocent victims of a torn-down generation.
WaveFailure = tuple["WaveTask", str, str, bool]


@dataclass(slots=True)
class WaveTask:
    """Mutable scheduling state of one pool task."""

    key: Hashable
    payload: dict[str, Any]
    attempt: int = 1
    #: Monotonic timestamp before which the task must not run (backoff).
    not_before: float = 0.0
    #: Monotonic instant the job's deadline passes (None = no deadline).
    deadline_at: float | None = None


def backoff_delay(backoff_seconds: float, attempt: int) -> float:
    """Seconds to wait before retry ``attempt`` (exponential, base 2).

    ``attempt`` is the attempt about to run (2 for the first retry), so
    the first retry waits ``backoff_seconds`` and each later one doubles.
    """
    return backoff_seconds * 2.0 ** (attempt - 2)


def drain_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a (possibly hung or broken) pool generation down for good.

    ``shutdown`` alone never kills a hung worker — the interpreter would
    block on it at exit — so any worker still alive is terminated.
    ``_processes`` is a CPython implementation detail, stable since 3.7;
    the getattr guard keeps alternative interpreters merely slower, not
    broken.
    """
    procs = list(getattr(pool, "_processes", {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    for proc in procs:
        proc.join(timeout=5.0)


def run_wave(
    fn: Callable[[Mapping[str, Any]], dict[str, Any]],
    wave: Sequence[WaveTask],
    *,
    workers: int,
    timeout: float | None,
    collector: Collector = NULL_COLLECTOR,
) -> tuple[dict[Hashable, dict[str, Any]], list[WaveFailure]]:
    """One pool generation over at most ``workers`` tasks.

    Submits ``fn(task.payload)`` for every task on a fresh
    ``ProcessPoolExecutor``, waits out the shared ``timeout`` (seconds of
    wall clock for the whole wave — honest because the wave fits the
    worker count), and returns completed payloads keyed by task key plus
    the soft failures.  A timeout or worker death abandons the
    generation: its processes are terminated, already-finished futures
    are salvaged, and untouched wave-mates come back as unpenalized
    ``"aborted"`` failures.
    """
    ok: dict[Hashable, dict[str, Any]] = {}
    failed: list[WaveFailure] = []
    pool = ProcessPoolExecutor(max_workers=max(1, min(workers, len(wave))))
    broken = False
    try:
        with collector.span("server.wave", tasks=len(wave)):
            futures = [(task, pool.submit(fn, task.payload)) for task in wave]
            deadline = (
                None if timeout is None else time.monotonic() + timeout
            )
            for task, future in futures:
                if broken:
                    # The generation is being abandoned; salvage whatever
                    # already finished.
                    if future.done():
                        _collect_done(task, future, ok, failed)
                    else:
                        failed.append((task, "aborted", "", False))
                    continue
                try:
                    remaining = (
                        None
                        if deadline is None
                        else max(0.0, deadline - time.monotonic())
                    )
                    ok[task.key] = future.result(timeout=remaining)
                except FutureTimeoutError:
                    failed.append(
                        (
                            task,
                            "timeout",
                            f"exceeded {timeout:.1f}s deadline",
                            True,
                        )
                    )
                    broken = True
                except BrokenExecutor:
                    failed.append(
                        (task, "crash", "worker process died", True)
                    )
                    broken = True
                except Exception as exc:  # repro: lint-disable=API002 -- fault boundary: a worker exception of any type must become a failure record
                    failed.append(
                        (task, "error", f"{type(exc).__name__}: {exc}", True)
                    )
    finally:
        if broken:
            drain_pool(pool)
        else:
            pool.shutdown(wait=True)
    return ok, failed


def _collect_done(
    task: WaveTask,
    future: Any,
    ok: dict[Hashable, dict[str, Any]],
    failed: list[WaveFailure],
) -> None:
    """Harvest an already-done future during generation teardown."""
    try:
        ok[task.key] = future.result(timeout=0)
    except BrokenExecutor:
        failed.append((task, "aborted", "", False))
    except Exception as exc:  # repro: lint-disable=API002 -- fault boundary: harvested futures surface arbitrary worker exception types
        failed.append((task, "error", f"{type(exc).__name__}: {exc}", True))


__all__ = [
    "WaveFailure",
    "WaveTask",
    "backoff_delay",
    "drain_pool",
    "run_wave",
]
