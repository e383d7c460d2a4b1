"""The flow service: submission, dispatch, caching, load shedding.

:class:`FlowService` is the transport-independent core that
:mod:`repro.server.http` exposes over HTTP.  One dispatcher thread pulls
queued jobs and runs them in waves of at most ``workers`` jobs, one
process per job, via :func:`repro.server.pool.run_wave`: per-job
deadlines, each crash or timeout charged to the job that caused it, and
bounded exponential-backoff retries.  It is the repo's one job
scheduler — the parallel table suite
(:func:`repro.experiments.parallel.run_parallel_suite`) submits its
(circuit x engine) flows to an in-process service and waits for them.

Load shedding has three knobs:

* **queue depth** — :meth:`submit` raises
  :class:`~repro.errors.SaturatedError` when the queue is full;
* **per-request deadline** — ``request.deadline_seconds`` (or the
  server default) bounds a job's total latency; a job still queued past
  its deadline is failed with kind ``"timeout"`` instead of run, and a
  running job's process is killed when its deadline passes;
* **worker count** — the wave size, bounding concurrent flows.

The shared :class:`~repro.server.cache.ResultCache` is consulted at
submit time: a digest hit completes the job instantly with the stored
response document (annotated ``cached: true`` on a copy — the embedded
result bytes are untouched).

Execution modes: ``"process"`` (default; crash/timeout isolation,
post-hoc iteration events from the result history) and ``"inline"``
(jobs run on the dispatcher thread itself — no isolation or retries,
but :class:`~repro.core.flow.IterationRecord` events stream live as the
flow produces them; also the mode for environments where worker
processes are unavailable).  Both modes execute a job through the same
:func:`~repro.server.worker.execute_request_payload`, under the same
intra-run worker budget.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Literal, Mapping

from ..api import JobError, JobState, _check_fields, _is_count, _is_seconds
from ..core import IterationRecord
from ..errors import ServerError
from ..obs import NULL_COLLECTOR, Collector
from .cache import ResultCache
from .jobs import Job, JobStore, Request
from .pool import WaveTask, backoff_delay, run_wave
from .worker import execute_request_payload


@dataclass(frozen=True, slots=True, kw_only=True)
class ServerOptions:
    """Configuration of one :class:`FlowService`."""

    #: Job processes run at once (the maximum wave size).
    workers: int = 2
    #: Queued jobs beyond which submits are shed with 503.
    max_queue_depth: int = 64
    #: Result-cache entries kept (LRU).
    cache_capacity: int = 256
    #: Deadline applied to requests that do not carry their own (None =
    #: jobs may wait and run indefinitely).
    default_deadline_seconds: float | None = None
    #: Per-attempt wall-clock limit inside a worker (None = unlimited).
    task_timeout_seconds: float | None = None
    #: Retries after the first attempt of a crashed/timed-out/erroring job.
    max_retries: int = 0
    #: Base of the exponential backoff between attempts (seconds).
    retry_backoff_seconds: float = 0.5
    #: ``Retry-After`` hint returned with 503 responses (seconds).
    retry_after_seconds: float = 1.0
    #: Job execution: isolated worker processes or the dispatcher thread.
    execution: Literal["process", "inline"] = "process"
    #: Dispatcher idle poll (seconds) — bounds shutdown latency.
    poll_seconds: float = 0.05
    #: Intra-run worker budget applied to each job's ``options.jobs``
    #: (the :mod:`repro.parallel` chunk pools).  ``"auto"`` divides the
    #: machine between concurrent jobs: ``cpu_count // workers`` in
    #: process mode (floor 1), the full ``cpu_count`` inline, where only
    #: one job runs at a time.  ``jobs`` is execution-only, so the
    #: rewrite never forks cache or checkpoint keys.
    intra_jobs: int | Literal["auto"] = "auto"

    def __post_init__(self) -> None:
        """Reject settings no scheduler honours, naming field and value."""
        count, seconds = "an integer >= 1", "a finite number >= 0"
        deadline = "None or a finite number > 0"
        _check_fields(
            self,
            (
                ("workers", _is_count(self.workers, 1), count),
                ("max_queue_depth", _is_count(self.max_queue_depth, 1), count),
                ("cache_capacity", _is_count(self.cache_capacity, 1), count),
                (
                    "default_deadline_seconds",
                    _is_deadline(self.default_deadline_seconds),
                    deadline,
                ),
                (
                    "task_timeout_seconds",
                    _is_deadline(self.task_timeout_seconds),
                    deadline,
                ),
                ("max_retries", _is_count(self.max_retries, 0), "an integer >= 0"),
                (
                    "retry_backoff_seconds",
                    _is_seconds(self.retry_backoff_seconds),
                    seconds,
                ),
                (
                    "retry_after_seconds",
                    _is_seconds(self.retry_after_seconds),
                    seconds,
                ),
                (
                    "execution",
                    self.execution in ("process", "inline"),
                    "'process' or 'inline'",
                ),
                (
                    "poll_seconds",
                    _is_seconds(self.poll_seconds, positive=True),
                    "a finite number > 0",
                ),
                (
                    "intra_jobs",
                    self.intra_jobs == "auto" or _is_count(self.intra_jobs, 1),
                    "an integer >= 1 or 'auto'",
                ),
            ),
            ServerError,
        )


def _is_deadline(value: float | None) -> bool:
    """``value`` is ``None`` (no deadline) or finite seconds ``> 0``."""
    return value is None or _is_seconds(value, positive=True)


def _budget_intra_jobs(options: ServerOptions) -> int:
    """Per-job intra-run worker budget for this service configuration.

    Keeps the two parallelism layers from multiplying: ``workers``
    concurrent jobs each get an equal share of the machine's cores for
    their :mod:`repro.parallel` chunk pools.  Inline execution runs one
    job at a time on the dispatcher thread, so it gets every core.
    """
    if isinstance(options.intra_jobs, int):
        return options.intra_jobs
    cores = max(1, os.cpu_count() or 1)
    if options.execution == "inline":
        return cores
    return max(1, cores // options.workers)


class FlowService:
    """Digest-cached async execution of flow/check/tables requests."""

    def __init__(
        self,
        options: ServerOptions | None = None,
        collector: Collector = NULL_COLLECTOR,
    ) -> None:
        self.options = options or ServerOptions()
        self.intra_jobs = _budget_intra_jobs(self.options)
        self.collector = collector
        self.cache = ResultCache(
            self.options.cache_capacity, collector=collector
        )
        self.jobs = JobStore(self.options.max_queue_depth)
        self.shed_queue_full = 0
        self.shed_deadline = 0
        #: Failed attempts by kind, and attempts requeued for a retry.
        self.crashes = 0
        self.errors = 0
        self.timeouts = 0
        self.retries = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def start(self) -> "FlowService":
        if self._thread is not None:
            raise ServerError("FlowService already started")
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="repro-dispatcher", daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop the dispatcher (waits for the in-flight wave to land).

        Jobs still queued, or waiting out a retry backoff, are not run.
        """
        self._stop.set()
        self.jobs.stop()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "FlowService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Submission (HTTP thread side).
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> Job:
        """Register a request as a job: cache-served, or queued to run.

        Raises :class:`~repro.errors.SaturatedError` when the queue is
        full (the caller maps it to ``503 + Retry-After``).
        """
        kind = type(request).kind
        digest = request.digest()
        circuit = getattr(request, "circuit", "") or "-"
        self.collector.count("server.requests")
        self.collector.count(f"server.requests.{kind}")
        cached_doc = self.cache.get(digest)
        if cached_doc is not None:
            job = self.jobs.create(kind, request, digest, circuit)
            served = dict(cached_doc)
            served["cached"] = True
            self.jobs.finish_cached(job.job_id, served)
            return self.jobs.get(job.job_id)
        deadline = request.deadline_seconds
        if deadline is None:
            deadline = self.options.default_deadline_seconds
        job = self.jobs.create(
            kind, request, digest, circuit, deadline_seconds=deadline
        )
        try:
            self.jobs.enqueue(
                job, retry_after_seconds=self.options.retry_after_seconds
            )
        except ServerError:
            self.shed_queue_full += 1
            self.collector.count("server.shed-queue-full")
            raise
        return job

    def stats(self) -> dict[str, Any]:
        """Service-level statistics document (``GET /v1/stats``)."""
        return {
            "cache": self.cache.stats(),
            "jobs": self.jobs.counts(),
            "queue_depth": self.jobs.queue_depth(),
            "shed": {
                "queue_full": self.shed_queue_full,
                "deadline": self.shed_deadline,
            },
            "failures": {
                "crash": self.crashes,
                "error": self.errors,
                "timeout": self.timeouts,
            },
            "retries": self.retries,
            "workers": self.options.workers,
            "execution": self.options.execution,
            "intra_jobs": self.intra_jobs,
        }

    # ------------------------------------------------------------------
    # Dispatcher (single background thread).
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        pending: list[WaveTask] = []
        opts = self.options
        while True:
            now = time.monotonic()
            due = [t for t in pending if t.not_before <= now]
            room = opts.workers - len(due)
            if room > 0:
                block = opts.poll_seconds if not pending else 0.0
                for job in self.jobs.claim(room, timeout=block):
                    # Fresh clock: claim() may have blocked past `now`,
                    # and an expired job must shed, not run.
                    task = self._admit(job, time.monotonic())
                    if task is not None:
                        pending.append(task)
                        due.append(task)
            if self._stop.is_set():
                # Queued jobs and retries not yet due are abandoned:
                # after close() nobody collects their results.
                break
            if not due:
                if pending:
                    wake = min(t.not_before for t in pending)
                    time.sleep(
                        min(opts.poll_seconds, max(0.0, wake - now))
                    )
                continue
            wave = due[: opts.workers]
            pending = [t for t in pending if t not in wave]
            pending.extend(self._run_jobs(wave))

    def _admit(self, job: Job, now: float) -> WaveTask | None:
        """Queued job -> wave task; sheds jobs already past deadline."""
        if job.deadline_at is not None and now > job.deadline_at:
            self._shed_deadline(job.job_id, 0)
            return None
        self.jobs.mark_running(job.job_id, attempt=1)
        return WaveTask(
            key=job.job_id,
            payload={
                "kind": job.kind,
                "attempt": 1,
                "request": job.request.to_dict(),
                "intra_jobs": self.intra_jobs,
            },
            deadline_at=job.deadline_at,
        )

    def _shed_deadline(self, job_id: str, attempts: int) -> None:
        self.shed_deadline += 1
        self.collector.count("server.shed-deadline")
        self.jobs.fail(
            job_id,
            JobError(
                kind="timeout",
                message="deadline exceeded",
                attempts=max(1, attempts),
            ),
        )

    def _run_jobs(self, wave: list[WaveTask]) -> list[WaveTask]:
        """Execute one wave; returns the tasks to retry."""
        if self.options.execution == "inline":
            for task in wave:
                self._run_inline(task)
            return []
        return self._run_process_wave(wave)

    def _run_process_wave(self, wave: list[WaveTask]) -> list[WaveTask]:
        opts = self.options
        ok, failed = run_wave(
            execute_request_payload,
            wave,
            timeout=opts.task_timeout_seconds,
            collector=self.collector,
        )
        for job_id in sorted(ok):
            self._emit_iteration_events(str(job_id), ok[job_id]["response"])
            self._complete(str(job_id), ok[job_id])
        requeue: list[WaveTask] = []
        for task, kind, message in failed:
            job_id = str(task.key)
            self._count_failure(kind)
            if (
                kind == "timeout"
                and task.deadline_at is not None
                and time.monotonic() >= task.deadline_at
            ):
                self._shed_deadline(job_id, task.attempt)
                continue
            if task.attempt > opts.max_retries:
                self.collector.count("server.jobs-failed")
                self.jobs.fail(
                    job_id,
                    JobError(
                        kind=kind, message=message, attempts=task.attempt
                    ),
                )
                continue
            self.retries += 1
            self.collector.count("server.retries")
            task.attempt += 1
            task.payload["attempt"] = task.attempt
            # Already RUNNING, so this only records the attempt count.
            self.jobs.mark_running(job_id, attempt=task.attempt)
            task.not_before = time.monotonic() + backoff_delay(
                opts.retry_backoff_seconds, task.attempt
            )
            requeue.append(task)
        return requeue

    def _count_failure(self, kind: str) -> None:
        """Tally one failed attempt by its kind."""
        if kind == "crash":
            self.crashes += 1
        elif kind == "timeout":
            self.timeouts += 1
        else:
            self.errors += 1
        self.collector.count(f"server.failures.{kind}")

    def _complete(self, job_id: str, payload: Mapping[str, Any]) -> None:
        """Fold the worker's trace into the collector; finish and cache."""
        self.collector.gauge(
            f"server.job-seconds.{job_id}", float(payload["seconds"])
        )
        self.collector.merge_counters(payload.get("counters", {}))
        self.collector.merge_gauges(payload.get("gauges", {}))
        doc = dict(payload["response"])
        digest = str(doc.get("request_digest", ""))
        if digest:
            self.cache.put(digest, doc)
        self.collector.count("server.jobs-completed")
        self.jobs.finish(job_id, doc)

    def _emit_iteration_events(
        self, job_id: str, doc: Mapping[str, Any]
    ) -> None:
        """Post-hoc iteration events from a flow result's history.

        Process-mode workers cannot stream records as they happen; the
        history in the result document carries the same records, so the
        ``/events`` endpoint sees identical content either way.
        """
        result = doc.get("result")
        if not isinstance(result, Mapping):
            return
        history = result.get("history")
        if not isinstance(history, list):
            return
        for record in history:
            self.jobs.add_event(
                job_id, {"event": "iteration", "record": record}
            )

    def _run_inline(self, task: WaveTask) -> None:
        """Run one job on the dispatcher thread with live event streaming."""
        job_id = str(task.key)

        def on_iteration(record: IterationRecord) -> None:
            self.jobs.add_event(
                job_id, {"event": "iteration", "record": record.to_dict()}
            )

        try:
            payload = execute_request_payload(task.payload, on_iteration)
        except Exception as exc:  # repro: lint-disable=API002 -- fault boundary: an inline job failure of any type must become a FAILED job, not kill the dispatcher thread
            self._count_failure("error")
            self.collector.count("server.jobs-failed")
            self.jobs.fail(
                job_id,
                JobError(
                    kind="error",
                    message=f"{type(exc).__name__}: {exc}",
                    attempts=task.attempt,
                ),
            )
            return
        self._complete(job_id, payload)

    # ------------------------------------------------------------------
    # Convenience for tests and the CLI.
    # ------------------------------------------------------------------
    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until the job reaches a terminal state (or timeout)."""
        return self.jobs.wait_terminal(job_id, timeout)

    def result_doc(self, job_id: str) -> dict[str, Any]:
        """The response document of a DONE job (raises otherwise)."""
        job = self.jobs.get(job_id)
        if job.state is not JobState.DONE or job.result_doc is None:
            raise ServerError(
                f"job {job_id} has no result (state {job.state.value})"
            )
        return job.result_doc


__all__ = ["FlowService", "ServerOptions"]
