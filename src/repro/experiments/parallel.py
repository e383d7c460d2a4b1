"""Parallel, fault-tolerant experiment orchestration.

The serial :class:`~repro.experiments.runner.ExperimentSuite` runs every
circuit and both assignment engines strictly back to back; this module
fans the (circuit x engine) task matrix out over a
:class:`concurrent.futures.ProcessPoolExecutor` and hardens every task:

* **per-task timeouts** — tasks are dispatched in waves no larger than
  the worker count (so every submitted task starts immediately and its
  wall-clock deadline is honest); a task that exceeds the deadline has
  its whole pool generation torn down (hung workers are terminated) and
  is requeued, while innocent wave-mates are requeued without penalty;
* **bounded retries with exponential backoff** — a crashed (killed
  worker), timed-out, or erroring task is retried up to
  ``max_retries`` times, waiting ``backoff_seconds * 2**(attempt-1)``
  between attempts;
* **checkpoint/resume** — completed circuits are written through the
  suite's :class:`~repro.experiments.checkpoint.CheckpointStore`; with
  ``suite.resume`` they are served from disk and never re-run;
* **trace merging** — each worker runs its flow under a recording
  collector and ships the final counters/gauges home, where they are
  folded into the parent collector next to the runner's own task
  latency, retry, timeout, and crash metrics.

Each task is a :class:`~repro.api.FlowRequest` wire document, executed
by :func:`repro.server.worker.execute_request_payload` — the function
the flow service runs — which returns a ``FlowResponse`` document
rather than a live object; the parent rebuilds the result with
``FlowResult.from_dict``, the exact code path a checkpoint load takes.
Every float survives both trips bit-identically, so a parallel, a
resumed, and a serial suite produce the same tables.  The worker's
``REPRO_EXPERIMENTS_FAULT`` hook injects crashes, hangs, and errors
into chosen (circuit, engine) tasks for tests and CI smoke runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Mapping

from ..api import FlowRequest
from ..core import FlowResult
from ..obs import NULL_COLLECTOR, Collector
from .pool import WaveFailure, WaveTask, backoff_delay, run_wave
from .runner import ExperimentSuite

ENGINES = ("flow", "ilp")


@dataclass(frozen=True, slots=True)
class ParallelOptions:
    """Configuration of the parallel runner."""

    #: Worker processes (and the maximum wave size).
    workers: int = 2
    #: Per-task wall-clock deadline in seconds (None disables).
    timeout: float | None = None
    #: Retries after the first attempt of each task.
    max_retries: int = 2
    #: Base of the exponential backoff between attempts (seconds).
    backoff_seconds: float = 0.5


@dataclass(frozen=True, slots=True)
class TaskFailure:
    """One task that exhausted its retry budget."""

    circuit: str
    engine: str
    #: ``"crash"`` (worker died), ``"timeout"``, or ``"error"`` (raised).
    kind: str
    attempts: int
    message: str


@dataclass(frozen=True, slots=True)
class SuiteRunReport:
    """Outcome and fault statistics of one parallel suite run."""

    #: Circuits whose experiments were computed this run.
    completed: tuple[str, ...]
    #: Circuits served from the checkpoint store (resume).
    resumed: tuple[str, ...]
    #: Circuits that could not be completed, with their task failures.
    failed: tuple[TaskFailure, ...]
    retries: int
    timeouts: int
    crashes: int
    seconds: float

    @property
    def ok(self) -> bool:
        return not self.failed


class ParallelSuiteRunner:
    """Fans a suite's (circuit x engine) matrix over worker processes."""

    def __init__(
        self,
        suite: ExperimentSuite,
        options: ParallelOptions | None = None,
        collector: Collector = NULL_COLLECTOR,
    ) -> None:
        self.suite = suite
        self.options = options or ParallelOptions()
        if self.options.workers < 1:
            raise ValueError("ParallelOptions.workers must be >= 1")
        self.collector = collector

    # ------------------------------------------------------------------
    def _task_for(self, name: str, engine: str) -> WaveTask:
        request = FlowRequest(
            circuit=name,
            options=self.suite.options_for(name, engine),
            tech=self.suite.tech,
        )
        payload = {"kind": "flow", "attempt": 1, "request": request.to_dict()}
        return WaveTask(key=(name, engine), payload=payload)

    def run(self) -> SuiteRunReport:
        """Run every missing circuit; returns the fault-statistics report.

        Completed circuits land in the suite's cache (and checkpoint
        store); failed ones land in ``suite.failures`` so the table
        generators degrade to annotated partial rows.
        """
        opts = self.options
        suite = self.suite
        t_start = time.perf_counter()

        resumed: list[str] = []
        todo: list[str] = []
        for name in suite.names:
            if suite.is_cached(name):
                continue
            if suite.load_checkpoint(name) is not None:
                resumed.append(name)
                self.collector.count("experiments.checkpoint-loads")
                continue
            todo.append(name)

        pending: list[WaveTask] = [
            self._task_for(name, engine)
            for name in todo
            for engine in ENGINES
        ]
        self.collector.count("experiments.tasks-scheduled", len(pending))
        results: dict[tuple[str, str], dict[str, Any]] = {}
        failures: list[TaskFailure] = []
        retries = timeouts = crashes = 0

        while pending:
            now = time.monotonic()
            due = [t for t in pending if t.not_before <= now]
            if not due:
                time.sleep(
                    max(0.0, min(t.not_before for t in pending) - now)
                )
                continue
            # Waves never exceed the worker count: every submitted task
            # starts executing immediately, so its deadline is honest.
            wave = due[: opts.workers]
            pending = [t for t in pending if t not in wave]
            done, soft_failed = self._run_wave(wave)
            results.update(done)

            for task, kind, message, penalize in soft_failed:
                if not penalize:
                    # Innocent victim of a torn-down pool generation:
                    # requeue at the same attempt, no backoff.
                    pending.append(task)
                    continue
                if kind == "timeout":
                    timeouts += 1
                    self.collector.count("experiments.timeouts")
                elif kind == "crash":
                    crashes += 1
                    self.collector.count("experiments.crashes")
                task.last_kind = kind
                task.last_message = message
                circuit_name, engine = task.key
                if task.attempt > opts.max_retries:
                    failures.append(
                        TaskFailure(
                            circuit=str(circuit_name),
                            engine=str(engine),
                            kind=kind,
                            attempts=task.attempt,
                            message=message,
                        )
                    )
                    self.collector.count("experiments.task-failures")
                    continue
                retries += 1
                self.collector.count("experiments.retries")
                task.attempt += 1
                task.payload["attempt"] = task.attempt
                task.not_before = time.monotonic() + backoff_delay(
                    opts.backoff_seconds, task.attempt
                )
                pending.append(task)

        completed = self._assemble(todo, results, failures)
        return SuiteRunReport(
            completed=tuple(completed),
            resumed=tuple(resumed),
            failed=tuple(failures),
            retries=retries,
            timeouts=timeouts,
            crashes=crashes,
            seconds=time.perf_counter() - t_start,
        )

    # ------------------------------------------------------------------
    def _run_wave(
        self, wave: list[WaveTask]
    ) -> tuple[dict[Any, dict[str, Any]], list[WaveFailure]]:
        """One pool generation over at most ``workers`` tasks.

        Delegates to :func:`repro.experiments.pool.run_wave`; worker
        traces are merged into the parent collector as each task lands.
        """
        # Imported at call time: repro.server imports this package's pool.
        from ..server.worker import execute_request_payload

        return run_wave(
            execute_request_payload,
            wave,
            workers=self.options.workers,
            timeout=self.options.timeout,
            collector=self.collector,
            span_name="experiments.wave",
            on_result=self._merge,
        )

    def _merge(self, task: WaveTask, payload: Mapping[str, Any]) -> None:
        """Fold one worker's trace and latency into the parent collector."""
        circuit_name, engine = task.key
        self.collector.count("experiments.tasks-completed")
        self.collector.gauge(
            f"experiments.task-seconds.{circuit_name}.{engine}",
            float(payload["seconds"]),
        )
        self.collector.merge_counters(payload.get("counters", {}))
        self.collector.merge_gauges(payload.get("gauges", {}))

    # ------------------------------------------------------------------
    def _assemble(
        self,
        todo: list[str],
        results: dict[tuple[str, str], dict[str, Any]],
        failures: list[TaskFailure],
    ) -> list[str]:
        """Combine per-engine results into cached circuit experiments."""
        completed: list[str] = []
        failed_circuits = {f.circuit for f in failures}
        for name in todo:
            if name in failed_circuits:
                reasons = "; ".join(
                    f"{f.engine}: {f.kind} after {f.attempts} attempt(s)"
                    + (f" ({f.message})" if f.message else "")
                    for f in failures
                    if f.circuit == name
                )
                self.suite.failures[name] = reasons
                continue
            flow_doc = results[(name, "flow")]["response"]
            ilp_doc = results[(name, "ilp")]["response"]
            self.suite.install_results(
                name,
                FlowResult.from_dict(flow_doc["result"]),
                FlowResult.from_dict(ilp_doc["result"]),
            )
            completed.append(name)
        return completed


def run_parallel_suite(
    suite: ExperimentSuite,
    options: ParallelOptions | None = None,
    collector: Collector = NULL_COLLECTOR,
) -> SuiteRunReport:
    """Run ``suite`` over worker processes (see :class:`ParallelSuiteRunner`)."""
    return ParallelSuiteRunner(suite, options, collector).run()


def parallel_options_from_flags(
    parallel: int,
    timeout: float | None = None,
    max_retries: int = 2,
    backoff: float = 0.5,
) -> ParallelOptions:
    """CLI/facade helper: flags -> :class:`ParallelOptions`.

    ``timeout`` of 0 (the CLI default) means "no deadline".
    """
    return ParallelOptions(
        workers=max(1, parallel),
        timeout=None if not timeout else float(timeout),
        max_retries=max_retries,
        backoff_seconds=backoff,
    )


__all__ = [
    "ENGINES",
    "ParallelOptions",
    "ParallelSuiteRunner",
    "SuiteRunReport",
    "TaskFailure",
    "parallel_options_from_flags",
    "run_parallel_suite",
]
