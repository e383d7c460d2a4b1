"""The paper's (circuit x engine) experiment matrix on the flow service.

The serial :class:`~repro.experiments.runner.ExperimentSuite` runs every
circuit and both assignment engines strictly back to back;
:func:`run_parallel_suite` is a client of the repo's one job scheduler
instead.  It submits one :class:`~repro.api.FlowRequest` per task to an
in-process :class:`~repro.server.FlowService` (process execution unless
the options say otherwise) and waits for the jobs, so every scheduling
guarantee is the service's:

* **per-task timeouts** — jobs run in waves no larger than the worker
  count, one process per job, so each deadline measures the task, not
  queue time; a task that exceeds it has its own process killed and is
  retried, and its wave-mates run on untouched;
* **bounded retries with exponential backoff** — a crashed (killed
  worker), timed-out, or erroring task is retried up to
  ``max_retries`` times, and each failure is charged only to the task
  whose process failed;
* **trace merging** — each worker's counters and gauges are folded into
  the collector next to the service's ``server.*`` metrics.

The suite keeps what is its own: **checkpoint/resume** (with
``suite.resume``, circuits in the suite's
:class:`~repro.experiments.checkpoint.CheckpointStore` are served from
disk and never submitted) and **result assembly** (both engines' results
of a circuit are installed through
:meth:`~repro.experiments.runner.ExperimentSuite.install_results`, which
also checkpoints them).

A worker returns a ``FlowResponse`` document rather than a live object;
the suite rebuilds each result with ``FlowResult.from_dict``, the exact
code path a checkpoint load takes.  Every float survives both trips
bit-identically, so a parallel, a resumed, and a serial suite produce
the same tables.  The worker's ``REPRO_EXPERIMENTS_FAULT`` hook injects
crashes, hangs, and errors into chosen (circuit, engine) tasks for tests
and CI smoke runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from ..api import FlowRequest
from ..core import FlowResult
from ..obs import NULL_COLLECTOR, Collector
from ..server import FlowService, ServerOptions
from .runner import ExperimentSuite

ENGINES = ("flow", "ilp")


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


def run_parallel_suite(
    suite: ExperimentSuite,
    options: ServerOptions,
    collector: Collector = NULL_COLLECTOR,
) -> SuiteRunReport:
    """Run every missing circuit of ``suite`` as jobs on a flow service.

    ``options`` configures the service (worker processes, per-task
    timeout, retries, backoff, intra-run budget); its queue depth is
    raised to fit the whole task matrix.  Completed circuits land in the
    suite's cache (and checkpoint store); failed ones land in
    ``suite.failures`` so the table generators degrade to annotated
    partial rows.
    """
    t_start = time.perf_counter()
    resumed: list[str] = []
    todo: list[str] = []
    for name in suite.names:
        if suite.is_cached(name):
            continue
        if suite.load_checkpoint(name) is not None:
            resumed.append(name)
            collector.count("experiments.checkpoint-loads")
            continue
        todo.append(name)

    tasks = [(name, engine) for name in todo for engine in ENGINES]
    service = FlowService(
        replace(
            options, max_queue_depth=max(options.max_queue_depth, len(tasks))
        ),
        collector=collector,
    )
    # Everything is queued before the dispatcher starts, so its first
    # wave is already full.
    job_ids = {
        (name, engine): service.submit(
            FlowRequest(
                circuit=name,
                options=suite.options_for(name, engine),
                tech=suite.tech,
            )
        ).job_id
        for name, engine in tasks
    }
    with service:
        errors = {
            key: service.wait(job_id).error for key, job_id in job_ids.items()
        }
    failures = [
        TaskFailure(name, engine, error.kind, error.attempts, error.message)
        for (name, engine), error in errors.items()
        if error is not None
    ]

    completed: list[str] = []
    for name in todo:
        failed = [f for f in failures if f.circuit == name]
        if failed:
            suite.failures[name] = "; ".join(
                f"{f.engine}: {f.kind} after {f.attempts} attempt(s)"
                + (f" ({f.message})" if f.message else "")
                for f in failed
            )
            continue
        flow_doc, ilp_doc = (
            service.result_doc(job_ids[(name, engine)])["result"]
            for engine in ENGINES
        )
        suite.install_results(
            name, FlowResult.from_dict(flow_doc), FlowResult.from_dict(ilp_doc)
        )
        completed.append(name)
    return SuiteRunReport(
        completed=tuple(completed),
        resumed=tuple(resumed),
        failed=tuple(failures),
        retries=service.retries,
        timeouts=service.timeouts,
        crashes=service.crashes,
        seconds=time.perf_counter() - t_start,
    )


__all__ = [
    "ENGINES",
    "SuiteRunReport",
    "TaskFailure",
    "run_parallel_suite",
]
