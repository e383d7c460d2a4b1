"""Worker-side job execution (module-level picklable).

:func:`execute_request_payload` is the one function that executes a
request: the service's job processes and its inline mode run it, and the
parallel table suite's flows are service jobs too.  It takes the wire
payload (job kind + serialized request), rebuilds the typed request,
executes it in-process, and returns a picklable document: the response
plus the worker's trace counters/gauges, which the parent folds into
its collector.  The ``repro`` modules a job needs are imported with
this module; a worker's first jobs still import what they load lazily
(the LP solver's ``scipy.optimize`` on the first LP), and the service
keeps its workers between jobs, so only those first jobs pay for it.

For tests and CI smoke runs, the ``REPRO_EXPERIMENTS_FAULT`` environment
variable injects worker faults: a comma-separated list of
``circuit:engine:mode[:max_attempt]`` specs where mode is ``crash``
(hard ``os._exit``, indistinguishable from a kill), ``hang`` (sleep
until the timeout fires), or ``error`` (raise), and ``*`` matches any
circuit/engine.  The engine slot is the assignment engine (``flow`` or
``ilp``) of a flow job and ``check`` for a check job, so
``tinyB:ilp:crash`` kills every §VI task of a parallel table suite and
``s27:flow:crash:1`` crashes the first attempt of a server flow job.
Faults fire only while ``attempt <= max_attempt`` (default: always), so
a ``...:1`` spec exercises the retry path.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Mapping

from ..analysis import render_json
from ..analysis.checker import CheckConfig
from ..api import API_VERSION, CheckRequest, FlowRequest, check_design, run_flow
from ..core import IterationRecord
from ..errors import ServerError
from ..obs import TraceCollector
from .jobs import Request

#: Environment variable holding fault-injection specs (tests/CI only).
FAULT_ENV = "REPRO_EXPERIMENTS_FAULT"

_REQUEST_TYPES: dict[str, type[Request]] = {
    "flow": FlowRequest,
    "check": CheckRequest,
}


def _maybe_inject_fault(circuit: str, engine: str, attempt: int) -> None:
    """Honor ``REPRO_EXPERIMENTS_FAULT`` (test/CI hook; no-op otherwise)."""
    raw = os.environ.get(FAULT_ENV, "")
    if not raw.strip():
        return
    for spec in raw.split(","):
        parts = [p.strip() for p in spec.strip().split(":")]
        if len(parts) < 3:
            continue
        c, e, mode = parts[0], parts[1], parts[2]
        limit = int(parts[3]) if len(parts) > 3 else 1 << 30
        if c not in ("*", circuit) or e not in ("*", engine):
            continue
        if attempt > limit:
            continue
        if mode == "crash":
            # A hard exit, skipping interpreter teardown: the parent sees
            # the same EOF on the job's pipe a SIGKILLed worker produces.
            os._exit(17)
        elif mode == "hang":
            time.sleep(3600.0)
        elif mode == "error":
            raise RuntimeError(
                f"injected fault for task {circuit}/{engine} "
                f"(attempt {attempt})"
            )


def check_response_doc(request: CheckRequest) -> dict[str, Any]:
    """Run one check request and wrap the report as a wire document."""
    report = check_design(request)
    config = request.config if request.config is not None else CheckConfig()
    return {
        "api_version": API_VERSION,
        "kind": "check",
        "request_digest": request.digest(),
        "cached": False,
        "report": json.loads(render_json(report)),
        "exit_code": report.exit_code(config.fail_on),
    }


def _apply_intra_budget(request: Request, intra_jobs: int | None) -> Request:
    """Rewrite ``options.jobs`` to the service's per-job worker budget.

    ``jobs`` is execution-only (``EXECUTION_ONLY_OPTION_FIELDS``), so
    the rewrite cannot change the request digest: the cached result and
    the freshly computed one stay interchangeable at any budget.
    """
    if intra_jobs is None:
        return request
    return request.replace(
        options=request.options.replace(jobs=max(1, int(intra_jobs)))
    )


def execute_request_payload(
    payload: Mapping[str, Any],
    on_iteration: Callable[[IterationRecord], None] | None = None,
) -> dict[str, Any]:
    """Execute one job payload; returns the response + trace document.

    ``payload`` holds ``kind``, the serialized ``request``, the
    ``attempt`` number, and optionally the service's ``intra_jobs``
    budget.  ``on_iteration`` streams a flow job's iteration records as
    they are produced (inline execution only; it cannot cross a process
    boundary).
    """
    kind = str(payload["kind"])
    request_type = _REQUEST_TYPES.get(kind)
    if request_type is None:
        raise ServerError(f"unknown job kind {kind!r}")
    request = _apply_intra_budget(
        request_type.from_dict(payload["request"]), payload.get("intra_jobs")
    )
    _maybe_inject_fault(
        request.circuit or "-",
        request.options.assignment if isinstance(request, FlowRequest) else kind,
        int(payload.get("attempt", 1)),
    )
    collector = TraceCollector()
    start = time.perf_counter()
    doc: dict[str, Any]
    if isinstance(request, FlowRequest):
        doc = run_flow(
            request, collector=collector, on_iteration=on_iteration
        ).to_dict()
    else:
        doc = check_response_doc(request)
    seconds = time.perf_counter() - start
    trace = collector.trace()
    return {
        "kind": kind,
        "response": doc,
        "seconds": seconds,
        "counters": dict(trace.counters),
        "gauges": dict(trace.gauges),
    }


__all__ = ["FAULT_ENV", "check_response_doc", "execute_request_payload"]
