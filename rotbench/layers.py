"""The per-layer metrics: which entry point each one times, and how.

Every entry in :data:`LAYER_METRICS` names the span it is computed
from, the workload whose traced run must reach it, and the end-to-end
metric a change in it should move.  :func:`install_flow_layers` and
:func:`install_server_layers` patch the program's public entry points
with recording wrappers; :func:`layer_values` turns the recorded spans
into one number per metric.

Values are per benchmark operation (a flow, or a server request) unless
the unit says otherwise: ``s`` is self seconds per operation, ``1/op``
a count per operation, ``ratio`` a ratio.  A layer the traced run did
not reach is *unmeasured*: :func:`layer_values` gives it no value
(``None``), and the run's result file lists it under
``details.unmeasured``.  A layer that was called but did no work of the
timed kind (the pool dispatch on a ``jobs=1`` run) is measured as 0.

Work a caller hands to the ``repro.parallel`` pool belongs to the
caller's layer: a pool dispatch is not subtracted from its caller's self
time, and each chunk it runs is recorded as a child of the dispatch, so
``parallel.dispatch_s`` is the dispatch's own overhead - its wall time
that no chunk covers.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from spans import Span, Tracer
from summary import OP, assign_ops, self_times

TABLE2, SCALE10K, SERVE = "table2-flow", "scale10k-ilp", "serve-mix"

#: Keys under which a traced server worker returns its spans.
SPANS_KEY = "rotbench_spans"
SEEN_KEY = "rotbench_seen"

#: A pool dispatch, and one chunk of work it ran on a pool thread.
DISPATCH, CHUNK = "parallel.dispatch", "parallel.chunk"
#: Spans whose time stays in their caller's self time (module docstring).
TRANSPARENT = frozenset({DISPATCH})


@dataclass(frozen=True, slots=True)
class LayerMetric:
    name: str
    span: str
    #: "self", "calls", "sum:<arg>", "ratio:<arg>/<arg>" (denominator
    #: ``calls`` = number of spans), "wave" (duration minus the jobs'
    #: own seconds) or "extra" (supplied by the workload).
    how: str
    unit: str
    workload: str
    moves: str


LAYER_METRICS: tuple[LayerMetric, ...] = (
    LayerMetric("placement.global_s", "placement.global", "self", "s", TABLE2, "cells_per_s"),
    LayerMetric("placement.cg_s", "placement.cg", "self", "s", TABLE2, "cells_per_s"),
    LayerMetric("placement.cg_calls", "placement.cg", "calls", "1/op", TABLE2, "cells_per_s"),
    LayerMetric("placement.legalize_s", "placement.legalize", "self", "s", TABLE2, "cells_per_s"),
    LayerMetric("placement.incremental_s", "placement.incremental", "self", "s", TABLE2, "cells_per_s"),
    LayerMetric("timing.structure_s", "timing.structure", "self", "s", TABLE2, "cells_per_s"),
    LayerMetric("timing.positional_s", "timing.positional", "self", "s", SCALE10K, "cells_per_s"),
    LayerMetric("rotary.tapping_s", "rotary.tapping", "self", "s", SCALE10K, "cells_per_s"),
    LayerMetric("rotary.pairs", "rotary.tapping", "sum:pairs", "1/op", SCALE10K, "cells_per_s"),
    LayerMetric("core.cost_matrix_s", "core.cost_matrix", "self", "s", SCALE10K, "cells_per_s"),
    LayerMetric("core.realize_s", "core.realize", "self", "s", TABLE2, "cells_per_s"),
    LayerMetric("core.cost_cache_hit_ratio", "core.flow", "ratio:cache_hits/cache_lookups", "ratio", TABLE2, "cells_per_s"),
    LayerMetric("core.mcf_assign_s", "core.mcf_assign", "self", "s", TABLE2, "cells_per_s"),
    LayerMetric("core.ilp_assign_s", "core.ilp_assign", "self", "s", SCALE10K, "cells_per_s"),
    LayerMetric("core.max_slack_s", "core.max_slack", "self", "s", TABLE2, "cells_per_s"),
    LayerMetric("core.cost_driven_s", "core.cost_driven", "self", "s", SCALE10K, "cells_per_s"),
    LayerMetric("opt.lp_solve_s", "opt.lp_solve", "self", "s", TABLE2, "cells_per_s"),
    LayerMetric("opt.lp_solves", "opt.lp_solve", "calls", "1/op", TABLE2, "cells_per_s"),
    LayerMetric("opt.lp_vars", "opt.lp_solve", "sum:vars", "1/op", TABLE2, "cells_per_s"),
    LayerMetric("opt.mcf_s", "opt.mcf", "self", "s", TABLE2, "cells_per_s"),
    LayerMetric("opt.warm_start_ratio", "opt.refine", "ratio:accepted/calls", "ratio", TABLE2, "cells_per_s"),
    LayerMetric("parallel.dispatch_s", DISPATCH, "self", "s", SCALE10K, "cells_per_s"),
    LayerMetric("parallel.pool_chunks", DISPATCH, "sum:chunks", "1/op", SCALE10K, "cells_per_s"),
    LayerMetric("timing.scalar_s", "timing.scalar", "self", "s", SERVE, "cold_latency_s_p50"),
    LayerMetric("analysis.context_s", "analysis.context", "self", "s", SERVE, "cold_latency_s_p50"),
    LayerMetric("analysis.checks_s", "analysis.checks", "self", "s", SERVE, "cold_latency_s_p50"),
    LayerMetric("server.queue_s", "server.queue", "self", "s", SERVE, "cold_latency_s_p50"),
    LayerMetric("server.run_s", "experiments.wave", "sum:job_seconds", "s", SERVE, "cold_latency_s_p50"),
    LayerMetric("experiments.wave_s", "experiments.wave", "wave", "s", SERVE, "cold_latency_s_p50"),
    LayerMetric("api.digest_s", "api.digest", "self", "s", SERVE, "latency_s_p50"),
    LayerMetric("server.encode_s", "server.encode", "self", "s", SERVE, "latency_s_p50"),
    LayerMetric("server.cache_hit_ratio", "server.stats", "extra", "ratio", SERVE, "req_per_s"),
)

# ----------------------------------------------------------------------
# Installing the wrappers.
# ----------------------------------------------------------------------
def _bounds(args: Sequence[Any], kwargs: Mapping[str, Any], pos: int) -> Sequence[Any]:
    return kwargs["bounds"] if "bounds" in kwargs else args[pos]


def _reaches_pool(pos: int) -> Any:
    """``when`` hook: the dispatch call fans out to the worker pool
    (the same test :mod:`repro.parallel` makes before dispatching)."""

    def when(args: Sequence[Any], kwargs: Mapping[str, Any]) -> bool:
        return int(kwargs.get("jobs", 1)) > 1 and len(_bounds(args, kwargs, pos)) > 1

    return when


def _chunks(pos: int) -> Any:
    return lambda a, kw, r: {"chunks": len(_bounds(a, kw, pos)), "stage": kw.get("stage")}


def _install_dispatch(tracer: Tracer) -> None:
    """Wrap the pool dispatch calls and time every chunk they run."""
    from repro.core import cost
    from repro.parallel import pool
    from repro.rotary import tapping_vec
    from repro.timing import sta_vec

    def timed_task(a: tuple[Any, ...], kw: dict[str, Any]) -> tuple[tuple[Any, ...], dict[str, Any]]:
        # ``run_chunk_tasks(task, bounds, ...)``: every caller passes the
        # task first.
        return (tracer.timed(a[0], CHUNK), *a[1:]), kw

    for module in (sta_vec, cost):
        tracer.wrap(module, "run_chunk_tasks", DISPATCH,
                    when=_reaches_pool(1), args=_chunks(1), rewrite=timed_task)
    tracer.wrap(tapping_vec, "run_kernel_chunks", DISPATCH,
                when=_reaches_pool(2), args=_chunks(2))

    # ``run_kernel_chunks`` looks its kernel up by name; inside a dispatch
    # span it is handed the kernel timed.
    resolve = pool.resolve_kernel

    def traced_resolve(name: str, module: str | None = None) -> Any:
        kernel = resolve(name, module)
        return tracer.timed(kernel, CHUNK) if tracer.current_name() == DISPATCH else kernel

    tracer.patch(pool, "resolve_kernel", traced_resolve)


def _flow_counts(args: Sequence[Any], kwargs: Mapping[str, Any], result: Any) -> dict[str, int]:
    hits = sum(rec.cost_cache_hits for rec in result.history)
    misses = sum(rec.cost_cache_misses for rec in result.history)
    return {"cache_hits": hits, "cache_lookups": hits + misses}


def install_flow_layers(tracer: Tracer) -> None:
    """Wrap the flow-side entry points, where their callers look them up."""
    import scipy.sparse.linalg as spla

    from repro.core import assignment_flow, cost, flow
    from repro.opt import lp
    from repro.placement import incremental, quadratic
    from repro.timing import sta, sta_vec

    wrap = tracer.wrap
    wrap(quadratic.QuadraticPlacer, "place", "placement.global")
    wrap(spla, "cg", "placement.cg")
    wrap(flow, "legalize", "placement.legalize")
    wrap(incremental, "legalize", "placement.legalize")
    wrap(flow, "incremental_place", "placement.incremental")
    wrap(sta_vec.TimingStructure, "build", "timing.structure")
    wrap(sta_vec.VectorizedTiming, "analyze", "timing.positional")
    # Both callers pass ``ring_ids`` (one entry per FF x ring pair) second.
    pairs = lambda a, kw, r: {"pairs": len(a[1])}
    wrap(cost, "batch_solve_rings", "rotary.tapping", args=pairs)
    wrap(cost.TappingCostCache, "matrix", "core.cost_matrix")
    wrap(cost.TappingCostCache, "realize", "core.realize")
    wrap(flow.IntegratedFlow, "run", "core.flow", mark=True, args=_flow_counts)
    wrap(flow, "network_flow_assignment", "core.mcf_assign")
    wrap(flow, "ilp_assignment", "core.ilp_assign")
    wrap(flow, "max_slack_schedule", "core.max_slack")
    wrap(flow, "cost_driven_schedule", "core.cost_driven")
    wrap(lp.LinearProgram, "solve", "opt.lp_solve",
         args=lambda a, kw, r: {"vars": a[0].num_vars})
    wrap(assignment_flow, "solve_transportation", "opt.mcf")
    wrap(assignment_flow, "refine_assignment", "opt.refine",
         args=lambda a, kw, r: {"accepted": int(r is not None)})
    _install_dispatch(tracer)
    wrap(sta.SequentialTiming, "__init__", "timing.scalar")

    def install_analysis() -> None:
        import repro.analysis as analysis
        from repro.analysis import context, rules

        wrap(rules, "batch_solve_rings", "rotary.tapping", args=pairs)
        wrap(context.DesignContext, "from_flow", "analysis.context")
        wrap(analysis, "run_checks", "analysis.checks")

    tracer.on_import("repro.analysis", install_analysis)


class _JsonShim:
    """Stands in for the ``json`` module in :mod:`repro.server.http`, so
    the response encoding (``json.dumps``) can be wrapped there alone."""

    def __init__(self) -> None:
        self.dumps = json.dumps

    def __getattr__(self, name: str) -> Any:
        return getattr(json, name)


#: The tracer of a traced server process.  Its forked pool workers
#: inherit it; :func:`traced_execute` must be a module-level function so
#: the pool can send it to them by name.
_SERVER_TRACER: Tracer | None = None


def traced_execute(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Worker side of a traced server job: run it, return its spans."""
    from repro.server.worker import execute_request_payload

    tracer = _SERVER_TRACER
    if tracer is None:
        raise RuntimeError("install_server_layers() was not called")
    first = len(tracer.spans)
    seen_before = dict(tracer.seen)
    with tracer.span("server.run"):
        doc = execute_request_payload(payload)
    doc[SPANS_KEY] = [span.to_dict() for span in tracer.take(first)]
    doc[SEEN_KEY] = {
        name: count - seen_before.get(name, 0)
        for name, count in tracer.seen.items()
        if count != seen_before.get(name, 0)
    }
    return doc


def install_server_layers(tracer: Tracer) -> None:
    """Wrap the server-side entry points of a ``repro serve`` process.

    The forked pool workers inherit every wrapper (the flow layers too);
    their spans come back with the job payload and are re-parented under
    the ``experiments.wave`` span that ran them.
    """
    global _SERVER_TRACER
    from repro import api
    from repro.server import http, jobs, service

    _SERVER_TRACER = tracer
    install_flow_layers(tracer)
    tracer.wrap(service.FlowService, "submit", "server.submit")
    at_submit = lambda a, kw: tracer.current_name() == "server.submit"
    tracer.wrap(api.FlowRequest, "digest", "api.digest", when=at_submit)
    tracer.wrap(api.CheckRequest, "digest", "api.digest", when=at_submit)

    shim = _JsonShim()
    tracer.wrap(shim, "dumps", "server.encode")
    tracer.patch(http, "json", shim)

    mark_running = jobs.JobStore.mark_running

    def traced_mark_running(self: Any, job_id: str, attempt: int = 1) -> None:
        mark_running(self, job_id, attempt=attempt)
        job = self.get(job_id)
        if attempt == 1 and job.started_at is not None:
            tracer.add("server.queue", job.submitted_at, job.started_at)

    tracer.patch(jobs.JobStore, "mark_running", traced_mark_running)

    run_wave = service.run_wave

    def traced_run_wave(fn: Any, wave: Any, **kwargs: Any) -> Any:
        with tracer.span("experiments.wave", tasks=len(wave)) as span_args:
            wave_id = tracer.current_id()
            ok, failed = run_wave(traced_execute, wave, **kwargs)
            job_seconds = 0.0
            for payload in ok.values():
                for raw in payload.pop(SPANS_KEY, []):
                    span = Span.from_dict(raw)
                    if span.parent is None:
                        span.parent = wave_id
                    tracer.spans.append(span)
                for name, count in payload.pop(SEEN_KEY, {}).items():
                    tracer.seen[name] = tracer.seen.get(name, 0) + count
                job_seconds += float(payload["seconds"])
            span_args["job_seconds"] = job_seconds
        return ok, failed

    tracer.patch(service, "run_wave", traced_run_wave)


# ----------------------------------------------------------------------
# From spans to numbers.
# ----------------------------------------------------------------------
def layer_values(
    spans: Sequence[Span],
    seen: Mapping[str, int],
    extras: Mapping[str, tuple[float | None, int]] | None = None,
) -> dict[str, tuple[float | None, int]]:
    """``{metric: (value, calls)}`` for every metric of :data:`LAYER_METRICS`.

    Only spans inside an operation count.  ``value`` is ``None`` for an
    unmeasured layer.  ``extras`` carries the values a workload reads
    from outside the trace (``server.cache_hit_ratio``), as
    ``(value, calls)``.
    """
    ops = sum(1 for s in spans if s.name == OP)
    if ops == 0:
        raise ValueError("no operations in the trace")
    owner = assign_ops(spans)
    self_s = self_times(spans, TRANSPARENT)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        if span.span_id in owner:
            by_name[span.name].append(span)

    out: dict[str, tuple[float | None, int]] = {}
    for metric in LAYER_METRICS:
        group = by_name.get(metric.span, [])
        calls = len(group)
        if metric.how == "extra":
            out[metric.name] = (extras or {}).get(metric.name, (None, 0))
            continue
        if metric.how.startswith("ratio:"):
            num_key, den_key = metric.how[6:].split("/")
            num = sum(s.args.get(num_key, 0) for s in group)
            den = calls if den_key == "calls" else sum(s.args.get(den_key, 0) for s in group)
            out[metric.name] = (num / den if den else None, calls)
            continue
        if calls == 0 and not seen.get(metric.span, 0):
            out[metric.name] = (None, 0)
            continue
        if metric.how == "self":
            total = sum(self_s[s.span_id] for s in group)
        elif metric.how == "calls":
            total = float(calls)
        elif metric.how == "wave":
            total = sum(s.duration - s.args.get("job_seconds", 0.0) for s in group)
        elif metric.how.startswith("sum:"):
            total = float(sum(s.args.get(metric.how[4:], 0) for s in group))
        else:
            raise ValueError(f"unknown layer rule {metric.how!r}")
        out[metric.name] = (total / ops, calls)
    return out


def ledger_rows(
    workload: str, spans: Sequence[Span], stamp: Mapping[str, Any]
) -> list[dict[str, Any]]:
    """One row per span name: self seconds per operation and calls."""
    ops = sum(1 for s in spans if s.name == OP)
    owner = assign_ops(spans)
    self_s = self_times(spans, TRANSPARENT)
    totals: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
    for span in spans:
        if span.span_id in owner:
            row = totals[span.name]
            row[0] += self_s[span.span_id]
            row[1] += 1
    names = sorted(set(totals) | {m.span for m in LAYER_METRICS if m.how != "extra"})
    rows = []
    for name in names:
        self_total, calls = totals.get(name, (0.0, 0))
        rows.append({
            "workload": workload,
            "layer": name,
            "self_s_per_op": self_total / ops if calls else None,
            "calls": int(calls),
            "ops": ops,
            **stamp,
        })
    return rows


def check_mapped_calls(workload: str, calls: Mapping[str, int]) -> list[str]:
    """Metrics mapped to ``workload`` whose entry point recorded no call."""
    return [
        m.name for m in LAYER_METRICS
        if m.workload == workload and calls[m.name] == 0
    ]
