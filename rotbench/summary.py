"""Arithmetic behind the benchmark's numbers, kept free of I/O.

* medians and quartiles (the only statistics the benchmark reports:
  the machine's speed drifts, so no tail is reported);
* self time: a span's duration minus the part of it that its child
  spans cover (a *transparent* child's time stays with its parent);
* attribution of spans to operations, and the share of operation wall
  time that no span covers.
"""

from __future__ import annotations

import bisect
import statistics
from collections import defaultdict
from typing import Collection, Iterable, Sequence

from spans import Span

#: Name of the root span the workload loop records around each operation.
OP = "op"


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median: the steadiness figure of a metric."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        raise ValueError("relative spread of a zero median")
    return (q3 - q1) / abs(q2)


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)``."""
    total = 0.0
    cur_lo: float | None = None
    cur_hi = 0.0
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_lo is None or lo > cur_hi:
            if cur_lo is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_lo is not None:
        total += cur_hi - cur_lo
    return total


def _clipped(
    intervals: Iterable[tuple[float, float]], lo: float, hi: float
) -> list[tuple[float, float]]:
    return [(max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi]


def self_times(
    spans: Sequence[Span], transparent: Collection[str] = ()
) -> dict[str, float]:
    """Self seconds of every span, keyed by span id.

    A child is any span naming the span as its parent, in any process;
    children that overlap each other (threads) are counted once.  A
    child whose name is in ``transparent`` is not subtracted: its time
    stays in its parent's self time (it still has its own).
    """
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None and span.name not in transparent:
            children[span.parent].append((span.start, span.end))
    out: dict[str, float] = {}
    for span in spans:
        covered = union_length(
            _clipped(children.get(span.span_id, ()), span.start, span.end)
        )
        out[span.span_id] = max(0.0, span.duration - covered)
    return out


def assign_ops(spans: Sequence[Span]) -> dict[str, int]:
    """Operation id of every non-root span that belongs to one.

    Spans recorded in the benchmark's process carry their op id.  Spans
    from other processes are given the op whose wall interval contains
    their start; the workload loops keep one operation in flight, so the
    match is exact.  Spans outside every operation are left out.
    """
    roots = sorted((s for s in spans if s.name == OP), key=lambda s: s.start)
    starts = [s.start for s in roots]
    out: dict[str, int] = {}
    for span in spans:
        if span.name == OP:
            continue
        if span.op is not None:
            out[span.span_id] = span.op
            continue
        i = bisect.bisect_right(starts, span.start) - 1
        if i >= 0 and span.start <= roots[i].end and roots[i].op is not None:
            out[span.span_id] = roots[i].op
    return out


def uncovered_share(spans: Sequence[Span]) -> float:
    """Share of operation wall time that no non-root span covers."""
    roots = {s.op: s for s in spans if s.name == OP and s.op is not None}
    if not roots:
        raise ValueError("no operation spans")
    owner = assign_ops(spans)
    inside: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        op = owner.get(span.span_id)
        if op is not None:
            inside[op].append((span.start, span.end))
    total = sum(root.duration for root in roots.values())
    covered = sum(
        union_length(_clipped(inside[op], root.start, root.end))
        for op, root in roots.items()
    )
    return 1.0 - covered / total if total > 0 else 0.0
