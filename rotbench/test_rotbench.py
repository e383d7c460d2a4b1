"""Unit tests of the benchmark's own arithmetic and tracer.

    python3 -m pytest rotbench/test_rotbench.py -q
"""

from __future__ import annotations

import math
import statistics
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from layers import LAYER_METRICS, TRANSPARENT, layer_values  # noqa: E402
from spans import Span, Tracer  # noqa: E402
from summary import (  # noqa: E402
    OP,
    assign_ops,
    median,
    quartiles,
    relative_spread,
    self_times,
    uncovered_share,
    union_length,
)


def span(name, start, end, span_id, parent=None, op=None, **args):
    return Span(name, start, end, span_id, parent, op, 1, 1, dict(args))


# -- percentiles -------------------------------------------------------
def test_median_odd_and_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5


def test_quartiles_match_statistics_exclusive_method():
    values = [float(v) for v in (7, 1, 5, 3, 9, 11, 2, 8, 4, 6)]
    q1, q2, q3 = quartiles(values)
    assert (q1, q2, q3) == tuple(statistics.quantiles(values, n=4))
    # Exclusive method on 1..9,11: positions (n+1)p = 2.75 and 8.25.
    assert q1 == pytest.approx(2.75)
    assert q2 == pytest.approx(5.5)
    assert q3 == pytest.approx(8.25)


def test_relative_spread_is_iqr_over_median():
    values = [9.0, 10.0, 10.0, 10.0, 11.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert relative_spread(values) == pytest.approx((q3 - q1) / q2)
    assert relative_spread([5.0] * 10) == 0.0
    with pytest.raises(ValueError):
        relative_spread([0.0, 0.0, 0.0])


# -- self time -------------------------------------------------------------
def test_union_length_merges_overlaps_and_skips_empty():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == pytest.approx(4.0)
    assert union_length([(0, 10), (2, 3)]) == pytest.approx(10.0)


def test_self_time_subtracts_children_once():
    spans = [
        span("parent", 0.0, 10.0, "p"),
        span("child", 1.0, 4.0, "a", parent="p"),
        span("child", 3.0, 5.0, "b", parent="p"),  # overlaps a (threads)
        span("grandchild", 1.5, 2.0, "g", parent="a"),
        span("child", 9.0, 12.0, "c", parent="p"),  # runs past its parent
    ]
    self_s = self_times(spans)
    assert self_s["p"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert self_s["a"] == pytest.approx(3.0 - 0.5)
    assert self_s["b"] == pytest.approx(2.0)
    assert self_s["g"] == pytest.approx(0.5)


def test_transparent_child_stays_in_its_parent():
    spans = [
        span("caller", 0.0, 10.0, "c"),
        span("callee", 0.0, 1.0, "k", parent="c"),
        span("parallel.dispatch", 2.0, 8.0, "d", parent="c"),
        span("parallel.chunk", 2.5, 5.0, "x", parent="d"),
        span("parallel.chunk", 3.0, 7.0, "y", parent="d"),
    ]
    self_s = self_times(spans, TRANSPARENT)
    # The dispatch is not subtracted from the caller; the callee is.
    assert self_s["c"] == pytest.approx(9.0)
    # The dispatch's own time is what no chunk covers.
    assert self_s["d"] == pytest.approx(6.0 - 4.5)
    assert self_times(spans)["c"] == pytest.approx(3.0)


def test_spans_are_assigned_to_ops_by_id_or_time():
    spans = [
        span(OP, 0.0, 1.0, "o0", op=0),
        span(OP, 2.0, 3.0, "o1", op=1),
        span("local", 0.1, 0.2, "l", op=0),
        span("remote", 2.5, 2.6, "r"),  # another process: matched by time
        span("outside", 1.5, 1.6, "x"),  # between operations
    ]
    assert assign_ops(spans) == {"l": 0, "r": 1}


def test_uncovered_share_counts_gaps_inside_operations():
    spans = [
        span(OP, 0.0, 4.0, "o0", op=0),
        span("a", 0.0, 1.0, "a", op=0),
        span("b", 0.5, 2.0, "b", op=0),
        span(OP, 10.0, 14.0, "o1", op=1),
        span("remote", 10.0, 14.0, "r"),
    ]
    # op 0: 2 of 4 s covered; op 1: fully covered.
    assert uncovered_share(spans) == pytest.approx(2.0 / 8.0)


# -- per-layer values --------------------------------------------------------
def test_layer_values_per_operation_and_unmeasured():
    spans = [
        span(OP, 0.0, 10.0, "o0", op=0),
        span(OP, 10.0, 20.0, "o1", op=1),
        span("placement.global", 1.0, 5.0, "g", op=0),
        span("placement.cg", 2.0, 3.0, "cg1", parent="g", op=0),
        span("placement.cg", 3.0, 4.0, "cg2", parent="g", op=0),
        span("opt.refine", 11.0, 12.0, "r1", op=1, accepted=1),
        span("opt.refine", 12.0, 13.0, "r2", op=1, accepted=0),
        span("experiments.wave", 14.0, 18.0, "w", job_seconds=3.0),
    ]
    values = layer_values(spans, seen={"parallel.dispatch": 3})
    assert values["placement.global_s"] == (pytest.approx(2.0 / 2), 1)
    assert values["placement.cg_s"] == (pytest.approx(2.0 / 2), 2)
    assert values["placement.cg_calls"] == (pytest.approx(1.0), 2)
    assert values["opt.warm_start_ratio"] == (pytest.approx(0.5), 2)
    assert values["server.run_s"] == (pytest.approx(1.5), 1)
    assert values["experiments.wave_s"] == (pytest.approx(0.5), 1)
    # Called but never reached the pool: measured as zero.
    assert values["parallel.pool_chunks"] == (0.0, 0)
    assert values["parallel.dispatch_s"] == (0.0, 0)
    # Never called: unmeasured.
    assert values["core.ilp_assign_s"] == (None, 0)
    assert values["server.cache_hit_ratio"] == (None, 0)
    assert set(values) == {m.name for m in LAYER_METRICS}


def test_unmeasured_layers_read_zero_in_the_result_line_and_are_listed():
    from workloads import Outcome, _per_layer

    spans = [
        span(OP, 0.0, 10.0, "o0", op=0),
        span("placement.global", 1.0, 5.0, "g", op=0),
    ]
    outcome = Outcome()
    unmeasured = _per_layer(outcome, spans, seen={}, overhead=0.01)
    assert "placement.global_s" not in unmeasured
    assert "core.ilp_assign_s" in unmeasured
    assert outcome.metrics["core.ilp_assign_s"] == (0.0, "s")
    assert outcome.metrics["placement.global_s"] == (pytest.approx(4.0), "s")
    assert all(math.isfinite(value) for value, _ in outcome.metrics.values())
    assert len(outcome.metrics) == len(LAYER_METRICS) + 2


def test_pooled_work_counts_in_the_dispatching_layer():
    spans = [
        span(OP, 0.0, 10.0, "o0", op=0),
        span("rotary.tapping", 1.0, 9.0, "t", op=0),
        span("parallel.dispatch", 2.0, 8.0, "d", parent="t", op=0, chunks=2),
        span("parallel.chunk", 2.0, 5.0, "x", parent="d", op=0),
        span("parallel.chunk", 4.0, 7.5, "y", parent="d", op=0),
    ]
    values = layer_values(spans, seen={})
    assert values["rotary.tapping_s"] == (pytest.approx(8.0), 1)
    assert values["parallel.dispatch_s"] == (pytest.approx(0.5), 1)
    assert values["parallel.pool_chunks"] == (pytest.approx(2.0), 1)


# -- the tracer ------------------------------------------------------------
class _Box:
    def __init__(self, n):
        self.n = n

    def grow(self, k):
        return self.n + k

    @staticmethod
    def twice(x):
        return 2 * x

    @classmethod
    def make(cls, n):
        return cls(n)


def test_wrappers_record_nested_spans_and_restore():
    tracer = Tracer()
    grow, twice, make = _Box.grow, _Box.twice, _Box.make
    init = _Box.__dict__["__init__"]
    tracer.wrap(_Box, "grow", "box.grow", args=lambda a, kw, r: {"k": a[1]})
    tracer.wrap(_Box, "twice", "box.twice")
    tracer.wrap(_Box, "make", "box.make", mark=True)
    tracer.wrap(_Box, "__init__", "box.init",
                when=lambda a, kw: a[1] > 0)
    tracer.op = 7
    with tracer.span("outer"):
        box = _Box.make(5)
        assert box.grow(2) == 7
        assert _Box.twice(4) == 8
        _Box(0)  # filtered by ``when``: seen, not recorded
    names = [s.name for s in tracer.spans]
    assert names == ["box.init", "box.make", "box.grow", "box.twice", "outer"]
    outer = tracer.spans[-1]
    assert all(s.parent == outer.span_id for s in tracer.spans[:-1])
    assert all(s.op == 7 for s in tracer.spans)
    assert tracer.spans[1].duration == 0.0
    assert tracer.spans[2].args == {"k": 2}
    assert tracer.seen["box.init"] == 2
    tracer.restore()
    assert (_Box.grow, _Box.twice, _Box.make) == (grow, twice, make)
    assert _Box.__dict__["__init__"] is init


def test_on_import_patches_a_module_after_it_first_loads(tmp_path, monkeypatch):
    (tmp_path / "rotbench_lazy_mod.py").write_text("def f():\n    return 1\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    tracer = Tracer()
    installed = []

    def install():
        installed.append(True)
        tracer.wrap(sys.modules["rotbench_lazy_mod"], "f", "lazy.f")

    tracer.on_import("rotbench_lazy_mod", install)
    tracer.on_import("rotbench_never_imported", install)
    assert not installed
    try:
        import rotbench_lazy_mod

        assert installed == [True]
        assert rotbench_lazy_mod.f() == 1
        assert [s.name for s in tracer.spans] == ["lazy.f"]
        before = len(sys.meta_path)
        tracer.restore()
        # The hook still pending is removed with the patches.
        assert len(sys.meta_path) == before - 1
        assert rotbench_lazy_mod.f.__name__ == "f" and not hasattr(
            rotbench_lazy_mod.f, "__wrapped__"
        )
    finally:
        sys.modules.pop("rotbench_lazy_mod", None)


def test_timed_tasks_are_children_of_the_span_open_when_handed_out():
    tracer = Tracer()
    tracer.op = 3
    done = []

    def run_tasks(task, items):
        threads = [threading.Thread(target=task, args=(i,)) for i in items]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()

    class Pool:
        run = staticmethod(run_tasks)

    tracer.wrap(Pool, "run", "dispatch",
                rewrite=lambda a, kw: ((tracer.timed(a[0], "chunk"), *a[1:]), kw))
    Pool.run(done.append, [1, 2])
    tracer.restore()
    assert sorted(done) == [1, 2]
    dispatch = [s for s in tracer.spans if s.name == "dispatch"]
    chunks = [s for s in tracer.spans if s.name == "chunk"]
    assert len(dispatch) == 1 and len(chunks) == 2
    assert all(c.parent == dispatch[0].span_id and c.op == 3 for c in chunks)
    assert all(c.tid != dispatch[0].tid for c in chunks)


# -- serve-mix request sequence ---------------------------------------------
def test_serve_blocks_all_have_the_same_make_up():
    from workloads import BLOCK_REQUESTS, BUNDLED, SERVE_KINDS, serve_blocks

    blocks = serve_blocks(5)
    seen: set[str] = set()
    for _ in range(12):
        block = next(blocks)
        assert len(block) == BLOCK_REQUESTS
        keys = [repr(r.to_dict()) for r in block]
        new = [k for k in dict.fromkeys(keys) if k not in seen]
        assert len(new) == BLOCK_REQUESTS // 3
        assert all(r.circuit not in BUNDLED for r in block)
        for kind in range(len(SERVE_KINDS)):
            group = block[3 * kind:3 * kind + 3] + block[12 + 3 * kind:15 + 3 * kind]
            assert len({(type(r).kind, r.options.assignment) for r in group}) == 1
        seen.update(keys)
    first = [repr(r.to_dict()) for r in next(serve_blocks(5))]
    assert first == [repr(r.to_dict()) for r in next(serve_blocks(5))]
    assert first != [repr(r.to_dict()) for r in next(serve_blocks(6))]


def test_bundled_block_serves_each_bundled_request_three_times():
    from workloads import BLOCK_REQUESTS, BUNDLED, SERVE_KINDS, bundled_block

    block = bundled_block()
    assert len(block) == BLOCK_REQUESTS
    keys = [repr(r.to_dict()) for r in block]
    assert len(set(keys)) == len(SERVE_KINDS) * len(BUNDLED)
    assert all(keys.count(k) == 3 for k in keys)
