"""Span recording for the traced benchmark runs.

A :class:`Tracer` replaces a program entry point with a recording
wrapper, under the name its caller looks it up by (a module global, a
class attribute, a static or class method).  Each call becomes one
:class:`Span`: name, start, end, parent span, operation id, process and
thread.  Spans stay in memory and are written out when the run ends.

Wrappers never change what the wrapped call computes: they pass the
arguments through (a task handed to a worker pool may be passed on
inside a recording wrapper, the ``rewrite`` hook) and return the result
unchanged.  Counts are read from call arguments and return values (the
``args`` hook), never from the program's own counters.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.util
import itertools
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterator, Mapping

#: ``args(call_args, call_kwargs, result) -> {key: number}``.
ArgsHook = Callable[[tuple[Any, ...], Mapping[str, Any], Any], Mapping[str, Any]]
#: ``when(call_args, call_kwargs) -> bool``: record this call or not.
WhenHook = Callable[[tuple[Any, ...], Mapping[str, Any]], bool]
#: ``rewrite(call_args, call_kwargs) -> (call_args, call_kwargs)``, run
#: inside the call's span.
RewriteHook = Callable[
    [tuple[Any, ...], dict[str, Any]], tuple[tuple[Any, ...], dict[str, Any]]
]


@dataclass(slots=True)
class Span:
    """One recorded call (``start == end`` for a zero-length mark)."""

    name: str
    start: float
    end: float
    span_id: str
    parent: str | None = None
    op: int | None = None
    pid: int = 0
    tid: int = 0
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Span":
        return cls(**data)


class Tracer:
    """In-memory span store plus the entry-point patcher.

    ``op`` is the id of the benchmark operation in flight in this
    process; every span recorded while it is set carries it.  Spans from
    another process (the server and its forked workers) carry no op id
    and are matched to operations by time.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        #: Wrapper invocations per span name, recorded or not (a layer
        #: that was called but filtered by ``when`` is measured as 0,
        #: not unmeasured).
        self.seen: dict[str, int] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patched: list[tuple[Any, str, Any]] = []
        self._hooks: list[_PostImportHook] = []
        self._lock = threading.Lock()
        # A forked pool worker starts with no open spans and a fresh lock
        # (another thread may have held the parent's at fork time).
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- span stack ------------------------------------------------------
    def _stack(self) -> list[tuple[str, str]]:
        stack: list[tuple[str, str]] | None = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_name(self) -> str | None:
        """Name of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    def current_id(self) -> str | None:
        """Id of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1][0] if stack else None

    def _new_id(self) -> str:
        return f"{os.getpid()}.{next(self._ids)}"

    @contextmanager
    def span(
        self, name: str, parent: str | None = None, **args: Any
    ) -> Iterator[dict[str, Any]]:
        """Record the enclosed block; yields the span's mutable args.
        The parent is the innermost open span on this thread unless
        ``parent`` names one (a span open on another thread)."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1][0]
        span_id = self._new_id()
        stack.append((span_id, name))
        start = time.monotonic()
        try:
            yield args
        finally:
            end = time.monotonic()
            stack.pop()
            self.spans.append(
                Span(name, start, end, span_id, parent, self.op,
                     os.getpid(), threading.get_ident(), args)
            )

    def add(
        self, name: str, start: float, end: float,
        parent: str | None = None, **args: Any,
    ) -> Span:
        """Record a span from two timestamps taken elsewhere."""
        span = Span(name, start, end, self._new_id(), parent, self.op,
                    os.getpid(), threading.get_ident(), args)
        self.spans.append(span)
        return span

    def _saw(self, name: str) -> None:
        with self._lock:
            self.seen[name] = self.seen.get(name, 0) + 1

    def timed(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn``, recording span ``name`` per call as a child of the span
        open on this thread now, on whichever thread it later runs (a
        task handed to a worker pool)."""
        parent = self.current_id()
        tracer = self

        @functools.wraps(fn)
        def call(*call_args: Any, **call_kwargs: Any) -> Any:
            with tracer.span(name, parent=parent):
                return fn(*call_args, **call_kwargs)

        return call

    # -- patching --------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        args: ArgsHook | None = None,
        when: WhenHook | None = None,
        mark: bool = False,
        rewrite: RewriteHook | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper recording span ``name``.

        ``mark`` records a zero-length span at return instead of timing
        the call: for entry points whose counts are wanted but whose
        time would cover every other span (the whole flow).  ``rewrite``
        may replace the arguments, inside the span, before the call.
        """
        raw = _raw(owner, attr)
        rewrap: Callable[[Any], Any] | None = None
        fn = raw
        if isinstance(raw, (staticmethod, classmethod)):
            rewrap, fn = type(raw), raw.__func__
        tracer = self

        @functools.wraps(fn)
        def wrapper(*call_args: Any, **call_kwargs: Any) -> Any:
            tracer._saw(name)
            if when is not None and not when(call_args, call_kwargs):
                return fn(*call_args, **call_kwargs)
            if mark:
                result = fn(*call_args, **call_kwargs)
                now = time.monotonic()
                extra = args(call_args, call_kwargs, result) if args else {}
                tracer.add(name, now, now, tracer.current_id(), **extra)
                return result
            with tracer.span(name) as span_args:
                if rewrite is not None:
                    call_args, call_kwargs = rewrite(call_args, call_kwargs)
                result = fn(*call_args, **call_kwargs)
                if args is not None:
                    span_args.update(args(call_args, call_kwargs, result))
                return result

        self.patch(owner, attr, rewrap(wrapper) if rewrap else wrapper)

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        raw = _raw(owner, attr)
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, raw))

    def on_import(self, name: str, install: Callable[[], None]) -> None:
        """Run ``install`` now if module ``name`` is loaded, else right
        after it first loads.  Patching must not import a module the
        program would not have loaded yet: the server forks a worker per
        job, and what the server has imported the worker need not.
        """
        if name in sys.modules:
            install()
            return
        hook = _PostImportHook(name, install, self._hooks)
        self._hooks.append(hook)
        sys.meta_path.insert(0, hook)

    def restore(self) -> None:
        """Put every patched entry point back, newest first."""
        for hook in self._hooks:
            sys.meta_path.remove(hook)
        self._hooks.clear()
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- output ----------------------------------------------------------
    def take(self, since: int = 0) -> list[Span]:
        """Remove and return the spans recorded from index ``since``."""
        taken = self.spans[since:]
        del self.spans[since:]
        return taken


def _raw(owner: Any, attr: str) -> Any:
    """``owner.attr`` as stored: a class's own descriptor (a static or
    class method stays wrapped as such), or a module or object attribute."""
    if isinstance(owner, type):
        if attr not in owner.__dict__:
            raise AttributeError(f"{owner.__name__} defines no {attr!r}")
        return owner.__dict__[attr]
    return getattr(owner, attr)


class _PostImportHook(importlib.abc.MetaPathFinder):
    """Finder that runs a callback once its module has executed."""

    def __init__(self, name: str, install: Callable[[], None],
                 pending: list["_PostImportHook"]) -> None:
        self.name = name
        self.install = install
        self.pending = pending

    def find_spec(self, fullname: str, path: Any, target: Any = None) -> Any:
        if fullname != self.name:
            return None
        sys.meta_path.remove(self)
        self.pending.remove(self)
        spec = importlib.util.find_spec(fullname)
        if spec is None or spec.loader is None:
            return spec
        loader = spec.loader
        exec_module = loader.exec_module
        install = self.install

        def exec_then_install(module: Any) -> None:
            exec_module(module)
            install()

        loader.exec_module = exec_then_install  # type: ignore[method-assign]
        return spec


def chrome_trace(spans: list[Span], ops: Mapping[int, str]) -> dict[str, Any]:
    """Chrome trace-event document (``chrome://tracing``, Perfetto)."""
    events: list[dict[str, Any]] = []
    for span in spans:
        event: dict[str, Any] = {
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ts": span.start * 1e6,
            "pid": span.pid,
            "tid": span.tid,
            "args": {
                "id": span.span_id,
                "parent": span.parent,
                "op": span.op,
                **span.args,
            },
        }
        if span.start == span.end and span.name != "op":
            event.update(ph="i", s="t")
        else:
            event.update(ph="X", dur=span.duration * 1e6)
        events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"ops": {str(k): v for k, v in ops.items()}},
    }
