"""Runtime nondeterminism tripwires.

The static pass (:mod:`repro.lint`) proves the *source* is free of
nondeterminism hazard patterns; this module confirms it *dynamically*: a
:class:`Sanitizer` patches the process-global entry points a
reproducible flow must never touch — wall-clock reads (``time.time``)
and the shared ``random`` / ``numpy.random`` generator state — with
tripwires that record a counter through :mod:`repro.obs` and, in
``raise`` mode, abort with :class:`~repro.errors.SanitizerError`.

Activation:

* ``FlowOptions(sanitize=True)`` arms the tripwires for the duration of
  :meth:`IntegratedFlow.run`;
* the ``REPRO_SANITIZE`` environment variable arms them for every flow
  in the process — ``1``/``raise`` aborts on the first trip, ``record``
  lets the run continue (the original function is called through) while
  counting trips, so a CI job can report all of them at once.

The patches swap module attributes and restore them on exit, so the
sanitizer must not wrap code that runs concurrent threads drawing from
the global RNG — flow runs are single-threaded, and worker processes
arm their own sanitizer via the environment variable.

The module needs only :mod:`repro.errors` and :mod:`repro.obs`, so the
flow imports it at module level without loading the linter;
:mod:`repro.lint` re-exports its three public names.

Deliberately *not* patched: ``time.monotonic`` / ``time.perf_counter``
(latency metrics are legitimate — they never feed flow decisions),
seeded ``random.Random`` / ``numpy.random.Generator`` instances (the
reproducible way to draw), and ``datetime.now`` (an immutable C type;
the static DET004 rule covers it).
"""

from __future__ import annotations

import os
import random
import time
from types import TracebackType
from typing import Any, Callable, Literal

import numpy as np

from .errors import SanitizerError
from .obs import NULL_COLLECTOR, Collector

__all__ = [
    "SANITIZE_ENV",
    "Sanitizer",
    "sanitize_action_from_env",
]

#: Environment variable arming the tripwires process-wide.
SANITIZE_ENV = "REPRO_SANITIZE"

#: ``random`` module functions bound to the hidden global Random().
_RANDOM_ATTRS = (
    "betavariate", "choice", "choices", "expovariate", "gauss",
    "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "setstate", "shuffle", "triangular", "uniform", "vonmisesvariate",
    "weibullvariate",
)

#: Legacy ``numpy.random`` functions bound to the global RandomState.
_NP_RANDOM_ATTRS = (
    "beta", "binomial", "choice", "exponential", "normal", "permutation",
    "poisson", "rand", "randint", "randn", "random", "random_sample",
    "seed", "shuffle", "standard_normal", "uniform",
)

_WALL_CLOCK_ATTRS = ("time", "time_ns")


class Sanitizer:
    """Context manager installing the nondeterminism tripwires.

    ``action="raise"`` aborts on the first trip with
    :class:`SanitizerError`; ``action="record"`` counts the trip on the
    collector (``sanitize.trips`` plus one ``sanitize.trip.<name>``
    counter per entry point) and calls the original through.  Trip
    descriptions accumulate on :attr:`trips` either way.
    """

    def __init__(
        self,
        action: Literal["raise", "record"] = "raise",
        collector: Collector = NULL_COLLECTOR,
    ) -> None:
        if action not in ("raise", "record"):
            raise ValueError(
                f"Sanitizer action must be 'raise' or 'record', not {action!r}"
            )
        self.action = action
        self.collector = collector
        #: Human-readable descriptions of every tripped call.
        self.trips: list[str] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self._active = False

    # ------------------------------------------------------------------
    @property
    def trip_count(self) -> int:
        return len(self.trips)

    def _tripwire(
        self, module: Any, modname: str, attr: str
    ) -> Callable[..., Any]:
        original = getattr(module, attr)
        qualname = f"{modname}.{attr}"

        def tripped(*args: Any, **kwargs: Any) -> Any:
            self.trips.append(qualname)
            self.collector.count("sanitize.trips")
            self.collector.count(f"sanitize.trip.{qualname}")
            if self.action == "raise":
                raise SanitizerError(
                    f"nondeterminism tripwire: {qualname}() called while "
                    f"the sanitizer is armed; use a seeded generator "
                    f"(random.Random / numpy.random.default_rng) or "
                    f"time.monotonic for latency metrics"
                )
            return original(*args, **kwargs)

        return tripped

    def _patch(self, module: Any, modname: str, attrs: tuple[str, ...]) -> None:
        for attr in attrs:
            if not hasattr(module, attr):
                continue
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, self._tripwire(module, modname, attr))

    # ------------------------------------------------------------------
    def __enter__(self) -> "Sanitizer":
        if self._active:
            raise SanitizerError("Sanitizer context is not re-entrant")
        self._active = True
        self._patch(time, "time", _WALL_CLOCK_ATTRS)
        self._patch(random, "random", _RANDOM_ATTRS)
        self._patch(np.random, "numpy.random", _NP_RANDOM_ATTRS)
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        self._active = False


def sanitize_action_from_env() -> Literal["raise", "record"] | None:
    """The :data:`SANITIZE_ENV` action, or None when disarmed.

    ``1``, ``true``, ``on``, and ``raise`` arm the aborting mode;
    ``record`` arms the counting mode; anything else (including unset
    and ``0``) leaves the sanitizer off.
    """
    raw = os.environ.get(SANITIZE_ENV, "").strip().lower()
    if raw in ("1", "true", "on", "raise"):
        return "raise"
    if raw == "record":
        return "record"
    return None
