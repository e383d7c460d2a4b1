"""The stable public API facade and the versioned request/response schema.

Two layers live here:

* **Request/response objects** — :class:`FlowRequest`,
  :class:`CheckRequest`, :class:`TablesRequest`, :class:`FlowResponse`,
  and :class:`JobStatus` are frozen dataclasses with exact
  ``to_dict``/``from_dict`` round-trips.  They *are* the wire schema of
  :mod:`repro.server` (every document carries ``api_version``), and they
  are simultaneously the canonical in-process calling convention::

      from repro.api import FlowRequest, run_flow

      response = run_flow(FlowRequest(circuit="s9234"))
      print(response.result.tapping_improvement, response.request_digest)

  Each request exposes a sha256 :meth:`~FlowRequest.digest` over its
  normalized ``(circuit, FlowOptions, Technology)`` content — the same
  canonical-JSON recipe as the checkpoint store's ``experiment_key`` —
  which keys the server's shared result cache: identical requests hit
  cache instead of recomputing.

* **Callable facade** — :func:`run_flow`, :func:`check_design`, and
  :func:`run_tables` each take exactly one request object and nothing
  else, so a named circuit becomes a run along one path whether it is
  called in-process, by the CLI, by the server, or by the parallel
  table suite.

A live :class:`~repro.netlist.Circuit` cannot ride the wire schema;
``IntegratedFlow`` / ``FlowOptions`` are the class-based surface for
those, and for custom placers or collectors.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Mapping

from .constants import DEFAULT_TECHNOLOGY, Technology
from .core import (
    EXECUTION_ONLY_OPTION_FIELDS,
    FlowOptions,
    FlowResult,
    IntegratedFlow,
    IterationRecord,
)
from .errors import ReproError
from .netlist import Circuit, generate_circuit, profile_for
from .obs import Collector

if TYPE_CHECKING:  # lazy at runtime: analysis pulls in core.cost
    from .analysis import CheckConfig, CheckReport
    from .experiments import SuiteRunReport

__all__ = [
    "API_VERSION",
    "EXECUTION_ONLY_FIELDS",
    "CheckRequest",
    "FlowRequest",
    "FlowResponse",
    "JobError",
    "JobState",
    "JobStatus",
    "TablesRequest",
    "TablesRun",
    "check_design",
    "request_digest",
    "run_flow",
    "run_tables",
]

#: Version tag carried by every request/response document.  Bump on any
#: incompatible schema change; ``from_dict`` rejects other versions, and
#: the tag participates in every request digest so a version bump can
#: never serve a cached result written under the old schema.  The HTTP
#: routes keep their own ``/v1/`` prefix, independent of this tag.
API_VERSION = "v2"


#: Execution-only :class:`FlowOptions` fields, addressed as dotted
#: ``options.<field>`` paths inside each request kind's wire document.
_EXECUTION_ONLY_OPTION_PATHS: frozenset[str] = frozenset(
    f"options.{name}" for name in EXECUTION_ONLY_OPTION_FIELDS
)

#: Digest classification rule.  A request field may be excluded from the
#: sha256 digest ONLY if it shapes *how* the request executes — load
#: shedding, parallelism, retries, checkpoint plumbing — and can never
#: change any byte of the computed result.  Everything else is
#: result-affecting and MUST participate: in particular, **every
#: :class:`FlowOptions` field except the
#: :data:`~repro.core.EXECUTION_ONLY_OPTION_FIELDS` carve-out
#: (``jobs``, the intra-run worker count, whose dispatch layer is
#: bit-identical for any value) is classified result-affecting**, so a
#: new flow knob lands in the digest automatically and the server's
#: :class:`~repro.server.cache.ResultCache` and the experiments
#: :class:`~repro.experiments.CheckpointStore` can never serve a result
#: computed under different options.  Entries with
#: a dot (``options.jobs``) strip one field from a nested sub-document.
#: ``tests/test_digest_classification.py`` enforces both directions.
EXECUTION_ONLY_FIELDS: Mapping[str, frozenset[str]] = {
    "flow": frozenset({"deadline_seconds"}) | _EXECUTION_ONLY_OPTION_PATHS,
    "check": frozenset({"deadline_seconds"}) | _EXECUTION_ONLY_OPTION_PATHS,
    "tables": frozenset(
        {
            "deadline_seconds",
            "parallel",
            "timeout",
            "max_retries",
            "retry_backoff",
            "checkpoint_dir",
            "resume",
        }
    )
    | _EXECUTION_ONLY_OPTION_PATHS,
}


def request_digest(document: Mapping[str, Any]) -> str:
    """Digest of one request document under the classification rule.

    Strips exactly the ``kind``'s :data:`EXECUTION_ONLY_FIELDS` from the
    document and hashes the rest as canonical JSON — so the digest is
    derived *from the wire document itself* and a newly added field is
    result-affecting (digest-included) unless explicitly classified
    otherwise.  Dotted entries (``options.jobs``) remove exactly one
    field from the named sub-document, leaving its siblings in the
    digest.
    """
    kind = str(document["kind"])
    execution_only = EXECUTION_ONLY_FIELDS[kind]
    payload: dict[str, Any] = {
        k: v for k, v in document.items() if k not in execution_only
    }
    for path in sorted(execution_only):
        head, dot, leaf = path.partition(".")
        if not dot:
            continue
        sub = payload.get(head)
        if isinstance(sub, Mapping):
            payload[head] = {k: v for k, v in sub.items() if k != leaf}
    return canonical_digest(payload)


def canonical_digest(payload: Mapping[str, Any]) -> str:
    """sha256 hex digest of ``payload`` as canonical JSON.

    Canonical = sorted keys, minimal separators — the recipe
    ``repro.experiments.checkpoint.experiment_key`` established for the
    ``(circuit, FlowOptions, Technology)`` checkpoint keys, kept here so
    the request digests and the checkpoint digests agree on what
    "identical configuration" means.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _require_schema(
    data: Mapping[str, Any], kind: str, known: frozenset[str], cls: str
) -> None:
    """Shared ``from_dict`` validation: version, kind, unknown keys."""
    version = data.get("api_version")
    if version != API_VERSION:
        raise ReproError(
            f"{cls}.from_dict: unsupported api_version {version!r} "
            f"(this library speaks {API_VERSION!r})"
        )
    got_kind = data.get("kind")
    if got_kind != kind:
        raise ReproError(
            f"{cls}.from_dict: expected kind {kind!r}, got {got_kind!r}"
        )
    unknown = sorted(set(data) - known)
    if unknown:
        raise ReproError(
            f"{cls}.from_dict: unknown field(s): {', '.join(unknown)}"
        )


def _tech_from_dict(data: Mapping[str, Any], cls: str) -> Technology:
    try:
        return Technology(**data)
    except TypeError as exc:
        raise ReproError(f"{cls}.from_dict: bad technology: {exc}") from exc


def _with_profile_grid(options: FlowOptions, circuit: str) -> FlowOptions:
    """``options`` with the circuit profile's ring grid when none is set.

    Digests are computed over the normalized form, so a request that
    spells out the profile's own ring grid and one that leaves it
    implicit share a cache entry.
    """
    if options.ring_grid_side is not None:
        return options
    return options.replace(ring_grid_side=profile_for(circuit).ring_grid_side)


# ----------------------------------------------------------------------
# Requests.
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True, slots=True, kw_only=True)
class FlowRequest:
    """One ``run_flow`` invocation as a value: circuit, options, tech.

    ``circuit`` is a name — a bundled benchmark (``"s9234"``, ``"scale10k"``)
    or any other string, which resolves to a small deterministic synthetic
    circuit seeded from the name (the same contract as
    ``repro tables --circuits``).  ``deadline_seconds`` is a service-side
    load-shedding knob and does not participate in the digest.
    """

    kind: ClassVar[str] = "flow"

    circuit: str
    options: FlowOptions = FlowOptions()
    tech: Technology = DEFAULT_TECHNOLOGY
    #: Soft per-request deadline honored by :mod:`repro.server`; ``None``
    #: defers to the server's default.
    deadline_seconds: float | None = None

    _KNOWN: ClassVar[frozenset[str]] = frozenset(
        {"api_version", "kind", "circuit", "options", "tech", "deadline_seconds"}
    )

    def replace(self, **changes: Any) -> "FlowRequest":
        """A copy with ``changes`` applied (keyword-only, validated)."""
        return dataclasses.replace(self, **changes)

    def normalized(self) -> "FlowRequest":
        """The request with profile defaults applied (ring grid side)."""
        return self.replace(
            options=_with_profile_grid(self.options, self.circuit)
        )

    def resolve(self) -> Circuit:
        """Generate the (deterministic) circuit this request names."""
        return generate_circuit(profile_for(self.circuit))

    def digest(self) -> str:
        """sha256 over the normalized request minus execution-only knobs.

        Derived from the full wire document via :func:`request_digest`,
        so every field — including every :class:`FlowOptions` knob — is
        result-affecting unless listed in :data:`EXECUTION_ONLY_FIELDS`.
        """
        return request_digest(self.normalized().to_dict())

    def to_dict(self) -> dict[str, Any]:
        """The wire document (round-trips through :meth:`from_dict`)."""
        return {
            "api_version": API_VERSION,
            "kind": self.kind,
            "circuit": self.circuit,
            "options": self.options.to_dict(),
            "tech": dataclasses.asdict(self.tech),
            "deadline_seconds": self.deadline_seconds,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FlowRequest":
        """Rebuild a request, rejecting version/kind/field mismatches."""
        _require_schema(data, cls.kind, cls._KNOWN, "FlowRequest")
        deadline = data.get("deadline_seconds")
        return cls(
            circuit=str(data["circuit"]),
            options=FlowOptions.from_dict(data.get("options", {})),
            tech=_tech_from_dict(data.get("tech", {}), "FlowRequest"),
            deadline_seconds=None if deadline is None else float(deadline),
        )


@dataclasses.dataclass(frozen=True, slots=True, kw_only=True)
class CheckRequest:
    """One ``check_design`` invocation as a value.

    ``config`` selects/re-levels rules exactly as
    :class:`repro.analysis.CheckConfig`; ``None`` means the full registry
    at default severities.
    """

    kind: ClassVar[str] = "check"

    circuit: str
    options: FlowOptions = FlowOptions()
    tech: Technology = DEFAULT_TECHNOLOGY
    netlist_only: bool = False
    config: "CheckConfig | None" = None
    deadline_seconds: float | None = None

    _KNOWN: ClassVar[frozenset[str]] = frozenset(
        {
            "api_version",
            "kind",
            "circuit",
            "options",
            "tech",
            "netlist_only",
            "config",
            "deadline_seconds",
        }
    )

    def replace(self, **changes: Any) -> "CheckRequest":
        return dataclasses.replace(self, **changes)

    def normalized(self) -> "CheckRequest":
        return self.replace(
            options=_with_profile_grid(self.options, self.circuit)
        )

    def resolve(self) -> Circuit:
        return generate_circuit(profile_for(self.circuit))

    def digest(self) -> str:
        return request_digest(self.normalized().to_dict())

    def to_dict(self) -> dict[str, Any]:
        return {
            "api_version": API_VERSION,
            "kind": self.kind,
            "circuit": self.circuit,
            "options": self.options.to_dict(),
            "tech": dataclasses.asdict(self.tech),
            "netlist_only": self.netlist_only,
            "config": None if self.config is None else self.config.to_dict(),
            "deadline_seconds": self.deadline_seconds,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CheckRequest":
        _require_schema(data, cls.kind, cls._KNOWN, "CheckRequest")
        config_doc = data.get("config")
        config: "CheckConfig | None" = None
        if config_doc is not None:
            from .analysis.checker import CheckConfig as _CheckConfig

            config = _CheckConfig.from_dict(config_doc)
        deadline = data.get("deadline_seconds")
        return cls(
            circuit=str(data["circuit"]),
            options=FlowOptions.from_dict(data.get("options", {})),
            tech=_tech_from_dict(data.get("tech", {}), "CheckRequest"),
            netlist_only=bool(data.get("netlist_only", False)),
            config=config,
            deadline_seconds=None if deadline is None else float(deadline),
        )


@dataclasses.dataclass(frozen=True, slots=True, kw_only=True)
class TablesRequest:
    """One ``run_tables`` invocation as a value.

    The parallel/retry knobs shape *how* the suite executes, not what it
    computes — serial, parallel, and resumed runs produce byte-identical
    tables — so they are excluded from the digest and identical table
    requests share one cache entry regardless of worker count.
    """

    kind: ClassVar[str] = "tables"

    circuits: tuple[str, ...] | None = None
    options: FlowOptions = FlowOptions()
    tech: Technology = DEFAULT_TECHNOLOGY
    ilp_time_limit: float = 10.0
    parallel: int = 0
    timeout: float | None = None
    max_retries: int = 2
    retry_backoff: float = 0.5
    checkpoint_dir: str | None = None
    resume: bool = False
    deadline_seconds: float | None = None

    _KNOWN: ClassVar[frozenset[str]] = frozenset(
        {
            "api_version",
            "kind",
            "circuits",
            "options",
            "tech",
            "ilp_time_limit",
            "parallel",
            "timeout",
            "max_retries",
            "retry_backoff",
            "checkpoint_dir",
            "resume",
            "deadline_seconds",
        }
    )

    def replace(self, **changes: Any) -> "TablesRequest":
        return dataclasses.replace(self, **changes)

    def resolved_circuits(self) -> tuple[str, ...]:
        """The explicit circuit list (default: the paper's five)."""
        if self.circuits is not None:
            return tuple(self.circuits)
        from .netlist import PROFILE_ORDER

        return tuple(PROFILE_ORDER)

    def digest(self) -> str:
        document = self.to_dict()
        document["circuits"] = list(self.resolved_circuits())
        return request_digest(document)

    def to_dict(self) -> dict[str, Any]:
        return {
            "api_version": API_VERSION,
            "kind": self.kind,
            "circuits": None if self.circuits is None else list(self.circuits),
            "options": self.options.to_dict(),
            "tech": dataclasses.asdict(self.tech),
            "ilp_time_limit": self.ilp_time_limit,
            "parallel": self.parallel,
            "timeout": self.timeout,
            "max_retries": self.max_retries,
            "retry_backoff": self.retry_backoff,
            "checkpoint_dir": self.checkpoint_dir,
            "resume": self.resume,
            "deadline_seconds": self.deadline_seconds,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TablesRequest":
        _require_schema(data, cls.kind, cls._KNOWN, "TablesRequest")
        circuits = data.get("circuits")
        timeout = data.get("timeout")
        checkpoint_dir = data.get("checkpoint_dir")
        deadline = data.get("deadline_seconds")
        return cls(
            circuits=(
                None if circuits is None else tuple(str(c) for c in circuits)
            ),
            options=FlowOptions.from_dict(data.get("options", {})),
            tech=_tech_from_dict(data.get("tech", {}), "TablesRequest"),
            ilp_time_limit=float(data.get("ilp_time_limit", 10.0)),
            parallel=int(data.get("parallel", 0)),
            timeout=None if timeout is None else float(timeout),
            max_retries=int(data.get("max_retries", 2)),
            retry_backoff=float(data.get("retry_backoff", 0.5)),
            checkpoint_dir=(
                None if checkpoint_dir is None else str(checkpoint_dir)
            ),
            resume=bool(data.get("resume", False)),
            deadline_seconds=None if deadline is None else float(deadline),
        )


# ----------------------------------------------------------------------
# Responses and job status.
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True, slots=True, kw_only=True)
class FlowResponse:
    """The result of one :class:`FlowRequest` plus provenance metadata.

    ``cached`` is true when a server served the response from its shared
    digest-keyed cache; the embedded ``result`` document is byte-identical
    either way (``FlowResult`` round-trips exactly).
    """

    kind: ClassVar[str] = "flow"

    request_digest: str
    result: FlowResult
    cached: bool = False

    _KNOWN: ClassVar[frozenset[str]] = frozenset(
        {"api_version", "kind", "request_digest", "result", "cached"}
    )

    def decision_digest(self) -> str:
        """Digest of the result's decision content (wall-clock stripped)."""
        return self.result.decision_digest()

    def to_dict(self) -> dict[str, Any]:
        return {
            "api_version": API_VERSION,
            "kind": self.kind,
            "request_digest": self.request_digest,
            "cached": self.cached,
            "result": self.result.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FlowResponse":
        _require_schema(data, cls.kind, cls._KNOWN, "FlowResponse")
        return cls(
            request_digest=str(data["request_digest"]),
            cached=bool(data.get("cached", False)),
            result=FlowResult.from_dict(data["result"]),
        )


class JobState(str, enum.Enum):
    """Lifecycle of one server job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED)


@dataclasses.dataclass(frozen=True, slots=True, kw_only=True)
class JobError:
    """Why a job failed: the task-failure kind plus attempts taken.

    ``kind`` mirrors :class:`repro.experiments.parallel.TaskFailure`:
    ``"crash"`` (worker process died), ``"timeout"`` (deadline exceeded),
    or ``"error"`` (the flow raised).
    """

    kind: str
    message: str
    attempts: int = 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "message": self.message,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobError":
        return cls(
            kind=str(data["kind"]),
            message=str(data.get("message", "")),
            attempts=int(data.get("attempts", 1)),
        )


@dataclasses.dataclass(frozen=True, slots=True, kw_only=True)
class JobStatus:
    """Wire-visible snapshot of one server job.

    Timing fields are durations (seconds spent queued / running), never
    wall-clock timestamps, so the schema stays deterministic-friendly.
    """

    kind_: ClassVar[str] = "job"

    job_id: str
    kind: str  # "flow" | "check" | "tables"
    state: JobState
    request_digest: str
    circuit: str
    cached: bool = False
    attempts: int = 0
    queued_seconds: float = 0.0
    run_seconds: float = 0.0
    num_events: int = 0
    error: JobError | None = None

    _KNOWN: ClassVar[frozenset[str]] = frozenset(
        {
            "api_version",
            "job_id",
            "kind",
            "state",
            "request_digest",
            "circuit",
            "cached",
            "attempts",
            "queued_seconds",
            "run_seconds",
            "num_events",
            "error",
        }
    )

    def to_dict(self) -> dict[str, Any]:
        return {
            "api_version": API_VERSION,
            "job_id": self.job_id,
            "kind": self.kind,
            "state": self.state.value,
            "request_digest": self.request_digest,
            "circuit": self.circuit,
            "cached": self.cached,
            "attempts": self.attempts,
            "queued_seconds": self.queued_seconds,
            "run_seconds": self.run_seconds,
            "num_events": self.num_events,
            "error": None if self.error is None else self.error.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobStatus":
        version = data.get("api_version")
        if version != API_VERSION:
            raise ReproError(
                f"JobStatus.from_dict: unsupported api_version {version!r} "
                f"(this library speaks {API_VERSION!r})"
            )
        unknown = sorted(set(data) - cls._KNOWN)
        if unknown:
            raise ReproError(
                f"JobStatus.from_dict: unknown field(s): {', '.join(unknown)}"
            )
        error_doc = data.get("error")
        return cls(
            job_id=str(data["job_id"]),
            kind=str(data["kind"]),
            state=JobState(str(data["state"])),
            request_digest=str(data["request_digest"]),
            circuit=str(data.get("circuit", "")),
            cached=bool(data.get("cached", False)),
            attempts=int(data.get("attempts", 0)),
            queued_seconds=float(data.get("queued_seconds", 0.0)),
            run_seconds=float(data.get("run_seconds", 0.0)),
            num_events=int(data.get("num_events", 0)),
            error=None if error_doc is None else JobError.from_dict(error_doc),
        )


# ----------------------------------------------------------------------
# Callable facade.
# ----------------------------------------------------------------------
def _require(request: object, cls: type, func: str, hint: str = "") -> None:
    """Reject anything but a ``cls`` request, naming the expected type."""
    if not isinstance(request, cls):
        raise ReproError(
            f"{func}() takes a {cls.__name__}, got {type(request).__name__}"
            + hint
        )


#: Where a caller holding a live Circuit object goes instead.
_CIRCUIT_HINT = (
    "; for a Circuit object use IntegratedFlow(circuit, tech, options).run()"
)


def run_flow(
    request: FlowRequest,
    *,
    collector: Collector | None = None,
    on_iteration: Callable[[IterationRecord], None] | None = None,
) -> FlowResponse:
    """Run the integrated placement + skew flow (Fig. 3) end to end.

    Returns a :class:`FlowResponse` whose ``result`` is the
    :class:`~repro.core.flow.FlowResult`::

        response = run_flow(FlowRequest(circuit="s9234",
                                        options=FlowOptions(max_iterations=3)))

    ``on_iteration`` is invoked with each :class:`IterationRecord` as the
    flow produces it (progress streaming).
    """
    _require(request, FlowRequest, "run_flow", _CIRCUIT_HINT)
    norm = request.normalized()
    result = IntegratedFlow(
        norm.resolve(),
        norm.tech,
        norm.options,
        collector=collector,
        on_iteration=on_iteration,
    ).run()
    return FlowResponse(
        request_digest=request.digest(), cached=False, result=result
    )


def check_design(request: CheckRequest) -> "CheckReport":
    """Run the static design-rule checker (``RCKnnn`` diagnostics).

    By default the integrated flow runs first and the full rule registry
    checks its result; with ``netlist_only`` the flow is skipped and only
    the netlist-level rules apply.
    """
    _require(request, CheckRequest, "check_design", _CIRCUIT_HINT)
    from .analysis import DesignContext, run_checks
    from .analysis.checker import CheckConfig as _CheckConfig

    norm = request.normalized()
    cfg = norm.config if norm.config is not None else _CheckConfig()
    resolved = norm.resolve()
    if norm.netlist_only:
        ctx = DesignContext(
            name=resolved.name, circuit=resolved, period=norm.options.period
        )
    else:
        result = IntegratedFlow(resolved, norm.tech, norm.options).run()
        ctx = DesignContext.from_flow(resolved, result, norm.tech)
    return run_checks(ctx, cfg)


@dataclasses.dataclass(frozen=True, slots=True)
class TablesRun:
    """Result of :func:`run_tables`: the seven tables plus run metadata.

    ``tables`` maps ``"table1"``...``"table7"`` to lists of row dicts (a
    failed circuit contributes an annotated ``{circuit, error}`` partial
    row instead of raising); ``failures`` maps circuit name to the
    recorded failure reason; ``report`` carries the parallel runner's
    retry/timeout/crash statistics (None for serial runs);
    ``stale_checkpoints`` counts checkpoint artifacts that existed for a
    requested circuit but no longer matched the configuration digest
    (previously these were dropped silently).

    Serializes with the same versioned ``to_dict``/``from_dict`` shape as
    :class:`JobStatus`, so a tables run can ride the server wire schema.
    """

    tables: dict[str, list[dict[str, object]]]
    failures: dict[str, str]
    report: "SuiteRunReport | None" = None
    stale_checkpoints: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict[str, Any]:
        report_doc = (
            None if self.report is None else dataclasses.asdict(self.report)
        )
        return {
            "api_version": API_VERSION,
            "kind": "tables",
            "tables": self.tables,
            "failures": dict(self.failures),
            "stale_checkpoints": self.stale_checkpoints,
            "report": report_doc,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TablesRun":
        _require_schema(
            data,
            "tables",
            frozenset(
                {
                    "api_version",
                    "kind",
                    "tables",
                    "failures",
                    "stale_checkpoints",
                    "report",
                }
            ),
            "TablesRun",
        )
        report_doc = data.get("report")
        report: "SuiteRunReport | None" = None
        if report_doc is not None:
            from .experiments import SuiteRunReport as _SuiteRunReport
            from .experiments import TaskFailure as _TaskFailure

            report = _SuiteRunReport(
                completed=tuple(report_doc.get("completed", ())),
                resumed=tuple(report_doc.get("resumed", ())),
                failed=tuple(
                    _TaskFailure(**f) for f in report_doc.get("failed", ())
                ),
                retries=int(report_doc.get("retries", 0)),
                timeouts=int(report_doc.get("timeouts", 0)),
                crashes=int(report_doc.get("crashes", 0)),
                seconds=float(report_doc.get("seconds", 0.0)),
            )
        return cls(
            tables={
                str(k): list(v) for k, v in dict(data["tables"]).items()
            },
            failures={
                str(k): str(v) for k, v in dict(data["failures"]).items()
            },
            report=report,
            stale_checkpoints=int(data.get("stale_checkpoints", 0)),
        )


def run_tables(
    request: TablesRequest, *, collector: Collector | None = None
) -> TablesRun:
    """Regenerate the paper's Tables I-VII.

    With ``parallel >= 1`` the (circuit x engine) matrix is fanned over
    that many worker processes with per-task ``timeout`` and bounded
    retries; with ``checkpoint_dir`` each completed circuit is written as
    an atomic JSON artifact, and ``resume`` serves completed circuits
    from there instead of re-running them.  Failed circuits degrade to
    annotated partial rows rather than raising — check
    :attr:`TablesRun.ok` (the CLI maps it to the exit code).
    """
    _require(request, TablesRequest, "run_tables")
    from . import experiments as exp
    from .obs import NULL_COLLECTOR

    coll = collector if collector is not None else NULL_COLLECTOR
    store = (
        exp.CheckpointStore(request.checkpoint_dir, collector=coll)
        if request.checkpoint_dir
        else None
    )
    if request.resume and store is None:
        raise ReproError("run_tables: resume requires checkpoint_dir")
    suite = exp.ExperimentSuite(
        circuits=list(request.resolved_circuits()),
        tech=request.tech,
        options=request.options,
        checkpoints=store,
        resume=request.resume,
    )
    report = None
    if request.parallel >= 1:
        report = exp.run_parallel_suite(
            suite,
            exp.parallel_options_from_flags(
                request.parallel,
                timeout=request.timeout,
                max_retries=request.max_retries,
                backoff=request.retry_backoff,
            ),
            collector=coll,
        )
    tables = {
        "table1": exp.table1_integrality_gap(suite, request.ilp_time_limit),
        "table2": exp.table2_test_cases(suite),
        "table3": exp.table3_base_case(suite),
        "table4": exp.table4_network_flow(suite),
        "table5": exp.table5_load_capacitance(suite),
        "table6": exp.table6_power(suite),
        "table7": exp.table7_wcp(suite),
    }
    return TablesRun(
        tables=tables,
        failures=dict(suite.failures),
        report=report,
        stale_checkpoints=0 if store is None else store.stale_entries,
    )
