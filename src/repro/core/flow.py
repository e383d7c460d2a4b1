"""The integrated placement and skew optimization flow (Fig. 3).

Stages, exactly as in Section IV of the paper:

1. **Initial placement** — any placer, no clock awareness.
2. **Skew optimization** — traditional max-slack scheduling on the placed
   design (Section VII).
3. **Flip-flop assignment** — each flip-flop is associated with a ring:
   min-cost network flow (Section V) or the min-max-capacitance ILP
   (Section VI).  No flip-flop moves.
4. **Cost-driven skew optimization** — re-target delays so tapping points
   slide toward the flip-flops (Section VII).
5. **Evaluate** — overall cost = weighted tapping cost + signal
   wirelength; stop when converged.
6. **Pseudo-net insertion + incremental placement** — flip-flops are
   pulled toward their rings by pseudo nets; the placer runs in stable
   incremental mode; back to stage 3.

The record after the first stage-3 pass is the paper's *base case*
(Table III); the converged record is the Table IV result.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Literal, Mapping

import numpy as np

from ..constants import DEFAULT_CLOCK_PERIOD_PS, DEFAULT_TECHNOLOGY, Technology
from ..errors import ReproError
from ..geometry import (
    Point,
    hpwl_from_arrays,
    pin_index,
    position_arrays,
    position_dict,
)
from ..netlist import Circuit
from ..obs import NULL_COLLECTOR, Collector, Trace, TraceCollector
from ..parallel import resolve_jobs
from ..placement import (
    IncrementalOptions,
    LegalizationResult,
    QuadraticPlacer,
    incremental_place,
    legalize,
    refine_placement,
    region_for_circuit,
)
from ..rotary import RingArray
from ..sanitize import Sanitizer, sanitize_action_from_env
from ..timing import (
    CriticalPathExtractor,
    TimingSnapshot,
    VectorizedTiming,
    critical_net_weights,
    worst_pair_slack,
)
from .assignment_flow import network_flow_assignment
from .assignment_ilp import MinMaxCapResult, ilp_assignment
from .cost import Assignment, TappingCostCache
from .skew_cost_driven import cost_driven_schedule, ring_attractions
from .skew_traditional import SkewSchedule, max_slack_schedule

if TYPE_CHECKING:  # lazy at runtime: analysis imports core.cost
    from ..analysis.diagnostics import Diagnostic


#: Allowed values of the :class:`FlowOptions` fields that select a
#: formulation; ``__post_init__`` rejects anything else.
_OPTION_CHOICES: dict[str, tuple[str, ...]] = {
    "assignment": ("flow", "ilp"),
    "skew_mode": ("weighted", "minmax"),
    "net_weighting": ("none", "critical"),
}

#: Smallest allowed value of each integer :class:`FlowOptions` field
#: (``ring_grid_side`` may also be ``None``).
_OPTION_INT_MINIMUM: dict[str, int] = {
    "max_iterations": 1,
    "candidate_rings": 1,
    "critical_pairs_k": 0,
    "ring_grid_side": 1,
}

#: Allowed range ``(low, high, low_inclusive)`` of each real-valued
#: :class:`FlowOptions` field; values must also be finite.  The weights
#: may be 0 (the pseudo-net ablation turns the pull off), the headroom
#: is the ``RingArray.default_capacities`` floor, and the utilization
#: is the ``region_for_circuit`` range.
_OPTION_REAL_RANGE: dict[str, tuple[float, float, bool]] = {
    "period": (0.0, math.inf, False),
    "pseudo_net_weight": (0.0, math.inf, True),
    "stability_weight": (0.0, math.inf, True),
    "critical_weight": (0.0, math.inf, True),
    "tapping_weight": (0.0, math.inf, True),
    "convergence_tol": (0.0, math.inf, True),
    "capacity_headroom": (1.0, math.inf, True),
    "slack_fraction": (0.0, 1.0, True),
    "utilization": (0.0, 1.0, False),
}


def _range_text(low: float, high: float, low_inclusive: bool) -> str:
    if math.isinf(high):
        return f"a finite number {'>=' if low_inclusive else '>'} {low:g}"
    return f"a finite number in {'[' if low_inclusive else '('}{low:g}, {high:g}]"


@dataclass(frozen=True, slots=True, kw_only=True)
class FlowOptions:
    """Configuration of the integrated flow.

    Keyword-only and value-typed: every field round-trips through
    :meth:`to_dict` / :meth:`from_dict`, which is how the CLI, the
    benchmark harness, and ``repro profile`` all build their options.
    """

    period: float = DEFAULT_CLOCK_PERIOD_PS
    #: Maximum stage 3-6 iterations (the paper converges within five).
    max_iterations: int = 5
    #: Pseudo-net spring weight (stage 5).
    pseudo_net_weight: float = 0.5
    #: Candidate rings per flip-flop in the assignment network.
    candidate_rings: int = 8
    #: Ring capacity headroom over a perfectly uniform spread (Section V).
    capacity_headroom: float = 1.5
    #: Assignment engine: Section V ("flow") or Section VI ("ilp").
    assignment: Literal["flow", "ilp"] = "flow"
    #: Cost-driven skew formulation (Section VII).
    skew_mode: Literal["weighted", "minmax"] = "weighted"
    #: Guaranteed slack as a fraction of the stage-2 optimum.
    slack_fraction: float = 0.25
    #: Stop when the overall cost improves by less than this fraction.
    convergence_tol: float = 0.01
    #: Weight of tapping cost in the stage-5 overall cost.
    tapping_weight: float = 1.0
    #: Ring array grid side; ``None`` derives one from the flip-flop count.
    ring_grid_side: int | None = None
    #: Placement row utilization.
    utilization: float = 0.5
    #: Stability anchor weight for the incremental placement.
    stability_weight: float = 0.02
    #: Run the greedy relocate/swap detailed-placement pass after the
    #: initial placement (improves signal HPWL at extra CPU cost).
    detailed_refinement: bool = False
    #: Build Section IX local clock trees as a post-pass: flip-flops
    #: tapped near the same ring point share one zero-skew subtree when
    #: that saves wire and the merged targets stay timing-feasible.
    local_trees: bool = False
    #: Run the cheap static design rules (ring capacity, f_osc budget,
    #: permissible ranges, schedule consistency) after every stage-4
    #: pass and attach the findings to the iteration record.
    check_invariants: bool = False
    #: Record an execution trace: one span per Fig. 3 stage per
    #: iteration plus engine sub-spans, counters, and gauges, published
    #: on :attr:`FlowResult.trace`.  Off by default; the disabled path
    #: runs through a shared no-op collector.
    trace: bool = False
    #: Timing-driven placement coupling: "critical" extracts the top-k
    #: most-critical sequential pairs (smallest permissible-range slack)
    #: from the STA each iteration and up-weights the nets on their
    #: launch→capture paths in the quadratic placer; "none" keeps the
    #: historical clock-only coupling (pseudo-nets to rings), bit-exact.
    net_weighting: Literal["none", "critical"] = "none"
    #: How many critical pairs to extract per iteration (only read when
    #: ``net_weighting="critical"``).
    critical_pairs_k: int = 10
    #: Placer weight applied to every net on a critical pair's paths
    #: (nets off critical paths keep weight 1.0).
    critical_weight: float = 3.0
    #: Arm the runtime nondeterminism tripwires
    #: (:class:`repro.sanitize.Sanitizer`) for the duration of the
    #: run: touching the global ``random`` / legacy ``numpy.random``
    #: state or the wall clock inside a flow stage raises
    #: :class:`~repro.errors.SanitizerError`.  The ``REPRO_SANITIZE``
    #: environment variable arms the same tripwires without code changes
    #: (``1`` raises, ``record`` only counts).
    sanitize: bool = False
    #: Intra-run worker count for the hot-loop dispatch layer
    #: (:mod:`repro.parallel`): the tapping pair kernel, candidate
    #: pruning, and the wide levels of the vectorized STA.  ``"auto"``
    #: uses every core; the ``REPRO_JOBS`` environment variable, when
    #: set, overrides this value.  Execution-only: results are
    #: bit-identical for any worker count, so this is the one field
    #: excluded from request digests and checkpoint keys (see
    #: :data:`EXECUTION_ONLY_OPTION_FIELDS`).
    jobs: int | Literal["auto"] = 1

    def __post_init__(self) -> None:
        """Reject values no flow stage accepts, naming field and value."""
        for name, allowed in _OPTION_CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ReproError(
                    f"FlowOptions.{name} must be one of "
                    f"{', '.join(map(repr, allowed))}, got {value!r}"
                )
        for name, minimum in _OPTION_INT_MINIMUM.items():
            value = getattr(self, name)
            if value is None and name == "ring_grid_side":
                continue
            if isinstance(value, bool) or not (
                isinstance(value, int) and value >= minimum
            ):
                raise ReproError(
                    f"FlowOptions.{name} must be an integer >= {minimum}, "
                    f"got {value!r}"
                )
        for name, (low, high, low_inclusive) in _OPTION_REAL_RANGE.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not (
                isinstance(value, (int, float))
                and math.isfinite(value)
                and (value >= low if low_inclusive else value > low)
                and value <= high
            ):
                raise ReproError(
                    f"FlowOptions.{name} must be "
                    f"{_range_text(low, high, low_inclusive)}, got {value!r}"
                )
        try:
            resolve_jobs(self.jobs, env={})
        except ValueError as exc:
            raise ReproError(f"FlowOptions.jobs: {exc}") from None

    def replace(self, **changes: Any) -> "FlowOptions":
        """A copy with ``changes`` applied (keyword-only, validated)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        """All fields as a JSON-serializable dict."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FlowOptions":
        """Build options from a dict, rejecting unknown field names."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ReproError(
                f"unknown FlowOptions field(s): {', '.join(unknown)}"
            )
        return cls(**data)


#: :class:`FlowOptions` fields that shape *execution only* — they can
#: never change what a run computes, only how fast it goes — and are
#: therefore stripped from request digests (``repro.api``) and
#: checkpoint keys (``repro.experiments.checkpoint``).  The dispatch
#: layer's determinism contract (fixed chunk boundaries, ordered
#: reductions; see :mod:`repro.parallel`) is what makes ``jobs``
#: eligible; every other field remains result-affecting.
EXECUTION_ONLY_OPTION_FIELDS: frozenset[str] = frozenset({"jobs"})

#: ``default`` of a key :meth:`FlowResult.from_dict` cannot do without.
_REQUIRED = object()


@dataclass(frozen=True, slots=True)
class IterationRecord:
    """Metrics captured at stage 5 of one iteration."""

    iteration: int
    tapping_wirelength: float
    signal_wirelength: float
    average_flipflop_distance: float
    max_load_capacitance: float
    overall_cost: float
    seconds: float
    #: Tapping solves served from the cross-iteration cost cache during
    #: this iteration, and solves actually recomputed.  Rows are reused
    #: when a flip-flop's (position, skew target) pair is unchanged.
    cost_cache_hits: int = 0
    cost_cache_misses: int = 0
    #: Smallest permissible-range slack over all sequential pairs under
    #: this iteration's schedule (ps; negative = a pair violates a
    #: setup/hold wall).  Recorded for every run, weighted or not.
    worst_slack: float = 0.0
    #: Nets carrying a critical-pair up-weight in the *next* incremental
    #: placement (0 unless ``FlowOptions.net_weighting="critical"``).
    weighted_nets: int = 0
    #: Static-check findings from the in-flow invariant pass (empty
    #: unless :attr:`FlowOptions.check_invariants` is set).
    findings: tuple["Diagnostic", ...] = ()

    @property
    def total_wirelength(self) -> float:
        return self.tapping_wirelength + self.signal_wirelength

    @property
    def cost_cache_hit_rate(self) -> float:
        """Fraction of tapping solves served from the cache (0 when idle)."""
        total = self.cost_cache_hits + self.cost_cache_misses
        return self.cost_cache_hits / total if total else 0.0

    @property
    def finding_counts(self) -> dict[str, int]:
        """Findings per diagnostic code (``{"RCK301": 2, ...}``)."""
        counts: dict[str, int] = {}
        for diag in self.findings:
            counts[diag.code] = counts.get(diag.code, 0) + 1
        return counts

    @property
    def num_error_findings(self) -> int:
        """Error-severity findings attached to this iteration."""
        return sum(1 for diag in self.findings if diag.severity.name == "ERROR")

    def to_dict(self) -> dict[str, Any]:
        """The record's metrics as a JSON-serializable dict."""
        return {
            "iteration": self.iteration,
            "tapping_wirelength_um": self.tapping_wirelength,
            "signal_wirelength_um": self.signal_wirelength,
            "total_wirelength_um": self.total_wirelength,
            "average_flipflop_distance_um": self.average_flipflop_distance,
            "max_load_capacitance_ff": self.max_load_capacitance,
            "overall_cost": self.overall_cost,
            "seconds": self.seconds,
            "cost_cache_hits": self.cost_cache_hits,
            "cost_cache_misses": self.cost_cache_misses,
            "worst_slack_ps": self.worst_slack,
            "weighted_nets": self.weighted_nets,
            "finding_counts": self.finding_counts,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "IterationRecord":
        """Rebuild a record serialized by :meth:`to_dict`.

        ``finding_counts`` is a lossy projection of :attr:`findings`
        (diagnostics do not round-trip); reloaded records carry no
        findings.
        """
        return cls(
            iteration=int(data["iteration"]),
            tapping_wirelength=float(data["tapping_wirelength_um"]),
            signal_wirelength=float(data["signal_wirelength_um"]),
            average_flipflop_distance=float(
                data["average_flipflop_distance_um"]
            ),
            max_load_capacitance=float(data["max_load_capacitance_ff"]),
            overall_cost=float(data["overall_cost"]),
            seconds=float(data["seconds"]),
            cost_cache_hits=int(data.get("cost_cache_hits", 0)),
            cost_cache_misses=int(data.get("cost_cache_misses", 0)),
            worst_slack=float(data.get("worst_slack_ps", 0.0)),
            weighted_nets=int(data.get("weighted_nets", 0)),
        )


@dataclass(frozen=True, slots=True)
class FlowResult:
    """Everything produced by one run of the integrated flow."""

    circuit_name: str
    positions: dict[str, Point]
    assignment: Assignment
    schedule: SkewSchedule
    array: RingArray
    base: IterationRecord
    final: IterationRecord
    history: tuple[IterationRecord, ...]
    #: Optimal stage-2 slack and the slack guaranteed during stage 4.
    slack_available: float
    slack_guaranteed: float
    seconds_algorithm: float
    seconds_placer: float
    #: Populated when the ILP assignment engine ran (Section VI).
    ilp_stats: MinMaxCapResult | None = None
    #: Populated when the Section IX local-tree post-pass ran.
    local_trees: "object | None" = None
    #: Populated when the run was traced (``FlowOptions(trace=True)`` or
    #: an explicit recording collector).
    trace: Trace | None = None
    #: The clock-oblivious stage-1 placement (before any pseudo-net
    #: iteration moved flip-flops).  The Table II conventional clock-tree
    #: baseline is synthesized from these, so the reference never shifts
    #: with the number of flow iterations.
    initial_positions: dict[str, Point] = dataclasses.field(
        default_factory=dict
    )

    @property
    def tapping_improvement(self) -> float:
        """Fractional tapping-WL reduction vs the base case."""
        if self.base.tapping_wirelength <= 0.0:
            return 0.0
        return 1.0 - self.final.tapping_wirelength / self.base.tapping_wirelength

    @property
    def signal_penalty(self) -> float:
        """Fractional signal-WL increase vs the base case."""
        if self.base.signal_wirelength <= 0.0:
            return 0.0
        return self.final.signal_wirelength / self.base.signal_wirelength - 1.0

    @property
    def total_improvement(self) -> float:
        """Fractional total-WL reduction vs the base case."""
        if self.base.total_wirelength <= 0.0:
            return 0.0
        return 1.0 - self.final.total_wirelength / self.base.total_wirelength

    def to_dict(self) -> dict[str, Any]:
        """The result as a JSON-serializable dict: the one saved form of
        a finished flow (``repro run --json`` prints it, ``--save``
        writes it, the server returns it, and checkpoints store it).

        Covers the design decisions (positions, assignment, schedule),
        the per-iteration records including ``finding_counts``, the
        headline improvements, and — when the run was traced — the
        aggregated trace summary.  The document carries everything
        :meth:`from_dict` needs to rebuild an equivalent result; only
        ``findings``, ``local_trees``, and the live ``trace`` object are
        lossy.
        """
        region = self.array.region
        return {
            "circuit": self.circuit_name,
            "period_ps": self.array.period,
            "num_rings": self.array.num_rings,
            "die": [region.xlo, region.ylo, region.xhi, region.yhi],
            "ring_grid_side": self.array.side,
            "ring_fill_factor": self.array.options.fill_factor,
            "ring_reference_delay": self.array.options.reference_delay,
            "positions": {
                name: [p.x, p.y] for name, p in sorted(self.positions.items())
            },
            "initial_positions": {
                name: [p.x, p.y]
                for name, p in sorted(self.initial_positions.items())
            },
            "ring_of": dict(sorted(self.assignment.ring_of.items())),
            "tappings": {
                name: {
                    "segment": sol.segment_index,
                    "x": sol.x,
                    "wirelength": sol.wirelength,
                    "periods_borrowed": sol.periods_borrowed,
                    "snaked": sol.snaked,
                    "target_delay": sol.target_delay,
                }
                for name, sol in sorted(self.assignment.solutions.items())
            },
            "schedule": dict(sorted(self.schedule.targets.items())),
            "schedule_slack_ps": self.schedule.slack,
            "slack_available_ps": self.slack_available,
            "slack_guaranteed_ps": self.slack_guaranteed,
            "base": self.base.to_dict(),
            "final": self.final.to_dict(),
            "history": [record.to_dict() for record in self.history],
            "improvements": {
                "tapping": self.tapping_improvement,
                "signal_penalty": self.signal_penalty,
                "total": self.total_improvement,
            },
            "seconds": {
                "algorithm": self.seconds_algorithm,
                "placer": self.seconds_placer,
            },
            "ilp_stats": (
                self.ilp_stats.to_dict() if self.ilp_stats is not None else None
            ),
            "trace": self.trace.summary() if self.trace is not None else None,
        }

    def decision_digest(self) -> str:
        """SHA-256 over the *decision* content of :meth:`to_dict`.

        Wall-clock-derived keys — every ``seconds`` entry, the Section
        VI ``ilp_stats.solve_seconds``, and the ``trace`` summary — are
        stripped recursively before hashing, so two runs that made
        identical placement/assignment/schedule decisions produce
        identical digests no matter how long each stage took.  This is
        the quantity the determinism integration test compares across
        ``PYTHONHASHSEED`` values.
        """

        def strip(value: Any) -> Any:
            if isinstance(value, dict):
                return {
                    key: strip(sub)
                    for key, sub in value.items()
                    if key not in ("seconds", "solve_seconds", "trace")
                }
            if isinstance(value, list):
                return [strip(sub) for sub in value]
            return value

        payload = json.dumps(strip(self.to_dict()), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FlowResult":
        """Rebuild a result serialized by :meth:`to_dict`.

        Every value the experiment suite and the table generators read —
        positions, ring array geometry, assignment with realized tapping
        solutions, schedule, iteration records, timings, ILP statistics —
        round-trips exactly (JSON floats are shortest-repr and restore
        bit-identical doubles).  ``findings``, ``local_trees``, and
        ``trace`` do not survive the round trip.  A missing or malformed
        key raises a :class:`~repro.errors.ReproError` that names it.
        """
        from ..geometry import BBox
        from ..rotary import RingArrayOptions, TappingSolution

        def read(
            key: str, parse: Callable[[Any], Any], default: Any = _REQUIRED
        ) -> Any:
            if key not in data:
                if default is _REQUIRED:
                    raise ReproError(
                        f"FlowResult document is missing key {key!r}"
                    )
                return default
            try:
                return parse(data[key])
            except (
                AttributeError, LookupError, TypeError, ValueError, ReproError
            ) as exc:
                raise ReproError(
                    f"FlowResult document has a malformed {key!r}: {exc!r}"
                ) from None

        def points(doc: Mapping[str, Any]) -> dict[str, Point]:
            return {
                name: Point(float(x), float(y)) for name, (x, y) in doc.items()
            }

        die = read("die", lambda d: BBox(*(float(v) for v in d)))
        period = read("period_ps", float)
        ring_options = RingArrayOptions(
            fill_factor=read("ring_fill_factor", float, 0.7),
            reference_delay=read("ring_reference_delay", float, 0.0),
        )
        array = read(
            "ring_grid_side",
            lambda side: RingArray(die, int(side), period, ring_options),
        )
        ring_of = read(
            "ring_of", lambda doc: {name: int(j) for name, j in doc.items()}
        )

        def tappings(doc: Mapping[str, Any]) -> dict[str, TappingSolution]:
            solutions: dict[str, TappingSolution] = {}
            for name, rec in doc.items():
                ring_id = ring_of[name]
                segment = array[ring_id].segments()[int(rec["segment"])]
                x = float(rec["x"])
                solutions[name] = TappingSolution(
                    ring_id=ring_id,
                    segment_index=int(rec["segment"]),
                    x=x,
                    point=segment.point_at(x),
                    wirelength=float(rec["wirelength"]),
                    periods_borrowed=int(rec["periods_borrowed"]),
                    snaked=bool(rec["snaked"]),
                    target_delay=float(rec["target_delay"]),
                )
            return solutions

        assignment = Assignment(
            ff_names=tuple(sorted(ring_of)),
            ring_of=ring_of,
            solutions=read("tappings", tappings),
        )
        schedule = SkewSchedule(
            targets=read(
                "schedule",
                lambda doc: {name: float(t) for name, t in doc.items()},
            ),
            slack=read("schedule_slack_ps", float, 0.0),
        )
        seconds_algorithm, seconds_placer = read(
            "seconds",
            lambda doc: (float(doc["algorithm"]), float(doc["placer"])),
        )
        return cls(
            circuit_name=read("circuit", str),
            positions=read("positions", points),
            assignment=assignment,
            schedule=schedule,
            array=array,
            base=read("base", IterationRecord.from_dict),
            final=read("final", IterationRecord.from_dict),
            history=read(
                "history",
                lambda doc: tuple(IterationRecord.from_dict(rec) for rec in doc),
            ),
            slack_available=read("slack_available_ps", float),
            slack_guaranteed=read("slack_guaranteed_ps", float),
            seconds_algorithm=seconds_algorithm,
            seconds_placer=seconds_placer,
            ilp_stats=read(
                "ilp_stats",
                lambda doc: (
                    None if doc is None else MinMaxCapResult.from_dict(doc)
                ),
                None,
            ),
            initial_positions=read("initial_positions", points, {}),
        )


class IntegratedFlow:
    """Runs the Fig. 3 methodology on one circuit."""

    def __init__(
        self,
        circuit: Circuit,
        tech: Technology = DEFAULT_TECHNOLOGY,
        options: FlowOptions | None = None,
        collector: Collector | None = None,
        on_iteration: Callable[[IterationRecord], None] | None = None,
    ) -> None:
        self.circuit = circuit
        self.tech = tech
        self.options = options or FlowOptions()
        #: Explicit collector, or None to derive one from ``options.trace``.
        self.collector = collector
        #: Progress hook invoked with each :class:`IterationRecord` as
        #: stage 5 produces it (the server streams these as job events).
        #: Kept off :class:`FlowOptions` so options stay value-typed and
        #: serializable.
        self.on_iteration = on_iteration
        self._ffs = [ff.name for ff in circuit.flip_flops]
        if not self._ffs:
            raise ReproError(f"circuit {circuit.name} has no flip-flops")

    # ------------------------------------------------------------------
    def _resolve_collector(self) -> Collector:
        if self.collector is not None:
            return self.collector
        return TraceCollector() if self.options.trace else NULL_COLLECTOR

    # ------------------------------------------------------------------
    def run(self) -> FlowResult:
        opts = self.options
        obs = self._resolve_collector()
        action = sanitize_action_from_env()
        if action is None and opts.sanitize:
            action = "raise"
        if action is None:
            return self._run(opts, obs)
        with Sanitizer(action=action, collector=obs):
            return self._run(opts, obs)

    def _run(self, opts: FlowOptions, obs: Collector) -> FlowResult:
        t_alg = 0.0
        t_placer = 0.0
        # Resolve the intra-run worker count once per run (the env var
        # REPRO_JOBS, when set, wins over the option; see
        # repro.parallel.resolve_jobs).  Purely an execution knob —
        # every dispatched stage is bit-identical for any value.
        jobs = resolve_jobs(opts.jobs)
        obs.gauge("flow.jobs", jobs)

        # One placement state: x/y arrays over ``list(circuit)`` (the
        # STA's cell order), plus the index maps built once per flow.
        ffs = self._ffs
        names = tuple(cell.name for cell in self.circuit)
        cell_index = {name: i for i, name in enumerate(names)}
        ff_cell = np.array([cell_index[ff] for ff in ffs], dtype=np.intp)
        pin_ptr, pins = pin_index(
            [cell_index[m] for m in net.members]
            for net in self.circuit.nets.values()
        )

        def ff_positions(x: np.ndarray, y: np.ndarray) -> dict[str, Point]:
            return position_dict(ffs, x[ff_cell], y[ff_cell])

        def along_ffs(values: Mapping[str, Any]) -> np.ndarray:
            return np.array([values[ff] for ff in ffs])

        # Stage 1: initial placement.
        tic = time.monotonic()
        with obs.span("stage1.initial-placement"):
            region = region_for_circuit(
                self.circuit, self.tech, opts.utilization
            )
            placer = QuadraticPlacer(self.circuit, region, collector=obs)
            movable = np.array(
                [cell_index[name] for name in placer.movable], dtype=np.intp
            )
            placer_cell = {name: i for i, name in enumerate(placer.movable)}
            ff_placer = np.array([placer_cell[ff] for ff in ffs], dtype=np.intp)
            # Pads never move: every placement starts from their sites.
            pads_x, pads_y = position_arrays(names, placer.fixed_positions)

            def with_pads(legal: LegalizationResult) -> tuple[np.ndarray, np.ndarray]:
                x, y = pads_x.copy(), pads_y.copy()
                x[movable] = legal.x
                y[movable] = legal.y
                return x, y

            gx, gy = placer.place()
            x, y = with_pads(legalize(gx, gy, placer.movable, region))
            if opts.detailed_refinement:
                refined = refine_placement(
                    self.circuit, region, position_dict(names, x, y)
                )
                x, y = position_arrays(names, refined.positions)
        # Snapshot the clock-oblivious placement: conventional-baseline
        # comparisons (Table II) reference these positions, never the
        # pseudo-net-iterated ones.  Placements are replaced, never
        # written in place, so holding the arrays is a snapshot.
        initial_x, initial_y = x, y
        t_placer += time.monotonic() - tic

        # Stage 2: traditional max-slack skew optimization.
        tic = time.monotonic()
        with obs.span("stage2.max-slack-skew"):
            sta = VectorizedTiming(self.circuit, self.tech, collector=obs, jobs=jobs)
            timing = sta.analyze(x, y)
            schedule = max_slack_schedule(timing, ffs, opts.period, self.tech)
        slack_available = schedule.slack
        # Guarantee a fraction of the achievable slack; if the design
        # cannot even reach zero slack, guarantee what is achievable so
        # the cost-driven LP stays feasible.
        if slack_available >= 0.0:
            slack_guaranteed = slack_available * opts.slack_fraction
        else:
            slack_guaranteed = slack_available
        obs.gauge("flow.slack-available-ps", slack_available)
        obs.gauge("flow.slack-guaranteed-ps", slack_guaranteed)

        # Timing-driven placement coupling: the extractor's adjacency is
        # structural, so it is built once and queried every iteration.
        extractor: CriticalPathExtractor | None = None
        if opts.net_weighting == "critical":
            extractor = CriticalPathExtractor(self.circuit, collector=obs)

        # Ring array sized to the die.
        side = opts.ring_grid_side or _default_ring_side(len(self._ffs))
        array = RingArray(region.bbox, side, opts.period)
        # Cost cache shared by every stage-3/4 solve of every iteration:
        # only flip-flops whose position or skew target changed since the
        # last build get their matrix row recomputed.
        cache = TappingCostCache(
            array, self.tech, opts.candidate_rings, collector=obs, jobs=jobs
        )
        # Section V ring capacities U_j (used by the flow engine and by
        # the RCK301 invariant check).
        capacities = [
            int(c)
            for c in array.default_capacities(
                len(self._ffs), opts.capacity_headroom
            )
        ]
        t_alg += time.monotonic() - tic

        base: IterationRecord | None = None
        history: list[IterationRecord] = []
        assignment: Assignment | None = None
        ilp_stats: MinMaxCapResult | None = None
        prev_cost = float("inf")
        # Previous iteration's ring assignment, aligned to the sorted
        # flip-flop order of the cost matrix — the warm start for the
        # stage-3 min-cost-flow re-solve.
        prev_assign: "np.ndarray | None" = None
        # Best iterate seen: (record, assignment, schedule, x, y).
        best: (
            tuple[IterationRecord, Assignment, SkewSchedule, np.ndarray, np.ndarray]
            | None
        ) = None

        for iteration in range(1, opts.max_iterations + 1):
            tic = time.monotonic()
            obs.count("flow.iterations")
            cache_hits0, cache_misses0 = cache.hits, cache.misses
            positions = ff_positions(x, y)
            # Stage 3: flip-flop assignment.
            with obs.span("stage3.assignment", iteration=iteration):
                targets = schedule.normalized(opts.period).targets
                matrix = cache.matrix(positions, targets)
                if opts.assignment == "flow":
                    assignment = network_flow_assignment(
                        matrix,
                        array,
                        positions,
                        targets,
                        self.tech,
                        capacities,
                        cache=cache,
                        warm_start=prev_assign,
                        collector=obs,
                    )
                    prev_assign = np.array(
                        [assignment.ring_of[n] for n in matrix.ff_names],
                        dtype=np.intp,
                    )
                else:
                    assignment, ilp_stats = ilp_assignment(
                        matrix,
                        array,
                        positions,
                        targets,
                        self.tech,
                        cache=cache,
                        collector=obs,
                    )

            if base is None:
                base = self._record(
                    0,
                    assignment,
                    hpwl_from_arrays(x, y, pin_ptr, pins),
                    array,
                    0.0,
                    worst_slack=worst_pair_slack(
                        timing,
                        along_ffs(schedule.targets),
                        opts.period,
                        self.tech,
                    ),
                )

            # Stage 4: cost-driven skew optimization.
            with obs.span("stage4.cost-driven-skew", iteration=iteration):
                attractions = ring_attractions(
                    along_ffs(assignment.ring_of),
                    x[ff_cell],
                    y[ff_cell],
                    along_ffs(schedule.targets),
                    array,
                    self.tech,
                )
                schedule = cost_driven_schedule(
                    attractions,
                    timing,
                    ffs,
                    opts.period,
                    self.tech,
                    slack=slack_guaranteed,
                    mode=opts.skew_mode,
                    collector=obs,
                )
                # Re-realize tappings under the new targets (same rings).
                targets = schedule.normalized(opts.period).targets
                assignment = _retarget(assignment, positions, targets, cache)

            # Critical-pair extraction (timing-driven coupling): rank
            # pairs by permissible-range slack under the stage-4
            # schedule and up-weight their path nets for the *next*
            # incremental placement (stage 6).
            scheduled = along_ffs(schedule.targets)
            net_weights: dict[str, float] | None = None
            if extractor is not None:
                with obs.span("timing.critical-extraction", iteration=iteration):
                    critical = extractor.extract(
                        timing,
                        scheduled,
                        opts.period,
                        self.tech,
                        k=opts.critical_pairs_k,
                    )
                    net_weights = critical_net_weights(
                        critical, opts.critical_weight
                    )
                obs.count("flow.weighted-nets", len(net_weights))
            worst_slack = worst_pair_slack(
                timing, scheduled, opts.period, self.tech
            )
            obs.gauge("flow.worst-slack-ps", worst_slack)

            # Stage 5: evaluate.
            seconds = time.monotonic() - tic
            t_alg += seconds
            with obs.span("stage5.evaluate", iteration=iteration):
                record = self._record(
                    iteration,
                    assignment,
                    hpwl_from_arrays(x, y, pin_ptr, pins),
                    array,
                    seconds,
                    cache_hits=cache.hits - cache_hits0,
                    cache_misses=cache.misses - cache_misses0,
                    worst_slack=worst_slack,
                    weighted_nets=0 if net_weights is None else len(net_weights),
                )
                if opts.check_invariants:
                    record = dataclasses.replace(
                        record,
                        findings=self._check_iteration(
                            position_dict(names, x, y),
                            array,
                            assignment,
                            capacities,
                            schedule,
                            slack_guaranteed,
                            timing,
                        ),
                    )
            obs.gauge("flow.overall-cost", record.overall_cost)
            history.append(record)
            if self.on_iteration is not None:
                self.on_iteration(record)
            if best is None or record.overall_cost < best[0].overall_cost:
                best = (record, assignment, schedule, x, y)
            if prev_cost - record.overall_cost < opts.convergence_tol * max(
                prev_cost, 1e-9
            ) and iteration > 1:
                break
            prev_cost = record.overall_cost
            if iteration == opts.max_iterations:
                break

            # Stage 6: pseudo nets + stable incremental placement.
            tic = time.monotonic()
            with obs.span(
                "stage6.incremental-placement", iteration=iteration
            ):
                if net_weights is not None and net_weights != placer.net_weights:
                    # Rebuilds the spring structure (and prefactored
                    # base) only when the critical set actually moved.
                    placer.set_net_weights(net_weights)
                # One pseudo net per flip-flop, to its tapping point.
                points = [assignment.solutions[ff].point for ff in ffs]
                pseudo = (
                    ff_placer,
                    np.array([p.x for p in points]),
                    np.array([p.y for p in points]),
                    np.full(len(ffs), opts.pseudo_net_weight),
                )
                inc = incremental_place(
                    placer,
                    (x[movable], y[movable]),
                    pseudo,
                    IncrementalOptions(
                        stability_weight=opts.stability_weight,
                        pseudo_net_weight=opts.pseudo_net_weight,
                    ),
                    collector=obs,
                )
                x, y = with_pads(inc)
            t_placer += time.monotonic() - tic

            tic = time.monotonic()
            with obs.span("timing.rebuild", iteration=iteration):
                timing = sta.analyze(x, y)
            t_alg += time.monotonic() - tic

        assert base is not None and best is not None and history
        # Return the best-cost iterate (min-max skew mode in particular can
        # trade total tapping cost while optimizing the max).
        best_record, best_assignment, best_schedule, best_x, best_y = best
        best_positions = position_dict(names, best_x, best_y)

        local_tree_result = None
        if opts.local_trees:
            tic = time.monotonic()
            # Lazy import: clocktree.local_trees depends on core.cost.
            from ..clocktree.local_trees import build_local_trees

            with obs.span("post.local-trees"):
                best_timing = sta.analyze(best_x, best_y)
                local_tree_result = build_local_trees(
                    best_assignment,
                    array,
                    best_positions,
                    best_schedule.targets,
                    best_timing.pairs,
                    self.tech,
                    period=opts.period,
                    slack=slack_guaranteed,
                )
            t_alg += time.monotonic() - tic

        return FlowResult(
            circuit_name=self.circuit.name,
            positions=best_positions,
            assignment=best_assignment,
            schedule=best_schedule,
            array=array,
            base=base,
            final=best_record,
            history=tuple(history),
            slack_available=slack_available,
            slack_guaranteed=slack_guaranteed,
            seconds_algorithm=t_alg,
            seconds_placer=t_placer,
            ilp_stats=ilp_stats,
            local_trees=local_tree_result,
            trace=obs.trace(),
            initial_positions=position_dict(names, initial_x, initial_y),
        )

    # ------------------------------------------------------------------
    def _check_iteration(
        self,
        positions: dict[str, Point],
        array: RingArray,
        assignment: Assignment,
        capacities: list[int],
        schedule: SkewSchedule,
        slack_guaranteed: float,
        timing: TimingSnapshot,
    ) -> "tuple[Diagnostic, ...]":
        """Run the cheap invariant rules against this iteration's state."""
        # Lazy import: repro.analysis depends on core.cost.
        from ..analysis import CheckConfig, DesignContext, run_checks

        opts = self.options
        # Capacity U_j is a Section V (network flow) contract; the ILP
        # engine balances load capacitance instead, so RCK301 is skipped.
        config = CheckConfig(
            disabled=() if opts.assignment == "flow" else ("RCK301",)
        )
        ctx = DesignContext(
            name=self.circuit.name,
            tech=self.tech,
            period=opts.period,
            circuit=self.circuit,
            positions=positions,
            array=array,
            ring_of=assignment.ring_of,
            tappings=assignment.solutions,
            capacities=capacities if opts.assignment == "flow" else None,
            schedule=schedule.targets,
            slack=slack_guaranteed,
            pairs=timing.pairs,
        )
        return run_checks(ctx, config, cheap_only=True).findings

    # ------------------------------------------------------------------
    def _record(
        self,
        iteration: int,
        assignment: Assignment,
        sig: float,
        array: RingArray,
        seconds: float,
        cache_hits: int = 0,
        cache_misses: int = 0,
        worst_slack: float = 0.0,
        weighted_nets: int = 0,
    ) -> IterationRecord:
        tap = assignment.tapping_wirelength
        return IterationRecord(
            iteration=iteration,
            tapping_wirelength=tap,
            signal_wirelength=sig,
            average_flipflop_distance=assignment.average_flipflop_distance,
            max_load_capacitance=assignment.max_load_capacitance(
                array, self.tech
            ),
            overall_cost=self.options.tapping_weight * tap + sig,
            seconds=seconds,
            cost_cache_hits=cache_hits,
            cost_cache_misses=cache_misses,
            worst_slack=worst_slack,
            weighted_nets=weighted_nets,
        )


def _retarget(
    assignment: Assignment,
    positions: Mapping[str, Point],
    targets: dict[str, float],
    cache: TappingCostCache,
) -> Assignment:
    """Recompute tapping solutions for the existing ring assignment.

    Served through the cost cache: flip-flops whose target survived the
    cost-driven rescheduling unchanged reuse their stage-3 solution.
    """
    return Assignment(
        ff_names=assignment.ff_names,
        ring_of=dict(assignment.ring_of),
        solutions=cache.realize(assignment.ring_of, positions, targets),
    )


def _default_ring_side(num_flipflops: int) -> int:
    """Heuristic ring-grid side: ~32 flip-flops per ring."""
    side = max(2, round((num_flipflops / 32.0) ** 0.5))
    return side
