"""Experiment orchestration: one place that runs the paper's evaluation.

Tables III-VII all consume the same two flow runs per circuit (network-flow
assignment and ILP assignment), and Table II needs the conventional
clock-tree baseline on the same initial placement.  The
:class:`ExperimentSuite` runs each circuit once and caches everything the
table generators need.

Three layers of persistence/fault tolerance sit on top of the in-process
cache:

* an optional :class:`~repro.experiments.checkpoint.CheckpointStore`
  writes the two flow results of each completed circuit as one JSON
  artifact (atomically, keyed by a digest of the suite configuration)
  and serves them back on resume, reassembled by
  :func:`assemble_experiment`;
* :meth:`ExperimentSuite.try_run` converts a crashing circuit into a
  recorded failure instead of an exception, which the table generators
  render as annotated partial rows;
* :mod:`repro.experiments.parallel` runs the (circuit x engine) matrix
  as jobs on the flow service's worker processes and installs the
  results through :meth:`ExperimentSuite.install_results`.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from ..clocktree import PathLengthStats, path_length_stats, synthesize_clock_tree_dme
from ..constants import DEFAULT_TECHNOLOGY, Technology, frequency_ghz
from ..errors import ReproError
from ..core import FlowOptions, FlowResult, IntegratedFlow, IterationRecord
from ..netlist import (
    PROFILE_ORDER,
    Circuit,
    CircuitProfile,
    generate_circuit,
    profile_for,
)
from ..power import clock_power_mw, signal_power_mw

if TYPE_CHECKING:  # avoid a runtime cycle: checkpoint imports runner
    from .checkpoint import CheckpointStore

#: Exception types under which a circuit's experiment degrades to an
#: annotated ``{circuit, error}`` partial table row.  Deliberately a
#: named tuple of types instead of a blanket ``except Exception``:
#: numeric and solver failures (ReproError covers the whole library
#: hierarchy; RuntimeError covers scipy breakdowns and injected test
#: faults; ValueError covers numpy.linalg.LinAlgError) are recoverable
#: data points, while programming errors (NameError, AttributeError,
#: AssertionError) and interrupts keep propagating.
FLOW_FAILURE_TYPES: tuple[type[Exception], ...] = (
    ReproError,
    ArithmeticError,
    IndexError,
    KeyError,
    MemoryError,
    OSError,
    RuntimeError,
    TypeError,
    ValueError,
)


@dataclass(frozen=True, slots=True)
class PowerBreakdown:
    """Clock/signal/total dynamic power of one design point (mW)."""

    clock: float
    signal: float

    @property
    def total(self) -> float:
        return self.clock + self.signal


@dataclass(frozen=True, slots=True)
class CircuitExperiment:
    """Everything measured for one benchmark circuit."""

    profile: CircuitProfile
    circuit: Circuit
    flow: FlowResult  # network-flow assignment engine (Section V)
    ilp: FlowResult  # ILP assignment engine (Section VI)
    clock_tree_paths: PathLengthStats
    base_power: PowerBreakdown
    flow_power: PowerBreakdown
    ilp_power: PowerBreakdown

    @property
    def name(self) -> str:
        return self.profile.name


def assemble_experiment(
    name: str,
    flow_result: FlowResult,
    ilp_result: FlowResult,
    tech: Technology,
    circuit: Circuit | None = None,
) -> CircuitExperiment:
    """One circuit's experiment from its Section V and VI flow results.

    The clock-tree baseline and the power figures (at the clock period
    the results ran at) are derived here from the two results, so a
    live result, one a worker returned, and one a checkpoint stored all
    assemble into the same experiment (every field they read
    round-trips exactly through ``FlowResult.from_dict``).
    ``circuit`` is generated from ``name`` when not given.
    """
    profile = profile_for(name)
    if circuit is None:
        circuit = generate_circuit(profile)

    # Conventional clock-tree baseline over the flip-flop locations
    # of the clock-oblivious *initial* placement — the paper's "for
    # reference" comparison.  Using the final flow placement here
    # would let the baseline drift with the iteration count.
    reference = flow_result.initial_positions or flow_result.positions
    ff_positions = {ff.name: reference[ff.name] for ff in circuit.flip_flops}
    tree = synthesize_clock_tree_dme(ff_positions, tech)

    freq = frequency_ghz(flow_result.array.period)
    n_ff = len(circuit.flip_flops)

    def power(record: IterationRecord) -> PowerBreakdown:
        return PowerBreakdown(
            clock=clock_power_mw(record.tapping_wirelength, n_ff, freq, tech),
            signal=signal_power_mw(
                circuit, record.signal_wirelength, freq, tech
            ),
        )

    return CircuitExperiment(
        profile=profile,
        circuit=circuit,
        flow=flow_result,
        ilp=ilp_result,
        clock_tree_paths=path_length_stats(tree),
        base_power=power(flow_result.base),
        flow_power=power(flow_result.final),
        ilp_power=power(ilp_result.final),
    )


class ExperimentSuite:
    """Runs and caches the paper's per-circuit experiments.

    Parameters
    ----------
    circuits:
        Benchmark names (default: the paper's five, in table order).
    tech:
        Technology parameters.
    options:
        Flow options template; the ring grid side and assignment engine
        are overridden per circuit/engine.
    checkpoints:
        Optional on-disk store; every completed experiment is written to
        it (atomically, keyed by a digest of ``(name, options, tech)``).
    resume:
        When true, :meth:`run` serves circuits from ``checkpoints``
        before computing anything, so an interrupted suite continues
        instead of restarting.
    """

    def __init__(
        self,
        circuits: Iterable[str] | None = None,
        tech: Technology = DEFAULT_TECHNOLOGY,
        options: FlowOptions | None = None,
        checkpoints: "CheckpointStore | None" = None,
        resume: bool = False,
    ):
        self.names = list(circuits) if circuits is not None else list(PROFILE_ORDER)
        self.tech = tech
        self.options = options or FlowOptions()
        self.checkpoints = checkpoints
        self.resume = resume
        self._cache: dict[str, CircuitExperiment] = {}
        #: Per-circuit failure reasons (set by :meth:`try_run` and the
        #: parallel suite); the table generators render these as
        #: annotated partial rows instead of raising.
        self.failures: dict[str, str] = {}

    # ------------------------------------------------------------------
    def is_cached(self, name: str) -> bool:
        return name in self._cache

    def options_for(self, name: str, engine: str) -> FlowOptions:
        """The per-circuit/engine options the suite runs with."""
        return self.options.replace(
            ring_grid_side=profile_for(name).ring_grid_side,
            assignment=engine,
        )

    # ------------------------------------------------------------------
    def load_checkpoint(self, name: str) -> CircuitExperiment | None:
        """Serve ``name`` from the checkpoint store (resume mode only)."""
        if self.checkpoints is None or not self.resume:
            return None
        experiment = self.checkpoints.load(name, self.options, self.tech)
        if experiment is not None:
            self._cache[name] = experiment
            self.failures.pop(name, None)
        return experiment

    def run(self, name: str) -> CircuitExperiment:
        """Run (or return cached/checkpointed) experiments for one circuit."""
        if name in self._cache:
            return self._cache[name]
        restored = self.load_checkpoint(name)
        if restored is not None:
            return restored
        circuit = generate_circuit(profile_for(name))
        flow_result = IntegratedFlow(
            circuit, self.tech, self.options_for(name, "flow")
        ).run()
        ilp_result = IntegratedFlow(
            circuit, self.tech, self.options_for(name, "ilp")
        ).run()
        return self.install_results(name, flow_result, ilp_result, circuit)

    def try_run(self, name: str) -> CircuitExperiment | None:
        """Like :meth:`run`, but a failure is recorded, not raised.

        A circuit already marked failed (e.g. by the parallel suite
        after exhausting its retries) stays failed — table generation
        never silently re-runs a multi-minute flow behind a failure.
        """
        if name in self._cache:
            return self._cache[name]
        if name in self.failures:
            return None
        try:
            return self.run(name)
        except FLOW_FAILURE_TYPES as exc:  # degrade to a partial row
            self.failures[name] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
            return None

    def install_results(
        self,
        name: str,
        flow_result: FlowResult,
        ilp_result: FlowResult,
        circuit: Circuit | None = None,
    ) -> CircuitExperiment:
        """Assemble, cache, and checkpoint one circuit's experiment.

        The serial path calls this with live :class:`FlowResult` objects
        and the circuit it ran them on; the parallel suite calls it with
        results deserialized from its workers.  Both go through
        :func:`assemble_experiment`, as a checkpoint load does.
        """
        experiment = assemble_experiment(
            name, flow_result, ilp_result, self.tech, circuit
        )
        self._cache[name] = experiment
        self.failures.pop(name, None)
        if self.checkpoints is not None:
            self.checkpoints.save(name, self.options, self.tech, experiment)
        return experiment

    def run_all(self) -> list[CircuitExperiment]:
        return [self.run(name) for name in self.names]
