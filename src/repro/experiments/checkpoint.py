"""On-disk checkpoint store for completed circuit experiments.

One JSON artifact per completed
:class:`~repro.experiments.runner.CircuitExperiment`, written atomically
(temp file + ``os.replace``) so a killed process can never leave a
half-written entry, and keyed by a digest of the full suite
configuration ``(circuit name, FlowOptions, Technology)`` — two suites
with different options or technologies sharing one checkpoint directory
can never serve each other stale results.

Everything the table generators read round-trips exactly: JSON floats
are shortest-repr, so reloading an entry restores bit-identical doubles
and the regenerated Tables II, VI, and VII are byte-identical to the
uninterrupted run (Tables III-V additionally carry measured CPU-seconds
columns, which are wall-clock facts of the original run and are restored
verbatim from the checkpoint).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Mapping

from ..clocktree import PathLengthStats
from ..constants import Technology
from ..core import EXECUTION_ONLY_OPTION_FIELDS, FlowOptions, FlowResult
from ..errors import ReproError
from ..netlist import generate_circuit, profile_for
from ..obs import NULL_COLLECTOR, Collector
from .runner import CircuitExperiment, PowerBreakdown

#: Bumped whenever the serialized layout changes incompatibly.
CHECKPOINT_FORMAT_VERSION = 1


def experiment_key(
    name: str, options: FlowOptions, tech: Technology
) -> str:
    """Digest identifying one circuit experiment's full configuration.

    Any change to any result-affecting :class:`FlowOptions` field or any
    technology parameter changes the key, invalidating checkpoint
    entries written under the old configuration.  Execution-only fields
    (:data:`~repro.core.EXECUTION_ONLY_OPTION_FIELDS` — the intra-run
    ``jobs`` worker count, bit-identical by the dispatch layer's
    contract) are stripped first, so the same run at a different
    parallelism resumes from the same checkpoints.
    """
    options_doc = options.to_dict()
    for field in sorted(EXECUTION_ONLY_OPTION_FIELDS):
        options_doc.pop(field, None)
    canonical = json.dumps(
        {
            "name": name,
            "options": options_doc,
            "tech": dataclasses.asdict(tech),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:20]


def serialize_experiment(experiment: CircuitExperiment) -> dict[str, Any]:
    """The JSON document stored for one completed experiment.

    The circuit and profile are *not* stored — both are regenerated
    deterministically from the circuit name on load.
    """
    paths = experiment.clock_tree_paths
    return {
        "circuit": experiment.name,
        "flow": experiment.flow.to_dict(),
        "ilp": experiment.ilp.to_dict(),
        "clock_tree_paths": {
            "average": paths.average,
            "maximum": paths.maximum,
            "minimum": paths.minimum,
            "num_sinks": paths.num_sinks,
        },
        "base_power": _power_to_dict(experiment.base_power),
        "flow_power": _power_to_dict(experiment.flow_power),
        "ilp_power": _power_to_dict(experiment.ilp_power),
    }


def deserialize_experiment(doc: Mapping[str, Any]) -> CircuitExperiment:
    """Rebuild a :class:`CircuitExperiment` from its stored document."""
    name = str(doc["circuit"])
    profile = profile_for(name)
    circuit = generate_circuit(profile)
    paths = doc["clock_tree_paths"]
    return CircuitExperiment(
        profile=profile,
        circuit=circuit,
        flow=FlowResult.from_dict(doc["flow"]),
        ilp=FlowResult.from_dict(doc["ilp"]),
        clock_tree_paths=PathLengthStats(
            average=float(paths["average"]),
            maximum=float(paths["maximum"]),
            minimum=float(paths["minimum"]),
            num_sinks=int(paths["num_sinks"]),
        ),
        base_power=_power_from_dict(doc["base_power"]),
        flow_power=_power_from_dict(doc["flow_power"]),
        ilp_power=_power_from_dict(doc["ilp_power"]),
    )


def _power_to_dict(power: PowerBreakdown) -> dict[str, float]:
    return {"clock": power.clock, "signal": power.signal}


def _power_from_dict(data: Mapping[str, Any]) -> PowerBreakdown:
    return PowerBreakdown(
        clock=float(data["clock"]), signal=float(data["signal"])
    )


class CheckpointStore:
    """Directory of per-experiment JSON checkpoints.

    File layout: ``<root>/<circuit>-<digest>.json`` where the digest is
    :func:`experiment_key` over the suite configuration.  Loads are
    lenient — a missing, unreadable, corrupt, version-mismatched, or
    key-mismatched entry is a cache miss, never an exception — while
    :meth:`save` failures raise, because silently losing checkpoints
    would defeat the resume guarantee.

    Lenient does not mean silent: a miss caused by an artifact that
    exists for the circuit but was written under a *different*
    configuration digest (options or technology changed since it was
    saved) bumps :attr:`stale_entries` and the
    ``experiments.checkpoint-stale`` counter on ``collector``, so
    ``run_tables`` can report how many checkpoints were ignored instead
    of dropping them invisibly.
    """

    def __init__(
        self, root: str | Path, collector: Collector = NULL_COLLECTOR
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.collector = collector
        #: Digest-mismatched artifacts encountered by :meth:`load`.
        self.stale_entries = 0

    # ------------------------------------------------------------------
    def path_for(
        self, name: str, options: FlowOptions, tech: Technology
    ) -> Path:
        return self.root / f"{name}-{experiment_key(name, options, tech)}.json"

    def entries(self) -> list[Path]:
        """All checkpoint artifacts currently in the store."""
        return sorted(self.root.glob("*.json"))

    # ------------------------------------------------------------------
    def load(
        self, name: str, options: FlowOptions, tech: Technology
    ) -> CircuitExperiment | None:
        """The stored experiment for this exact configuration, or None."""
        path = self.path_for(name, options, tech)
        try:
            doc = json.loads(path.read_text())
        except OSError:
            self._note_stale_siblings(name, path)
            return None
        except json.JSONDecodeError:
            return None
        if doc.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            return None
        if doc.get("key") != experiment_key(name, options, tech):
            self._count_stale(1)
            return None
        try:
            return deserialize_experiment(doc["experiment"])
        except (KeyError, TypeError, ValueError, ReproError):
            return None

    def _note_stale_siblings(self, name: str, wanted: Path) -> None:
        """Count artifacts for ``name`` written under other digests.

        The digest lives in the filename, so a configuration change makes
        the old artifact unreachable rather than key-mismatched on read;
        without this scan those entries would be dropped silently.
        """
        stale = sum(
            1
            for sibling in sorted(self.root.glob(f"{name}-*.json"))
            if sibling != wanted
        )
        self._count_stale(stale)

    def _count_stale(self, n: int) -> None:
        if n > 0:
            self.stale_entries += n
            self.collector.count("experiments.checkpoint-stale", n)

    def save(
        self,
        name: str,
        options: FlowOptions,
        tech: Technology,
        experiment: CircuitExperiment,
    ) -> Path:
        """Atomically write one experiment's checkpoint; returns its path."""
        path = self.path_for(name, options, tech)
        doc = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "circuit": name,
            "key": experiment_key(name, options, tech),
            "experiment": serialize_experiment(experiment),
        }
        payload = json.dumps(doc, indent=1, sort_keys=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{name}-", suffix=".tmp", dir=self.root
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path
