"""On-disk checkpoint store for completed circuit experiments.

One JSON artifact per completed
:class:`~repro.experiments.runner.CircuitExperiment`, written atomically
(temp file + ``os.replace``) so a killed process can never leave a
half-written entry, and keyed by a digest of the full suite
configuration ``(circuit name, FlowOptions, Technology)`` — two suites
with different options or technologies sharing one checkpoint directory
can never serve each other stale results.

An entry holds the circuit's two ``FlowResult.to_dict()`` documents
(Section V ``flow`` and Section VI ``ilp``) and nothing else: a load
rebuilds the experiment through
:func:`~repro.experiments.runner.assemble_experiment`, the same assembly
a parallel job's results go through, regenerating the circuit and
recomputing its clock-tree baseline and power figures.  JSON floats are
shortest-repr, so the rebuilt results are bit-identical and the
regenerated Tables II, VI, and VII are byte-identical to the
uninterrupted run (Tables III-V additionally carry measured CPU-seconds
columns, which are wall-clock facts of the original run and are restored
verbatim from the stored results).
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from pathlib import Path

from ..api import canonical_digest
from ..constants import Technology
from ..core import EXECUTION_ONLY_OPTION_FIELDS, FlowOptions, FlowResult
from ..errors import ReproError
from ..obs import NULL_COLLECTOR, Collector
from .runner import CircuitExperiment, assemble_experiment

#: Bumped whenever the serialized layout changes incompatibly.
CHECKPOINT_FORMAT_VERSION = 2


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
    return canonical_digest(
        {
            "name": name,
            "options": options_doc,
            "tech": dataclasses.asdict(tech),
        }
    )[:20]


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
    saved) or checkpoint format version bumps :attr:`stale_entries` and
    the ``experiments.checkpoint-stale`` counter on ``collector``, so
    ``run_tables`` can report how many checkpoints were ignored instead
    of dropping them invisibly.
    """

    def __init__(
        self, root: str | Path, collector: Collector = NULL_COLLECTOR
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.collector = collector
        #: Digest- or version-mismatched artifacts met by :meth:`load`.
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
        """The stored experiment for this exact configuration, or None.

        An entry of another format version counts as stale, like one
        written under another configuration digest.
        """
        path = self.path_for(name, options, tech)
        try:
            doc = json.loads(path.read_text())
        except OSError:
            self._note_stale_siblings(name, path)
            return None
        except json.JSONDecodeError:
            return None
        if not isinstance(doc, dict):
            return None
        if (
            doc.get("format_version") != CHECKPOINT_FORMAT_VERSION
            or doc.get("key") != experiment_key(name, options, tech)
        ):
            self._count_stale(1)
            return None
        try:
            return assemble_experiment(
                name,
                FlowResult.from_dict(doc["flow"]),
                FlowResult.from_dict(doc["ilp"]),
                tech,
            )
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
            "flow": experiment.flow.to_dict(),
            "ilp": experiment.ilp.to_dict(),
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
