"""repro.lint — determinism sanitizer for the repo's own sources.

Two halves of one guarantee:

* a **static pass** (``repro lint``): an AST linter with determinism
  rules ``DET0xx`` (hash-ordered set iteration, unsorted filesystem
  listings, global RNG state, wall-clock reads, order-unstable float
  reductions) and API-hygiene rules ``API0xx`` (mutable defaults,
  swallowed exceptions, unannotated public functions), reported in the
  same text/JSON/SARIF formats — and under the same exit 0/1/2
  contract — as the PR-2 design-rule checker;
* a **runtime sanitizer** (:class:`Sanitizer`, ``REPRO_SANITIZE=1``,
  ``FlowOptions(sanitize=True)``): tripwires over ``time.time`` and the
  global ``random`` / ``numpy.random`` state that confirm dynamically
  what the static pass claims.  They live in :mod:`repro.sanitize`,
  which the flow imports without loading the linter, and are
  re-exported here.

Suppressions are inline pragmas with mandatory justification::

    x = risky()  # repro: lint-disable=DET001 -- order folded into a set
"""

from .engine import LintConfig, lint_paths, lint_source
from .findings import LintFinding, LintReport, Severity
from .pragmas import Pragma, scan_pragmas
from .reporters import render_json, render_sarif, render_text, sarif_document
from .rules import LintRule, registered_lint_rules, rule_by_code
from ..sanitize import SANITIZE_ENV, Sanitizer, sanitize_action_from_env

__all__ = [
    "LintConfig",
    "LintFinding",
    "LintReport",
    "LintRule",
    "Pragma",
    "SANITIZE_ENV",
    "Sanitizer",
    "Severity",
    "lint_paths",
    "lint_source",
    "registered_lint_rules",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_by_code",
    "sanitize_action_from_env",
    "sarif_document",
    "scan_pragmas",
]
