"""Correctness checks on the program's outputs.

* :func:`decision_hash` hashes what a flow decided: placement, ring
  assignment, tapping points and skew schedule.  Every operation on an
  input must reproduce the hash of the first one.  It is computed from
  the wire document (``FlowResult.to_dict()``), so in-process results
  and server responses are hashed the same way.  It does not use
  ``FlowResult.decision_digest()``: that digest includes
  ``ilp_stats.solve_seconds``, a wall-clock reading, so it differs on
  every Section VI run.
* :func:`rck_errors` runs the full RCK design-rule set on a converged
  result and returns the error findings (there must be none).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping

DECISION_KEYS = ("positions", "ring_of", "tappings", "schedule")


def decision_hash(result_doc: Mapping[str, Any]) -> str:
    payload = {key: result_doc[key] for key in DECISION_KEYS}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def report_hash(report_doc: Mapping[str, Any]) -> str:
    """Hash of a check report's findings (a check request's decisions)."""
    canonical = json.dumps(report_doc.get("findings", []), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def rck_errors(circuit: Any, result: Any, assignment: str) -> list[str]:
    """Codes of the error-severity findings of the full RCK rule set.

    The ring-capacity rule (RCK301) checks the Section V network-flow
    contract; the Section VI engine balances load capacitance instead,
    so it is disabled for ``assignment="ilp"``, as the flow itself does.
    """
    from repro.analysis import DesignContext, run_checks
    from repro.analysis.checker import CheckConfig

    config = CheckConfig(disabled=() if assignment == "flow" else ("RCK301",))
    report = run_checks(DesignContext.from_flow(circuit, result), config)
    return [d.code for d in report.findings if d.severity.name == "ERROR"]


def check_report_errors(response: Mapping[str, Any]) -> list[str]:
    """Error findings of a check response (plus a non-zero exit code)."""
    report = response.get("report", {})
    codes = [
        str(f.get("code")) for f in report.get("findings", [])
        if str(f.get("severity", "")).upper() == "ERROR"
    ]
    if response.get("exit_code", 0) != 0 and not codes:
        codes.append(f"exit_code={response.get('exit_code')}")
    return codes
