"""Static PM-misuse analysis (``repro.analysis``).

A path-enumerating abstract interpreter over the Python AST of workload
and mechanism modules (everything written against ``repro.pmdk`` /
``repro.pm``), reporting misuse findings with ``file:line`` provenance
in the dynamic detector's severity taxonomy, plus:

* :func:`~repro.analysis.tracecheck.analyze_trace` — the same rules
  over a recorded trace (offline mode, ``repro.trace.serialize``
  format);
* :func:`~repro.analysis.hygiene.check_module` — lexical
  RoI/annotation hygiene checks;
* :func:`infer_mechanisms` / :func:`analyze_mechanisms_workload` —
  trace-level mechanism inference (``repro.analysis.mech``) behind
  ``DetectorConfig.plan_mode`` and ``lint --mechanisms``;
* :func:`build_crash_plans` — invariant-driven crash plans from
  mechanism epochs (``repro.analysis.plans``);
* :func:`~repro.analysis.sarif.to_sarif` /
  :func:`~repro.analysis.sarif.findings_from_sarif` — SARIF 2.1.0
  export for CI annotation (``lint --sarif``).

:func:`repro.analysis.lint.lint_workload` is the front door the CLI
uses: interpreter findings plus hygiene findings over every interpreted
source file.

The package itself imports only what a ``--plan-mode`` run loads
anyway (mechanism inference, crash plans and the finding model they
report in); the interpreter, hygiene, trace checker, SARIF and ground
truth are imported from their submodules.
"""

from __future__ import annotations

from repro.analysis.findings import AnalysisReport, AnalysisStats, Finding
from repro.analysis.mech import (
    MechReport,
    analyze_mechanisms_workload,
    infer_mechanisms,
)
from repro.analysis.plans import (
    CrashPlan,
    CrashPlanSet,
    build_crash_plans,
)
from repro.analysis.rules import RULES, severity_of

__all__ = [
    "AnalysisReport",
    "AnalysisStats",
    "CrashPlan",
    "CrashPlanSet",
    "Finding",
    "MechReport",
    "RULES",
    "analyze_mechanisms_workload",
    "build_crash_plans",
    "infer_mechanisms",
    "severity_of",
]
