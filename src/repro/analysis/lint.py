"""The ``lint`` front door: interpreter plus hygiene findings.

Kept apart from the package ``__init__`` so that importing
``repro.analysis`` for crash plans (``--plan-mode``) does not load the
abstract interpreter.
"""

from __future__ import annotations

import inspect

from repro.analysis.findings import AnalysisReport
from repro.analysis.hygiene import check_module
from repro.analysis.interp import analyze_workload


def certified_lines(report):
    """Certified lines of one analysis report: covered minus
    uncertified minus everything inside an unsafe function span
    (``lint`` reports their count as ``stats.lines_certified``)."""
    certified = set(report.coverage) - set(report.uncertified)
    if not certified:
        return frozenset()
    unsafe = sorted(report.unsafe_spans)
    if unsafe:
        certified = {
            (file, line) for file, line in certified
            if not any(
                ufile == file and lo <= line <= hi
                for ufile, lo, hi in unsafe
            )
        }
    return frozenset(certified)


def lint_workload(workload, **budgets):
    """Interpreter + hygiene findings for one workload instance.

    Hygiene checks run over every source file the interpreter covered
    (the workload module and any inlined helper modules), so annotation
    mistakes are reported even in files only reached transitively.
    """
    report = analyze_workload(workload, **budgets)
    files = set()
    try:
        files.add(inspect.getsourcefile(type(workload)))
    except TypeError:
        pass
    for file, _line in getattr(report, "coverage", ()):
        files.add(file)
    hygiene = []
    for file in sorted(f for f in files if f):
        try:
            hygiene.extend(check_module(file))
        except (OSError, SyntaxError):
            continue
    if not report.stats.incomplete:
        report.stats.lines_certified = len(certified_lines(report))
    merged = AnalysisReport(
        report.target, list(report.findings) + hygiene, report.stats
    )
    for attr in ("coverage", "uncertified", "unsafe_spans", "errors"):
        setattr(merged, attr, getattr(report, attr))
    return merged
