"""Findings model: what the static analyzer reports.

A :class:`Finding` is the static analogue of the dynamic detector's
``Bug``: a rule id, a severity from the same taxonomy, and ``file:line``
provenance pointing at the offending source.  Findings deduplicate on
``(rule, file, line)`` — one report per offending site, however many
paths reach it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.analysis.rules import RULES, severity_of


@dataclass(frozen=True)
class Finding:
    """One static PM-misuse report."""

    rule: str
    file: str
    line: int
    message: str
    function: str = ""
    #: Inline stack at the point of the finding, innermost first, as
    #: ``file:line in qualname`` strings.
    stack: tuple = ()

    @property
    def severity(self):
        return severity_of(self.rule)

    @property
    def location(self):
        return f"{self.file}:{self.line}"

    def key(self):
        return (self.rule, self.file, self.line)

    def short_location(self, root=None):
        """Location with the filename relative to ``root`` if under it."""
        path = self.file
        if root:
            try:
                rel = os.path.relpath(path, root)
            except ValueError:
                rel = path
            if not rel.startswith(".."):
                path = rel
        return f"{path}:{self.line}"

    def format(self, root=None):
        where = self.short_location(root)
        func = f" in {self.function}" if self.function else ""
        return (
            f"{where}: [{self.rule}/{self.severity}] "
            f"{self.message}{func}"
        )

    def to_dict(self, root=None):
        return {
            "rule": self.rule,
            "severity": self.severity,
            "title": RULES[self.rule].title if self.rule in RULES else "",
            "file": self.file,
            "line": self.line,
            "location": self.short_location(root),
            "message": self.message,
            "function": self.function,
            "stack": list(self.stack),
        }


@dataclass
class AnalysisStats:
    """How much the analyzer explored."""

    paths: int = 0
    steps: int = 0
    functions: int = 0
    lines_covered: int = 0
    lines_certified: int = 0
    #: True when a budget (paths / steps / loop cap) cut exploration
    #: short; ``lines_certified`` then stays 0.
    incomplete: bool = False

    def to_dict(self):
        return {
            "paths": self.paths,
            "steps": self.steps,
            "functions": self.functions,
            "lines_covered": self.lines_covered,
            "lines_certified": self.lines_certified,
            "incomplete": self.incomplete,
        }


class AnalysisReport:
    """Deduplicated findings plus exploration statistics."""

    def __init__(self, target, findings=(), stats=None):
        self.target = target
        deduped = {}
        for finding in findings:
            deduped.setdefault(finding.key(), finding)
        self.findings = sorted(
            deduped.values(), key=lambda f: (f.file, f.line, f.rule)
        )
        self.stats = stats if stats is not None else AnalysisStats()

    def __bool__(self):
        return bool(self.findings)

    def by_rule(self):
        grouped = {}
        for finding in self.findings:
            grouped.setdefault(finding.rule, []).append(finding)
        return grouped

    def merged_with(self, other):
        """A new report combining this one and ``other``."""
        merged = AnalysisReport(
            self.target, list(self.findings) + list(other.findings)
        )
        merged.stats = self.stats
        merged.stats.paths += other.stats.paths
        merged.stats.steps += other.stats.steps
        merged.stats.incomplete |= other.stats.incomplete
        return merged

    def format(self, root=None):
        lines = [f"== static analysis: {self.target} =="]
        if not self.findings:
            lines.append("no findings")
        for finding in self.findings:
            lines.append(finding.format(root))
        stats = self.stats
        lines.append(
            f"-- {len(self.findings)} finding(s), "
            f"{stats.paths} paths, {stats.steps} steps"
            + (" [incomplete]" if stats.incomplete else "")
        )
        return "\n".join(lines)

    def to_dict(self, root=None):
        return {
            "target": self.target,
            "findings": [f.to_dict(root) for f in self.findings],
            "stats": self.stats.to_dict(),
        }

    def to_json(self, root=None):
        return json.dumps(self.to_dict(root), indent=2)

    def records(self, root=None):
        """NDJSON records (``type``: finding / analysis_stats),
        consumable alongside ``repro.obs`` exports."""
        for finding in self.findings:
            yield {
                "type": "finding",
                "target": self.target,
                **finding.to_dict(root),
            }
        yield {
            "type": "analysis_stats",
            "target": self.target,
            **self.stats.to_dict(),
        }
