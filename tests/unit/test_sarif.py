"""SARIF 2.1.0 export round-trip tests (repro.analysis.sarif)."""

import json

from repro.analysis.findings import AnalysisReport, Finding
from repro.analysis.lint import lint_workload
from repro.analysis.sarif import (
    SARIF_VERSION,
    TOOL_NAME,
    findings_from_sarif,
    to_sarif,
    to_sarif_json,
)
from repro.workloads import ALL_WORKLOADS


def _report(findings, target="test"):
    return AnalysisReport(target, list(findings))


SAMPLE = [
    Finding(
        rule="XF-P001", file="src/a.py", line=10,
        message="store never persisted", function="update",
        stack=("src/a.py:10 in update", "src/b.py:4 in run"),
    ),
    Finding(
        rule="XF-M002", file="src/b.py", line=20,
        message="commit precedes its log", function="commit",
    ),
    Finding(
        rule="XF-F001", file="src/c.py", line=5,
        message="duplicate flush", function="flush_twice",
    ),
]


class TestStructure:
    def test_header_and_tool(self):
        log = to_sarif(_report(SAMPLE))
        assert log["version"] == SARIF_VERSION
        (run,) = log["runs"]
        assert run["tool"]["driver"]["name"] == TOOL_NAME

    def test_rules_are_deduplicated_and_indexed(self):
        log = to_sarif(_report(SAMPLE + SAMPLE))
        (run,) = log["runs"]
        rules = run["tool"]["driver"]["rules"]
        assert [r["id"] for r in rules] == sorted(
            {f.rule for f in SAMPLE}
        )
        for result in run["results"]:
            index = result["ruleIndex"]
            assert rules[index]["id"] == result["ruleId"]

    def test_severity_levels(self):
        log = to_sarif(_report(SAMPLE))
        levels = {
            r["ruleId"]: r["level"] for r in log["runs"][0]["results"]
        }
        assert levels["XF-M002"] == "error"  # race
        assert levels["XF-P001"] == "error"  # race
        assert levels["XF-F001"] == "note"  # performance

    def test_multiple_reports_merge_targets(self):
        log = to_sarif([
            _report(SAMPLE[:1], target="one"),
            _report(SAMPLE[1:], target="two"),
        ])
        (run,) = log["runs"]
        assert run["properties"]["targets"] == ["one", "two"]
        assert len(run["results"]) == len(SAMPLE)


class TestRoundTrip:
    def test_findings_survive_a_round_trip(self):
        text = to_sarif_json(_report(SAMPLE))
        parsed = findings_from_sarif(text)
        assert parsed == SAMPLE

    def test_round_trip_from_dict(self):
        log = to_sarif(_report(SAMPLE))
        assert findings_from_sarif(log) == SAMPLE

    def test_json_is_valid_and_deterministic(self):
        a = to_sarif_json(_report(SAMPLE))
        b = to_sarif_json(_report(SAMPLE))
        assert a == b
        json.loads(a)

    def test_real_lint_report_round_trips(self):
        workload = ALL_WORKLOADS["hashmap_atomic"](
            faults={"skip_persist_geometry"},
            init_size=2, test_size=3,
        )
        report = lint_workload(workload)
        assert report.findings  # the fault is statically detectable
        parsed = findings_from_sarif(to_sarif_json(report))
        assert parsed == list(report.findings)

    def test_empty_report_round_trips(self):
        text = to_sarif_json(_report([]))
        assert findings_from_sarif(text) == []
        log = json.loads(text)
        assert log["runs"][0]["results"] == []
