"""CLI tests for the ``lint`` subcommand and the run exit-code
contract (non-zero whenever the printed report contains any bug,
performance bugs included)."""

import json

import pytest

from repro.cli import main


class TestLint:
    def test_clean_workload_exits_zero(self, capsys):
        code = main(["lint", "linkedlist"])
        out = capsys.readouterr().out
        assert code == 0
        assert "no findings" in out

    def test_faulty_workload_reports_rule_and_location(self, capsys):
        code = main([
            "lint", "linkedlist", "--fault", "unlogged_length",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "XF-T001" in out
        assert "linkedlist.py:" in out

    def test_json_output(self, capsys):
        code = main([
            "lint", "hashmap_atomic",
            "--fault", "redundant_flush_count", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["findings"] == payload["new_findings"] == 1
        (report,) = payload["reports"]
        (finding,) = report["findings"]
        assert finding["rule"] == "XF-F001"
        assert finding["severity"] == "performance"
        assert finding["location"].startswith(
            "src/repro/workloads/hashmap_atomic.py:"
        )

    def test_ndjson_sidecar(self, capsys, tmp_path):
        path = tmp_path / "lint.ndjson"
        main([
            "lint", "linkedlist", "--fault", "unlogged_length",
            "--ndjson", str(path),
        ])
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        kinds = {record["type"] for record in records}
        assert kinds == {"finding", "analysis_stats"}
        assert any(
            record.get("rule") == "XF-T001" for record in records
        )

    def test_baseline_suppresses_known_findings(self, capsys,
                                                tmp_path):
        baseline = tmp_path / "baseline.txt"
        code = main([
            "lint", "linkedlist", "--fault", "unlogged_length",
            "--write-baseline", str(baseline),
        ])
        assert code == 0
        assert "XF-T001" in baseline.read_text()
        capsys.readouterr()
        code = main([
            "lint", "linkedlist", "--fault", "unlogged_length",
            "--baseline", str(baseline),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 new finding(s), 1 baselined" in out

    def test_offline_trace_mode(self, capsys, tmp_path):
        trace = tmp_path / "pre.trace"
        main([
            "trace", "hashmap_atomic", "--init", "1", "--test", "1",
            "--fault", "redundant_flush_count",
            "--dump", str(trace),
        ])
        capsys.readouterr()
        code = main(["lint", "--trace", str(trace)])
        out = capsys.readouterr().out
        assert code == 1
        assert "XF-F001" in out

    def test_all_requires_no_positional(self, capsys):
        with pytest.raises(SystemExit):
            main(["lint", "--trace", "/nonexistent", "--all"])

    def test_missing_selection_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["lint"])

    def test_mechanisms_mode_lints_all_six(self, capsys):
        code = main(["lint", "--mechanisms"])
        out = capsys.readouterr().out
        assert code == 0
        for name in (
            "undo-logging", "redo-logging", "checkpointing",
            "shadow-paging", "operational-logging",
            "checksum-recovery",
        ):
            assert f"mech:mech-{name}" in out

    def test_mechanisms_fault_surfaces_xfm_finding(self, capsys):
        code = main([
            "lint", "--mechanisms", "--fault", "valid_before_log",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "XF-M002" in out

    def test_sarif_export_round_trips(self, capsys, tmp_path):
        from repro.analysis import findings_from_sarif

        path = tmp_path / "lint.sarif"
        main([
            "lint", "linkedlist", "--fault", "unlogged_length",
            "--sarif", str(path),
        ])
        text = path.read_text()
        payload = json.loads(text)
        assert payload["version"] == "2.1.0"
        findings = findings_from_sarif(text)
        assert any(f.rule == "XF-T001" for f in findings)


class TestRunExitCodes:
    """``run`` exits non-zero iff the printed report has bugs — a
    performance-only report must not exit 0 (regression: the old exit
    path keyed on ``has_cross_failure_bugs``, which excludes
    performance bugs)."""

    PERF_ONLY = [
        "run", "hashmap_atomic", "--init", "1", "--test", "1",
        "--fault", "redundant_flush_count",
    ]

    def test_perf_only_report_exits_nonzero(self, capsys):
        code = main(list(self.PERF_ONLY))
        out = capsys.readouterr().out
        assert "performance" in out
        assert code == 1

    def test_perf_only_report_exits_nonzero_with_json(self, capsys):
        code = main(list(self.PERF_ONLY) + ["--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["bugs"]
        assert all(
            bug["kind"] == "performance bug"
            for bug in payload["bugs"]
        )
        assert code == 1

    def test_suppressed_perf_bugs_exit_zero(self, capsys):
        code = main(list(self.PERF_ONLY) + ["--no-perf-bugs"])
        out = capsys.readouterr().out
        assert "no bugs" in out
        assert code == 0

    def test_clean_json_run_exits_zero(self, capsys):
        code = main([
            "run", "linkedlist", "--init", "1", "--test", "1",
            "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert payload["bugs"] == []
        assert code == 0
