"""End-to-end telemetry acceptance tests.

Exercises the ISSUE's acceptance flow: an audited detection run on
hashmap_atomic with a Table 5 fault must produce a span tree whose
leaves account for the run's wall-clock, a metrics dump with the
pipeline's key counters, and an audit log whose per-range FSM history
names the same writer as the bug report.
"""

import json

import pytest

from repro.cli import main
from repro.core import DetectorConfig, XFDetector
from repro.core.frontend import Frontend
from repro.core.replay import TraceReplayer, lower_trace
from repro.core.report import DetectionReport
from repro.core.shadow import ShadowPM
from repro.obs import AuditLog, read_ndjson
from repro.trace.events import KIND_CODE, EventKind
from repro.workloads import ALL_WORKLOADS


@pytest.fixture(scope="module")
def audited_report():
    workload = ALL_WORKLOADS["hashmap_atomic"](
        faults={"bug1_unpersisted_create"}
    )
    # Serial on purpose: the leaf-coverage check measures the
    # in-process profile.  On the warm pool the parent's wait for its
    # workers is covered by no leaf (0.76 on this workload).
    return XFDetector(DetectorConfig(audit=True, jobs=1)).run(workload)


class TestSpanProfile:
    def test_leaf_durations_cover_wall_clock(self, audited_report):
        spans = audited_report.telemetry.spans
        # Leaves must sum to within 10% of total wall-clock.
        assert spans.coverage() >= 0.9
        assert spans.leaf_seconds() <= spans.total_seconds() + 1e-9

    def test_span_tree_shape(self, audited_report):
        spans = audited_report.telemetry.spans
        (run,) = spans.roots
        assert run.name == "run"
        assert run.attrs["workload"] == "hashmap_atomic"
        children = [child.name for child in run.children]
        assert children[0] == "setup"
        assert children[1] == "pre_failure"
        assert children[-1] == "backend"
        assert children.index("pre_replay") < children.index("post_run")
        failure_points = audited_report.stats.failure_points
        # One post_run per failure point, its recovery checked as it
        # runs: no separate replay span.
        post_runs = spans.find("post_run")
        assert len(post_runs) == failure_points
        for span in post_runs:
            assert [child.name for child in span.children] == [
                "materialize_image", "recovery",
            ]
        assert spans.find("post_replay") == []

    def test_stats_derive_from_spans(self, audited_report):
        telemetry = audited_report.telemetry
        spans = telemetry.spans
        stats = audited_report.stats
        snapshot = telemetry.metrics.timer("snapshot_seconds").total
        pre = (
            spans.first("setup").duration
            + spans.first("pre_failure").duration
            - snapshot
        )
        post = snapshot + sum(
            span.duration for span in spans.find("post_run")
        )
        assert stats.pre_failure_seconds == pytest.approx(pre)
        assert stats.post_failure_seconds == pytest.approx(post)
        assert stats.backend_seconds == pytest.approx(
            spans.first("pre_replay").duration
            + spans.first("backend").duration
        )


class TestMetrics:
    def test_required_counters_present(self, audited_report):
        metrics = audited_report.telemetry.metrics
        stats = audited_report.stats
        assert metrics.value("failure_points_injected") == \
            stats.failure_points
        assert metrics.value("post_runs") == stats.failure_points
        assert metrics.value("shadow_transitions_total") > 0
        assert metrics.value("bugs_reported_total") == \
            len(audited_report.bugs)
        # One pre replay + one per failure point, none RoI-scoped
        # (hashmap_atomic does not annotate an RoI).
        assert metrics.value("replays_whole_trace") == \
            stats.failure_points + 1
        assert metrics.value("replays_roi_scoped") == 0
        assert metrics.value("pre_trace_events") == \
            stats.pre_trace_events
        assert metrics.value("post_trace_events") == \
            stats.post_trace_events

    def test_roi_workload_counts_scoped_replays(self):
        from repro.pmdk import I64, ObjectPool, Struct, pmem
        from repro.workloads.base import Workload

        class Root(Struct):
            value = I64()

        class RoIWorkload(Workload):
            name = "roi-obs"
            uses_roi = True

            def setup(self, ctx):
                pool = ObjectPool.create(
                    ctx.memory, "roi", "roi", root_cls=Root
                )
                pool.root.value = 0
                pmem.persist(
                    ctx.memory, pool.root.address, Root.SIZE
                )

            def pre_failure(self, ctx):
                pool = ObjectPool.open(
                    ctx.memory, "roi", "roi", Root
                )
                ctx.interface.roi_begin()
                pool.root.value = 1
                pmem.persist(ctx.memory, pool.root.address, 8)
                ctx.interface.roi_end()

            def post_failure(self, ctx):
                pool = ObjectPool.open(
                    ctx.memory, "roi", "roi", Root
                )
                ctx.interface.roi_begin()
                _ = pool.root.value
                ctx.interface.roi_end()

        report = XFDetector(DetectorConfig()).run(RoIWorkload())
        metrics = report.telemetry.metrics
        assert report.stats.failure_points > 0
        assert metrics.value("replays_roi_scoped") == \
            report.stats.failure_points + 1
        assert metrics.value("replays_whole_trace") == 0


class TestAuditLog:
    def test_bug_range_history_names_the_writer(self, audited_report):
        log = audited_report.telemetry.audit
        assert log is not None and len(log) > 0
        races = audited_report.races
        assert races
        for bug in races:
            history = log.history_for(
                bug.address, bug.size, bug.failure_point
            )
            assert history, bug
            assert log.last_writer(
                bug.address, bug.size, bug.failure_point
            ) == str(bug.writer_ip), bug

    def test_records_carry_context(self, audited_report):
        log = audited_report.telemetry.audit
        stages = {record.stage for record in log}
        assert stages == {"pre", "post"}
        layers = {record.layer for record in log}
        assert "persistence" in layers
        for record in log:
            json.dumps(record.to_dict())  # exportable

    def test_replay_records_sit_at_their_markers(self):
        """Each replay task records into its own log; the detector
        splices the records right after the pre-failure records that
        precede the failure point's marker, in replay order."""
        config = DetectorConfig(audit=True, crash_state_variants=2)
        detector = XFDetector(config)
        result = Frontend(config, telemetry=detector.telemetry).run(
            ALL_WORKLOADS["hashmap_atomic"](
                faults={"bug1_unpersisted_create"}
            )
        )
        log = detector.analyze(result).telemetry.audit
        # The pre-failure replay alone, counting records per marker.
        pre_log = AuditLog()
        replayer = TraceReplayer(
            ShadowPM(audit=pre_log.scoped(stage="pre")), config, "pre",
            DetectionReport(), has_roi=result.pre_recorder.has_roi,
        )
        pre_before = {}
        for instruction in lower_trace(result.pre_recorder):
            if instruction[0] == KIND_CODE[EventKind.FAILURE_POINT]:
                pre_before[int(instruction[3])] = len(pre_log)
            replayer.run_program([instruction])

        def content(record):
            return {
                key: value for key, value in record.to_dict().items()
                if key not in ("seq", "ts")
            }

        assert [record.seq for record in log] == list(range(len(log)))
        assert [content(r) for r in log if r.stage == "pre"] == [
            content(r) for r in pre_log
        ]
        assert set(log.fork_positions) == set(pre_before)
        for fid, position in log.fork_positions.items():
            pre = [r for r in log.records[:position] if r.stage == "pre"]
            assert len(pre) == pre_before[fid]
            post = [r.seq for r in log if r.failure_point == fid]
            assert post == list(range(position, position + len(post)))

    def test_audit_off_by_default(self):
        report = XFDetector(DetectorConfig()).run(
            ALL_WORKLOADS["hashmap_atomic"](
                faults={"bug1_unpersisted_create"}
            )
        )
        assert report.telemetry.audit is None
        assert "audit" not in report.telemetry.to_dict()


class TestCLI:
    def test_run_profile_json(self, capsys):
        code = main([
            "run", "--workload", "hashmap_tx", "--profile", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["telemetry"]["spans"]
        assert "post_runs" in payload["telemetry"]["metrics"]

    def test_run_audit_profile(self, capsys):
        code = main([
            "run", "hashmap_atomic",
            "--fault", "bug1_unpersisted_create",
            "--audit", "--profile",
        ])
        out = capsys.readouterr().out
        assert code == 1  # bugs found
        assert "spans (leaf coverage" in out
        assert "failure_points_injected" in out
        assert "shadow_transitions_total" in out
        assert '"type": "audit"' in out

    def test_run_ndjson_sidecar(self, tmp_path, capsys):
        path = tmp_path / "run.ndjson"
        code = main([
            "run", "linkedlist", "--init", "1", "--test", "1",
            "--ndjson", str(path),
        ])
        capsys.readouterr()
        assert code == 0
        types = {record["type"] for record in read_ndjson(path)}
        assert {"stats", "span", "metric"} <= types

    def test_profile_subcommand(self, capsys):
        code = main(["profile", "hashmap_tx"])
        out = capsys.readouterr().out
        assert code == 0
        assert "spans (leaf coverage" in out
        assert "metrics:" in out

    def test_conflicting_workloads_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "btree", "--workload", "ctree"])

    def test_missing_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["run"])
