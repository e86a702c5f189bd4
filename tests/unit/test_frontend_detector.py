"""Tests for the frontend execution engine, the detector facade, and
the report type."""

import pytest

from repro._location import UNKNOWN_LOCATION
from repro.core import BugKind, DetectorConfig, XFDetector
from repro.core.frontend import Frontend
from repro.core.report import Bug, DetectionReport, DetectionStats
from repro.pm.image import CrashImageMode
from repro.pmdk import I64, ObjectPool, Struct, U64, pmem
from repro.workloads.base import Workload


class MiniRoot(Struct):
    a = I64()
    b = I64()
    flag = U64()


class MiniWorkload(Workload):
    """Two persisted updates committed by a flag; post reads what the
    flag says is valid (the standard low-level commit-variable
    pattern)."""

    name = "mini"
    FAULTS = {"skip_persist_b": ("R", "b not persisted")}

    def _annotate(self, ctx, root):
        name = ctx.interface.add_commit_var(
            root.field_addr("flag"), 8, "flag"
        )
        ctx.interface.add_commit_range(name, root.field_addr("a"), 16)

    def setup(self, ctx):
        pool = ObjectPool.create(ctx.memory, "mini", "m", root_cls=MiniRoot)
        root = pool.root
        root.a = 1
        root.b = 2
        root.flag = 0
        pmem.persist(ctx.memory, root.address, MiniRoot.SIZE)

    def pre_failure(self, ctx):
        pool = ObjectPool.open(ctx.memory, "mini", "m", MiniRoot)
        root = pool.root
        self._annotate(ctx, root)
        root.a = 10
        pmem.persist(ctx.memory, root.field_addr("a"), 8)
        root.b = 20
        if not self.has_fault("skip_persist_b"):
            pmem.persist(ctx.memory, root.field_addr("b"), 8)
        root.flag = 1
        pmem.persist(ctx.memory, root.field_addr("flag"), 8)

    def post_failure(self, ctx):
        pool = ObjectPool.open(ctx.memory, "mini", "m", MiniRoot)
        root = pool.root
        self._annotate(ctx, root)
        if root.flag:  # benign commit-variable read
            _ = (root.a, root.b)


class CrashingPost(MiniWorkload):
    name = "crashing"

    def post_failure(self, ctx):
        raise ValueError("recovery exploded")


class TestFrontend:
    def test_stages_and_counts(self):
        result = Frontend(DetectorConfig()).run(MiniWorkload())
        assert result.workload_name == "mini"
        assert len(result.failure_points) == 3
        assert len(result.post_runs) == len(result.failure_points)
        assert result.pre_seconds > 0
        assert len(result.pre_recorder) > 0
        for run in result.post_runs:
            assert run.events > 0
            assert not run.has_roi
            assert run.crash is None
        # The pre-failure replay ran once, before the post runs, and
        # checkpointed every marker they fork.
        assert set(result.pre_replay.bug_offsets) == {
            fp.fid for fp in result.failure_points
        }
        assert len(result.pre_replay.checkpoints) == 3

    def test_no_injection_during_setup(self):
        result = Frontend(DetectorConfig()).run(MiniWorkload())
        # Setup persists the whole root but contributes no failure
        # points; only the three pre_failure persists do.
        assert len(result.failure_points) == 3

    def test_post_runs_isolated_from_pre_memory(self):
        result = Frontend(DetectorConfig()).run(MiniWorkload())
        first = result.post_runs[0]
        # The first failure point precedes a's fence: the post image in
        # as-written mode contains a=10 already.
        pool = first.failure_point.images[0]
        assert pool.pool_name == "mini"

    def test_post_crash_captured(self):
        result = Frontend(DetectorConfig()).run(CrashingPost())
        assert all(run.crash is not None for run in result.post_runs)

    def test_strict_mode_images(self):
        config = DetectorConfig(
            crash_image_mode=CrashImageMode.PERSISTED_ONLY
        )
        result = Frontend(config).run(MiniWorkload())
        assert result.failure_points  # images built without error


class TestDetectorFacade:
    def test_correct_workload_clean(self):
        report = XFDetector().run(MiniWorkload())
        assert report.bugs == []
        assert report.stats.failure_points == 3
        assert report.stats.pre_trace_events > 0
        assert report.stats.post_trace_events > 0

    def test_faulty_workload_detected(self):
        report = XFDetector().run(
            MiniWorkload(faults={"skip_persist_b"})
        )
        assert len(report.races) >= 1
        assert report.has_cross_failure_bugs

    def test_post_crash_reported_as_bug(self):
        report = XFDetector().run(CrashingPost())
        assert len(report.crashes) == report.stats.failure_points
        assert "recovery exploded" in report.crashes[0].detail

    def test_default_config_constructed(self):
        detector = XFDetector()
        assert detector.config.inject_failures is True


class TestReport:
    def _bug(self, kind=BugKind.CROSS_FAILURE_RACE, fp=0, detail="d"):
        return Bug(kind=kind, detail=detail, address=0x10, size=8,
                   failure_point=fp)

    def test_unique_bugs_dedup_across_failure_points(self):
        report = DetectionReport("w")
        report.bugs = [self._bug(fp=0), self._bug(fp=1), self._bug(fp=2)]
        assert len(report.unique_bugs()) == 1

    def test_of_kind_filters(self):
        report = DetectionReport("w")
        report.bugs = [
            self._bug(),
            self._bug(kind=BugKind.PERFORMANCE, detail="p"),
        ]
        assert len(report.races) == 1
        assert len(report.perf_bugs) == 1
        assert report.semantic_bugs == []

    def test_summary_and_format(self):
        report = DetectionReport("w")
        report.bugs = [self._bug()]
        assert "cross-failure race" in report.summary()
        assert "w:" in report.summary()
        formatted = report.format()
        assert formatted.splitlines()[0] == report.summary()
        assert len(formatted.splitlines()) == 2

    def test_stats_total(self):
        stats = DetectionStats(
            pre_failure_seconds=1.0,
            post_failure_seconds=2.0,
            backend_seconds=0.5,
        )
        assert stats.total_seconds == 3.5

    def test_bug_str_contains_location(self):
        from repro._location import SourceLocation

        bug = Bug(
            kind=BugKind.CROSS_FAILURE_RACE,
            detail="read of x",
            address=0x100,
            size=8,
            failure_point=2,
            reader_ip=SourceLocation("r.py", 3, "read"),
            writer_ip=SourceLocation("w.py", 4, "write"),
        )
        text = str(bug)
        assert "r.py:3" in text
        assert "w.py:4" in text
        assert "failure#2" in text
        assert bug.reader_ip is not UNKNOWN_LOCATION


class TestWorkloadBase:
    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError):
            MiniWorkload(faults={"nope"})

    def test_fault_flags_filter(self):
        assert MiniWorkload.fault_flags("R") == ["skip_persist_b"]
        assert MiniWorkload.fault_flags("P") == []

    def test_repr(self):
        text = repr(MiniWorkload(faults={"skip_persist_b"}, test_size=2))
        assert "skip_persist_b" in text
