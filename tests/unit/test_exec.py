"""The parallel failure-point engine's building blocks (repro.exec)."""

import pickle

import pytest

from repro._location import UNKNOWN_LOCATION, SourceLocation
from repro.core.config import DetectorConfig
from repro.core.frontend import _variant_masks
from repro.errors import CrashSummary, PostFailureCrash
from repro.exec import (
    SerialExecutor,
    WarmProcessExecutor,
    resolve_executor,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder


class TestVariantMasks:
    def test_exhausts_single_bit_space(self):
        # One volatile line: the only non-all-survive mask is 0.  The
        # old attempt-budget loop silently under-produced here; now the
        # shortfall is explicit.
        masks, skipped = _variant_masks(fid=0, total_bits=1, count=5)
        assert masks == [0]
        assert skipped == 4

    def test_exhausts_two_bit_space(self):
        masks, skipped = _variant_masks(fid=3, total_bits=2, count=5)
        assert sorted(masks) == [0, 1, 2]  # 3 == all-survive, excluded
        assert skipped == 2

    def test_plenty_of_space_skips_nothing(self):
        masks, skipped = _variant_masks(fid=1, total_bits=8, count=5)
        assert len(masks) == 5
        assert len(set(masks)) == 5
        assert skipped == 0
        assert all(mask != 0xFF for mask in masks)

    def test_deterministic_per_failure_point(self):
        assert _variant_masks(2, 6, 4) == _variant_masks(2, 6, 4)
        assert (
            _variant_masks(2, 6, 4)[0] != _variant_masks(5, 6, 4)[0]
        )


HAS_FORK = WarmProcessExecutor.available()

needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="fork start method required"
)


class TestResolveExecutor:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("XFD_JOBS", raising=False)
        assert isinstance(
            resolve_executor(DetectorConfig()), SerialExecutor
        )

    def test_explicit_serial_kind(self):
        executor = resolve_executor(DetectorConfig(jobs=1))
        assert executor.kind == "serial"
        assert executor.jobs == 1

    @needs_fork
    def test_jobs_enable_a_pool(self):
        executor = resolve_executor(DetectorConfig(jobs=4))
        try:
            assert isinstance(executor, WarmProcessExecutor)
            assert executor.jobs == 4
        finally:
            executor.close()

    def test_audit_forces_serial(self):
        config = DetectorConfig(jobs=4, audit=True)
        assert isinstance(resolve_executor(config), SerialExecutor)

    def test_fail_fast_forces_serial(self):
        config = DetectorConfig(jobs=4, fail_fast=True)
        assert isinstance(resolve_executor(config), SerialExecutor)

    def test_process_when_fork_available(self):
        executor = resolve_executor(DetectorConfig(jobs=2))
        try:
            assert executor.kind == ("process" if HAS_FORK else "serial")
        finally:
            executor.close()

    @needs_fork
    def test_auto_prefers_a_pool(self):
        """With no executor knob left, ``jobs > 1`` alone picks the
        warm pool."""
        executor = resolve_executor(DetectorConfig(jobs=2))
        try:
            assert isinstance(executor, WarmProcessExecutor)
            assert executor.jobs == 2
        finally:
            executor.close()

    @pytest.mark.parametrize("fork", [True, False])
    @pytest.mark.parametrize("fail_fast", [False, True])
    @pytest.mark.parametrize("audit", [False, True])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_resolution_table(self, monkeypatch, jobs, audit,
                              fail_fast, fork):
        """The warm pool runs exactly when ``jobs > 1``, neither audit
        nor fail-fast asks for the in-process schedule, and the
        platform can fork; everything else is serial."""
        if fork and not HAS_FORK:
            pytest.skip("fork start method required")
        monkeypatch.setattr(
            WarmProcessExecutor, "available", staticmethod(lambda: fork)
        )
        config = DetectorConfig(
            jobs=jobs, audit=audit, fail_fast=fail_fast
        )
        executor = resolve_executor(config)
        try:
            warm = jobs > 1 and not audit and not fail_fast and fork
            expected = WarmProcessExecutor if warm else SerialExecutor
            assert type(executor) is expected
            assert executor.kind == ("process" if warm else "serial")
        finally:
            executor.close()


class TestEnvDefaults:
    def test_xfd_jobs(self, monkeypatch):
        monkeypatch.setenv("XFD_JOBS", "3")
        assert DetectorConfig().jobs == 3

    def test_xfd_jobs_invalid_degrades_to_one(self, monkeypatch):
        monkeypatch.setenv("XFD_JOBS", "lots")
        assert DetectorConfig().jobs == 1
        monkeypatch.setenv("XFD_JOBS", "-2")
        assert DetectorConfig().jobs == 1


def _double(_context, key):
    return key * 2


class TestExecutorsRunPhases:
    def test_serial_preserves_key_order(self):
        outcomes = SerialExecutor().run_phase(None, _double, [3, 1, 2])
        assert [o.value for o in outcomes] == [6, 2, 4]
        assert all(o.worker == "main" for o in outcomes)

    @needs_fork
    def test_warm_pool_preserves_key_order(self):
        executor = WarmProcessExecutor(4, batch_size=3)
        try:
            keys = list(range(20))
            outcomes = executor.run_phase(None, _double, keys)
        finally:
            executor.close()
        assert [o.value for o in outcomes] == [k * 2 for k in keys]
        assert all(o.queue_wait >= 0.0 for o in outcomes)
        assert all(o.worker.startswith("pid-") for o in outcomes)

    @needs_fork
    def test_warm_pool_empty_phase(self):
        """An empty phase returns no outcomes and forks no worker."""
        executor = WarmProcessExecutor(2)
        try:
            assert executor.run_phase(None, _double, []) == []
            assert executor._workers == []
        finally:
            executor.close()


class TestMetricsMerge:
    def test_merges_every_metric_kind(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.inc("hits", 2)
        b.inc("hits", 3)
        b.inc("misses")
        a.gauge("depth").set(5)
        b.gauge("depth").set(7)
        a.timer("t").observe(1.0)
        b.timer("t").observe(3.0)
        a.histogram("h", (10, 100)).observe(5)
        b.histogram("h", (10, 100)).observe(50)
        a.merge(b)
        assert a.value("hits") == 5
        assert a.value("misses") == 1
        assert a.value("depth") == 7
        timer = a.get("t")
        assert timer.count == 2
        assert timer.total == 4.0
        assert timer.min == 1.0
        assert timer.max == 3.0
        hist = a.get("h")
        assert hist.count == 2
        assert hist.counts[:2] == [1, 1]

    def test_merge_into_empty_equals_copy(self):
        src = MetricsRegistry()
        src.inc("x", 9)
        src.timer("t").observe(0.5)
        dst = MetricsRegistry()
        dst.merge(src)
        assert dst.value("x") == 9
        assert dst.get("t").count == 1

    def test_bucket_mismatch_raises(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.histogram("h", (1, 2))
        b.histogram("h", (1, 2, 3))
        with pytest.raises(ValueError):
            a.merge(b)


class TestSpanSynthesis:
    def test_add_completed_nests_under_open_span(self):
        spans = SpanRecorder()
        with spans.span("backend"):
            child = spans.add_completed("post_replay", 0.25, fid=1)
        assert spans.first("backend").children == [child]
        assert abs(child.duration - 0.25) < 1e-9
        assert child.attrs == {"fid": 1}

    def test_add_completed_at_top_level_is_a_root(self):
        spans = SpanRecorder()
        span = spans.add_completed("orphan", 0.1)
        assert span in spans.roots

    def test_negative_seconds_clamped(self):
        spans = SpanRecorder()
        span = spans.add_completed("x", -1.0)
        assert span.duration == 0.0


class TestCrossProcessIdentity:
    def test_unknown_location_survives_pickling(self):
        clone = pickle.loads(pickle.dumps(UNKNOWN_LOCATION))
        assert clone is UNKNOWN_LOCATION

    def test_real_location_roundtrips(self):
        loc = SourceLocation("a.py", 12, "f")
        clone = pickle.loads(pickle.dumps(loc))
        assert clone == loc
        assert clone is not UNKNOWN_LOCATION

    def test_crash_summary_preserves_message(self):
        try:
            raise KeyError("missing root object")
        except KeyError as exc:
            direct = PostFailureCrash(3, exc)
            shipped = PostFailureCrash(3, CrashSummary(repr(exc)))
        assert str(shipped) == str(direct)
