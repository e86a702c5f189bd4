"""Unit tests for the repro.obs telemetry subsystem."""

import json

import pytest

from repro.obs import (
    AuditLog,
    MetricsRegistry,
    SpanRecorder,
    Telemetry,
    default_registry,
    read_ndjson,
    resolve_telemetry,
    set_default_registry,
    to_ndjson,
    write_ndjson,
)
from repro.obs.metrics import DEFAULT_BUCKETS


class TestMetrics:
    def test_counter(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        assert registry.value("c") == 5
        assert registry.counter("c") is registry.counter("c")

    def test_gauge_and_convenience(self):
        registry = MetricsRegistry()
        registry.set_gauge("g", 7)
        registry.inc("c", 2)
        registry.observe("t", 0.5)
        assert registry.value("g") == 7
        assert registry.value("c") == 2
        assert registry.timer("t").total == 0.5

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_timer_accumulates(self):
        registry = MetricsRegistry()
        timer = registry.timer("t")
        timer.observe(0.25)
        timer.observe(0.75)
        snap = timer.snapshot()
        assert snap["count"] == 2
        assert snap["total"] == 1.0
        assert snap["min"] == 0.25
        assert snap["max"] == 0.75

    def test_timer_context_manager(self):
        registry = MetricsRegistry()
        ticks = iter([1.0, 3.5])
        with registry.timer("t").time(clock=lambda: next(ticks)):
            pass
        assert registry.timer("t").total == 2.5

    def test_histogram_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(10, 100))
        for value in (1, 10, 11, 5000):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["buckets"] == {"le_10": 2, "le_100": 1}
        assert snap["overflow"] == 1
        assert snap["count"] == 4

    def test_default_buckets_are_decades(self):
        assert DEFAULT_BUCKETS[0] == 10
        assert DEFAULT_BUCKETS[-1] == 1_000_000

    def test_to_records_and_format(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.set_gauge("b", 3)
        records = list(registry.to_records())
        assert [r["name"] for r in records] == ["a", "b"]
        assert all(r["type"] == "metric" for r in records)
        text = registry.format()
        assert "a" in text and "3" in text

    def test_default_registry_swap(self):
        original = default_registry()
        fresh = MetricsRegistry()
        previous = set_default_registry(fresh)
        try:
            assert previous is original
            assert default_registry() is fresh
        finally:
            set_default_registry(previous)


class TestSpans:
    def make(self):
        ticks = iter(range(100))
        return SpanRecorder(clock=lambda: next(ticks))

    def test_nesting(self):
        spans = self.make()
        with spans.span("outer"):
            with spans.span("inner", fid=3):
                pass
        (outer,) = spans.roots
        assert outer.name == "outer"
        (inner,) = outer.children
        assert inner.attrs == {"fid": 3}
        assert outer.duration == 3  # ticks 0..3
        assert inner.duration == 1
        assert outer.self_seconds == 2

    def test_find_and_first(self):
        spans = self.make()
        with spans.span("run"):
            with spans.span("post_run", fid=0):
                pass
            with spans.span("post_run", fid=1):
                pass
        assert len(spans.find("post_run")) == 2
        assert spans.first("post_run").attrs["fid"] == 0
        assert spans.first("missing") is None

    def test_coverage(self):
        spans = self.make()
        with spans.span("root"):       # 0..5
            with spans.span("leaf1"):  # 1..2
                pass
            with spans.span("leaf2"):  # 3..4
                pass
        assert spans.total_seconds() == 5
        assert spans.leaf_seconds() == 2
        assert spans.coverage() == pytest.approx(0.4)

    def test_records_link_parents(self):
        spans = self.make()
        with spans.span("a"):
            with spans.span("b"):
                pass
        a_rec, b_rec = list(spans.to_records())
        assert a_rec["parent"] == 0
        assert b_rec["parent"] == a_rec["id"]

    def test_format_indents(self):
        spans = self.make()
        with spans.span("a"):
            with spans.span("b", fid=1):
                pass
        text = spans.format()
        assert text.splitlines()[1].startswith("  b fid=1:")


class TestAudit:
    def make(self):
        ticks = iter(range(100))
        return AuditLog(clock=lambda: next(ticks))

    def test_record_and_query(self):
        log = self.make()
        scope = log.scoped(stage="pre")
        scope.record("STORE", "persistence", 0x100, 8,
                     "UNMODIFIED", "MODIFIED", 0, ip="a.py:1")
        scope.record("FLUSH", "persistence", 0x100, 8,
                     "MODIFIED", "WRITEBACK_PENDING", 0, ip="a.py:2")
        assert len(log) == 2
        assert [r.op for r in log.for_range(0x100, 8)] == \
            ["STORE", "FLUSH"]
        assert log.for_range(0x200) == []
        assert log.last_writer(0x100, 8) == "a.py:1"

    def test_fork_scoping(self):
        log = self.make()
        pre = log.scoped(stage="pre")
        pre.record("STORE", "persistence", 0x100, 8,
                   "UNMODIFIED", "MODIFIED", 0, ip="setup.py:1")
        # A later pre-failure store must not appear in fid 0's history.
        pre.record("STORE", "persistence", 0x100, 8,
                   "MODIFIED", "MODIFIED", 2, ip="later.py:5")
        fork = self.make()
        post0 = fork.scoped(stage="post", failure_point=0)
        post0.record("STORE", "persistence", 0x100, 8,
                     "MODIFIED", "MODIFIED", 1, ip="recover.py:9")
        # Failure point 0's marker fell after the first pre record.
        log.adopt(
            log.records[:1] + fork.records + log.records[1:], {0: 1}
        )
        assert [r.seq for r in log] == [0, 1, 2]
        assert [r.ip for r in log] == \
            ["setup.py:1", "recover.py:9", "later.py:5"]
        assert log.fork_positions == {0: 1}
        history = log.history_for(0x100, 8, failure_point=0)
        assert [r.ip for r in history] == \
            ["setup.py:1", "recover.py:9"]
        assert log.last_writer(0x100, 8, failure_point=0) == \
            "recover.py:9"
        # Unscoped history sees everything.
        assert len(log.history_for(0x100, 8)) == 3

    def test_records_stringify_states(self):
        import enum

        class State(enum.Enum):
            A = 1
            B = 2

        log = self.make()
        log.record("STORE", "persistence", 0, 4, State.A, State.B, 0)
        record = next(iter(log.to_records()))
        assert record["old"] == "A"
        assert record["new"] == "B"
        json.dumps(record)  # must be serializable


class TestTelemetry:
    def test_audit_off_by_default(self):
        telemetry = Telemetry()
        assert telemetry.audit is None
        assert not telemetry.audit_enabled
        assert "audit" not in telemetry.to_dict()

    def test_audit_opt_in(self):
        telemetry = Telemetry(audit=True)
        assert isinstance(telemetry.audit, AuditLog)
        assert "audit" in telemetry.to_dict()

    def test_resolve_from_config(self):
        class Config:
            audit = True
            telemetry = None

        resolved = resolve_telemetry(Config())
        assert resolved.audit_enabled
        injected = Telemetry()
        Config.telemetry = injected
        assert resolve_telemetry(Config()) is injected

    def test_format_empty(self):
        assert Telemetry().format() == "(no telemetry)"


class TestExport:
    def test_ndjson_round_trip(self, tmp_path):
        records = [{"type": "span", "name": "x"},
                   {"type": "metric", "value": 3}]
        path = tmp_path / "out.ndjson"
        assert write_ndjson(path, iter(records)) == 2
        assert read_ndjson(path) == records

    def test_to_ndjson_one_object_per_line(self):
        text = to_ndjson([{"a": 1}, {"b": 2}])
        lines = text.strip().splitlines()
        assert [json.loads(line) for line in lines] == \
            [{"a": 1}, {"b": 2}]
