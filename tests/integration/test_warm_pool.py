"""The warm persistent pool end-to-end (repro.exec.pool + shm).

Four guarantees: (a) warm-pool runs report byte-identically to serial
at any batch size, including across forced failure points, dedup class
boundaries, and a journal resume that lands mid-batch; (b) every
shared-memory segment a run publishes is unlinked by the time the run
returns — on normal exit, on PhaseSupervisor quarantine, and on chaos
worker death; (c) faults under the warm pool degrade exactly like the
serial schedule (typed incidents, quarantine-and-continue, never an
abort); (d) long-lived workers actually amortize (reuse + batching
metrics).
"""

import pytest

from repro.core import DetectorConfig, XFDetector
from repro.errors import HarnessError
from repro.exec.pool import WarmProcessExecutor
from repro.exec.shm import live_segments
from repro.pm.pool import PMPool
from repro.resilience import IncidentKind
from repro.workloads import HashmapAtomicWorkload
from repro.workloads.base import Workload

pytestmark = pytest.mark.skipif(
    not WarmProcessExecutor.available(),
    reason="fork start method required",
)


def _workload(test_size=3):
    return HashmapAtomicWorkload(
        faults={"skip_persist_count"}, test_size=test_size
    )


def _run(workload=None, **config_kwargs):
    config = DetectorConfig(**config_kwargs)
    detector = XFDetector(config)
    report = detector.run(
        workload if workload is not None else _workload()
    )
    return report, detector


def _report_dict(report):
    data = report.to_dict(unique=False)
    data["stats"] = {
        key: value for key, value in data["stats"].items()
        if not key.endswith("seconds")
    }
    return data


def _bugs_by_point(report):
    by_point = {}
    for bug in report.to_dict(unique=False)["bugs"]:
        by_point.setdefault(bug["failure_point"], []).append(bug)
    return by_point


class BurstWorkload(Workload):
    """Forced failure-point bursts between real persists.

    Each burst's points share one crash image (a dedup class), and the
    persists between bursts are class boundaries — so any batch wider
    than a burst straddles a boundary, and every batch contains forced
    (never-pruned) points.  The unpersisted sentinel store makes the
    recovery read a cross-failure race, so bug provenance per fid is
    also exercised.
    """

    name = "burst"

    def setup(self, ctx):
        ctx.memory.map_pool(PMPool("p", 1 << 20))

    def pre_failure(self, ctx):
        memory = ctx.memory
        base = memory.pool_named("p").base
        for step in range(self.test_size):
            address = base + 64 * step
            memory.store(address, step.to_bytes(8, "little"))
            memory.flush(address, 8)
            memory.fence()
            for _ in range(3):
                memory.force_failure_point()
        # One never-persisted store: its first post-failure read is a
        # cross-failure race finding at every later failure point.
        memory.store(base + 4096, b"\xEE" * 8)

    def post_failure(self, ctx):
        memory = ctx.memory
        base = memory.pool_named("p").base
        for step in range(self.test_size):
            memory.load(base + 64 * step, 8)
        memory.load(base + 4096, 8)


class QuarantineWorkload(Workload):
    """Recovery trips over a (simulated) harness fault every time: the
    supervisor must quarantine every point, not abort the run."""

    name = "quarantine_bait"

    def setup(self, ctx):
        ctx.memory.map_pool(PMPool("p", 1 << 20))

    def pre_failure(self, ctx):
        memory = ctx.memory
        base = memory.pool_named("p").base
        for step in range(self.test_size):
            address = base + 64 * step
            memory.store(address, step.to_bytes(8, "little"))
            memory.flush(address, 8)
            memory.fence()

    def post_failure(self, ctx):
        raise HarnessError(
            "synthetic harness fault in recovery", phase="post_exec"
        )


class TestWarmDeterminism:
    def test_warm_pool_matches_serial(self):
        reference, _ = _run(jobs=1)
        warm, detector = _run(jobs=2, batch_size=4)
        assert _report_dict(warm) == _report_dict(reference)
        assert live_segments() == []
        metrics = detector.telemetry.metrics
        assert metrics.value("exec.shm_bytes_shared") > 0
        assert metrics.get("exec.warm_fallbacks") is None

    def test_batch_sizes_are_invisible(self):
        reference, _ = _run(
            workload=BurstWorkload(test_size=4), jobs=1
        )
        assert reference.stats.post_runs_deduped > 0
        for batch_size in (1, 3, 16):
            report, _ = _run(
                workload=BurstWorkload(test_size=4),
                jobs=2, batch_size=batch_size,
            )
            assert _report_dict(report) == _report_dict(reference), \
                f"batch_size={batch_size} changed the report"
        assert live_segments() == []

    def test_workers_amortize(self):
        _report, detector = _run(
            workload=BurstWorkload(test_size=4),
            jobs=2, batch_size=2,
        )
        metrics = detector.telemetry.metrics
        # One post-failure phase, more batches than workers: reuse
        # must beat the spawn count or the warm pool is warm in name
        # only.
        assert metrics.value("exec.worker_reuse_count") >= 2
        assert metrics.value("exec.batch_size_effective") > 1.0


class TestResumeMidBatch:
    def test_truncated_journal_resumes_into_batches(self, tmp_path):
        full_path = tmp_path / "full.ndjson"
        reference, _ = _run(
            workload=BurstWorkload(test_size=4), jobs=1,
            journal=str(full_path),
        )
        lines = full_path.read_text().splitlines(keepends=True)
        assert len(lines) > 6
        # Cut mid-run: the resumed phase starts at an arbitrary point
        # inside what would have been a full batch.
        killed_path = tmp_path / "killed.ndjson"
        killed_path.write_text("".join(lines[:len(lines) // 2]))
        serial_resumed, _ = _run(
            workload=BurstWorkload(test_size=4), jobs=1,
            resume=str(killed_path),
            journal=str(tmp_path / "serial.ndjson"),
        )
        warm_resumed, _ = _run(
            workload=BurstWorkload(test_size=4),
            jobs=2, batch_size=4,
            resume=str(killed_path),
            journal=str(tmp_path / "warm.ndjson"),
        )
        # Warm batches must be invisible to the resume splice...
        assert _report_dict(warm_resumed) == _report_dict(serial_resumed)
        # ...and the findings identical to the uninterrupted run (only
        # the dedup work counters may differ: journaled points are
        # spliced, not re-deduplicated).
        assert _bugs_by_point(warm_resumed) == _bugs_by_point(reference)
        assert live_segments() == []


class TestLeakGuard:
    def test_segments_unlinked_on_quarantine(self):
        report, _ = _run(
            workload=QuarantineWorkload(test_size=3),
            jobs=2, batch_size=2,
        )
        assert report.degraded
        assert report.incidents
        assert all(
            incident.kind is IncidentKind.HARNESS_ERROR
            for incident in report.incidents
        )
        assert live_segments() == []

    def test_segments_unlinked_on_chaos_worker_death(self):
        baseline, _ = _run(jobs=1)
        report, _ = _run(
            jobs=2, batch_size=2,
            chaos="crash:0.3", max_retries=8,
        )
        assert report.incidents, "crash:0.3 should fire at least once"
        assert all(
            incident.kind is IncidentKind.WORKER_DEATH
            for incident in report.incidents
        )
        assert not report.degraded
        assert _bugs_by_point(report) == _bugs_by_point(baseline)
        assert live_segments() == []
