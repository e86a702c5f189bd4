"""Chaos self-test: the resilience layer under injected harness faults.

``XFD_CHAOS``-style fault injection (worker crashes, hangs) plus a
deterministic harness exception must never abort a run or corrupt the
outcomes of unaffected failure points: completed points stay
byte-identical to a fault-free run, absorbed faults surface as typed
incidents, and the report's ``degraded`` flag is true exactly when an
outcome was lost.
"""

import pytest

from repro.core import DetectorConfig, XFDetector
from repro.errors import HarnessError
from repro.exec import WarmProcessExecutor
from repro.pm.snapshot import SnapshotStore
from repro.resilience import IncidentKind
from repro.workloads import HashmapAtomicWorkload
from repro.workloads.base import Workload


def _workload():
    return HashmapAtomicWorkload(
        faults={"skip_persist_count"}, test_size=3
    )


def _run(**config_kwargs):
    config = DetectorConfig(**config_kwargs)
    return XFDetector(config).run(_workload())


def _break_image_access(monkeypatch, broken_fid):
    """Make restoring ``broken_fid``'s crash image raise a
    deterministic harness fault (the image memo reads each task's
    deltas from the store)."""
    original = SnapshotStore.deltas

    def deltas(self, fid):
        if fid == broken_fid:
            raise HarnessError("snapshot store corrupted", phase="post_exec")
        return original(self, fid)

    monkeypatch.setattr(SnapshotStore, "deltas", deltas)


def _incident_fields(report):
    """Every incident field but ``detail``: a real worker death's
    message names the dead pid, an inline one names the chaos roll."""
    return [
        {key: value for key, value in incident.to_dict().items()
         if key != "detail"}
        for incident in report.incidents
    ]


needs_fork = pytest.mark.skipif(
    not WarmProcessExecutor.available(),
    reason="fork start method required",
)


def _bugs_by_point(report):
    """(failure_point -> bug dict list), timings-free."""
    by_point = {}
    for bug in report.to_dict(unique=False)["bugs"]:
        by_point.setdefault(bug["failure_point"], []).append(bug)
    return by_point


@pytest.fixture(scope="module")
def baseline():
    """The fault-free reference report."""
    return _run()


class TestChaosCrash:
    def test_transient_crashes_heal_and_reports_match(self, baseline):
        """Injected worker crashes retry on fresh rolls; with retry
        budget left, every point completes and the bug list is
        byte-identical to the fault-free run's."""
        report = _run(chaos="crash:0.2", max_retries=6)
        incidents = report.incidents
        assert incidents, "crash:0.2 should fire at least once"
        assert all(
            i.kind is IncidentKind.WORKER_DEATH for i in incidents
        )
        assert not report.degraded
        assert _bugs_by_point(report) == _bugs_by_point(baseline)
        assert (
            report.stats.post_runs_analyzed
            == baseline.stats.post_runs_analyzed
        )

    @needs_fork
    def test_chaos_rolls_match_across_executors(self, baseline):
        """Chaos decisions hash task coordinates, not scheduling: the
        serial schedule and the warm pool — where a crash is a real
        worker death that costs only the key it was running — roll
        identical faults and produce identical reports at any batch
        size."""
        serial = _run(chaos="crash:0.2", max_retries=6)
        for batch_size in (1, 8):
            warm = _run(
                chaos="crash:0.2", max_retries=6, jobs=2,
                batch_size=batch_size,
            )
            assert _incident_fields(warm) == _incident_fields(serial), \
                f"batch_size={batch_size}"
            assert _bugs_by_point(warm) == _bugs_by_point(serial)

    @needs_fork
    def test_one_retry_quarantines_nothing_on_either_path(
        self, baseline
    ):
        """With one retry, no point's chaos rolls crash twice, so
        nothing may be quarantined — a batchmate of a dying key must
        not be charged for its death, and a phase whose workers all
        died must not fail its untried keys."""
        serial = _run(chaos="crash:0.2", max_retries=1)
        for batch_size in (1, 8):
            warm = _run(
                chaos="crash:0.2", max_retries=1, jobs=2,
                batch_size=batch_size,
            )
            for report in (serial, warm):
                assert report.incidents
                assert not report.degraded
                assert not any(i.quarantined for i in report.incidents)
                assert _bugs_by_point(report) == _bugs_by_point(baseline)
            assert _incident_fields(warm) == _incident_fields(serial), \
                f"batch_size={batch_size}"

    def test_exhausted_retries_quarantine_not_abort(self, baseline):
        """With no retry budget, crashed points are quarantined while
        every unaffected point still reports byte-identically."""
        report = _run(chaos="crash:0.2", max_retries=0)
        assert report.degraded
        quarantined = {
            incident.failure_point
            for incident in report.incidents
            if incident.quarantined
        }
        assert quarantined, "at least one point should be lost"
        expected = {
            fid: bugs
            for fid, bugs in _bugs_by_point(baseline).items()
            if fid not in quarantined
        }
        actual = {
            fid: bugs
            for fid, bugs in _bugs_by_point(report).items()
            if fid not in quarantined
        }
        assert actual == expected
        assert "DEGRADED" in report.summary()


class LivelockedRecovery(HashmapAtomicWorkload):
    """Recovery spins forever re-reading PM — the livelock a corrupted
    crash image can produce, caught by the cooperative deadline."""

    name = "livelocked_recovery"

    def post_failure(self, ctx):
        base = ctx.memory.pools[0].base
        while True:  # every load ticks the attached Deadline
            ctx.memory.load(base, 8)


class TestHangDetection:
    def test_livelocked_recovery_becomes_hang_incidents(self):
        config = DetectorConfig(exec_deadline=0.1, max_failure_points=2)
        report = XFDetector(config).run(
            LivelockedRecovery(
                faults={"skip_persist_count"}, test_size=2
            )
        )
        assert report.degraded
        assert report.incidents
        assert all(
            i.kind is IncidentKind.HANG and i.quarantined
            for i in report.incidents
        )
        # A hang is an incident, never a finding.
        assert not report.crashes


class TestHarnessErrorQuarantine:
    def test_harness_fault_is_an_incident_not_a_finding(
        self, baseline, monkeypatch
    ):
        """A pipeline failure for one failure point quarantines that
        point; the other points' findings are untouched and nothing
        masquerades as a POST_FAILURE_CRASH bug."""
        broken_fid = 1
        _break_image_access(monkeypatch, broken_fid)
        report = _run(max_retries=2)
        assert report.degraded
        incidents = report.incidents
        assert len(incidents) == 1
        assert incidents[0].kind is IncidentKind.HARNESS_ERROR
        assert incidents[0].failure_point == broken_fid
        assert incidents[0].quarantined
        # Deterministic fault: quarantined on the first attempt, no
        # retry burned.
        assert incidents[0].attempts == 1
        expected = {
            fid: bugs
            for fid, bugs in _bugs_by_point(baseline).items()
            if fid != broken_fid
        }
        assert _bugs_by_point(report) == expected
        assert not any(
            "snapshot store corrupted" in bug.detail
            for bug in report.bugs
        )


class TestCombinedAcceptance:
    def test_crash_hang_and_harness_fault_in_one_run(
        self, baseline, monkeypatch
    ):
        """The issue's acceptance scenario: one run absorbing a worker
        crash, a hang, and a deterministic harness exception finishes
        with all three incident kinds, ``degraded: true``, and every
        unaffected point byte-identical to the fault-free run."""
        broken_fid = 2
        _break_image_access(monkeypatch, broken_fid)
        report = _run(
            chaos="crash:0.1,hang:0.1",
            exec_deadline=0.1,
            max_retries=0,
        )
        kinds = {incident.kind for incident in report.incidents}
        assert kinds == {
            IncidentKind.WORKER_DEATH,
            IncidentKind.HANG,
            IncidentKind.HARNESS_ERROR,
        }
        assert report.degraded
        assert report.to_dict()["degraded"] is True
        lost = {
            incident.failure_point
            for incident in report.incidents
            if incident.quarantined
        }
        expected = {
            fid: bugs
            for fid, bugs in _bugs_by_point(baseline).items()
            if fid not in lost
        }
        actual = {
            fid: bugs
            for fid, bugs in _bugs_by_point(report).items()
            if fid not in lost
        }
        assert actual == expected


class TestFaultFreeRunsAreUntouched:
    def test_no_incidents_without_faults(self, baseline):
        """The resilience layer is zero-cost and invisible when
        nothing goes wrong — the determinism suite depends on it."""
        assert baseline.incidents == []
        assert not baseline.degraded
        assert baseline.to_dict()["incidents"] == []
        assert "DEGRADED" not in baseline.summary()
