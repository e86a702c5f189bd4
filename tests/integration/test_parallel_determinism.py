"""Executor determinism: reports are byte-identical at any pool width.

The tentpole contract of ``repro.exec``: running the same workload with
``jobs=1`` (serial) and ``jobs=2`` on the warm fork-process pool yields
identical bug lists, identical stats, and identical NDJSON records —
modulo wall-clock timings, which are the *only* thing an executor is
allowed to change.
"""

import pytest

from repro.core import DetectorConfig, XFDetector
from repro.core.frontend import Frontend, FrontendResult, PostRun
from repro.core.injector import FailurePoint
from repro.core.report import Bug, BugKind
from repro.exec import WarmProcessExecutor
from repro.obs import run_records
from repro.workloads import HashmapAtomicWorkload, HashmapTxWorkload

#: Pool widths compared: serial, plus the warm pool where fork exists.
WIDTHS = [1] + ([2] if WarmProcessExecutor.available() else [])


def _run(jobs, make_workload, **config_kwargs):
    config = DetectorConfig(jobs=jobs, **config_kwargs)
    return XFDetector(config).run(make_workload())


def _report_dict(report):
    """The full report, with the timing fields removed."""
    data = report.to_dict(unique=False)
    data["stats"] = {
        key: value for key, value in data["stats"].items()
        if not key.endswith("seconds")
    }
    return data


def _ndjson_records(report):
    """Schedule-independent NDJSON records: spans and timers measure
    wall-clock, ``exec.*`` metrics describe the pool itself — drop
    those, keep everything else byte-for-byte."""
    kept = []
    for record in run_records(report, unique=False):
        if record.get("type") == "span":
            continue
        if record.get("type") == "metric":
            if record.get("metric") == "timer":
                continue
            if record.get("name", "").startswith("exec."):
                continue
        if record.get("type") == "stats":
            record = {
                key: value for key, value in record.items()
                if not key.endswith("seconds")
            }
        kept.append(record)
    return kept


class CrashingRecovery(HashmapAtomicWorkload):
    """Recovery dereferences state that a mid-rehash crash corrupts —
    modelled bluntly: it raises, so every post run produces a
    POST_FAILURE_CRASH whose message must survive the pickle boundary
    byte-for-byte."""

    name = "crashing_recovery"

    def post_failure(self, ctx):
        raise ValueError("recovery exploded at bucket #7")


class TestExecutorDeterminism:
    def _compare(self, make_workload, **config_kwargs):
        reference = None
        for jobs in WIDTHS:
            report = _run(jobs, make_workload, **config_kwargs)
            snapshot = (
                _report_dict(report), _ndjson_records(report)
            )
            if reference is None:
                reference = snapshot
            else:
                assert snapshot[0] == reference[0], (
                    f"report differs under jobs={jobs}"
                )
                assert snapshot[1] == reference[1], (
                    f"NDJSON differs under jobs={jobs}"
                )
        return reference

    def test_racy_workload_with_variants(self):
        report_dict, _records = self._compare(
            lambda: HashmapAtomicWorkload(
                faults={"skip_persist_count"}, test_size=3
            ),
            crash_state_variants=3,
        )
        assert report_dict["bugs"], "fault should produce bugs"

    def test_transactional_workload(self):
        self._compare(
            lambda: HashmapTxWorkload(
                faults={"skip_add_count"}, test_size=3
            ),
        )

    def test_crash_messages_cross_process_boundary(self):
        report_dict, _records = self._compare(
            lambda: CrashingRecovery(test_size=2),
        )
        kinds = {bug["kind"] for bug in report_dict["bugs"]}
        assert "post-failure crash" in kinds
        assert any(
            "recovery exploded at bucket #7" in bug["detail"]
            for bug in report_dict["bugs"]
        )


class TestVariantPlanDeterminism:
    def test_variant_schedule_is_identical(self):
        """Every executor runs the exact same crash-state variants:
        the (fid, variant) sequence and each run's trace length match
        the serial schedule."""
        def collect(jobs):
            config = DetectorConfig(
                jobs=jobs, crash_state_variants=3
            )
            from repro.core.frontend import Frontend

            result = Frontend(config).run(
                HashmapAtomicWorkload(
                    faults={"skip_persist_count"}, test_size=3
                )
            )
            return [
                (run.failure_point.fid, run.variant, run.events)
                for run in result.post_runs
            ]

        reference = collect(1)
        for jobs in WIDTHS[1:]:
            assert collect(jobs) == reference
        assert any(variant is not None for _f, variant, _n in reference)


class TestVariantExhaustion:
    def test_small_mask_spaces_skip_explicitly(self):
        """Asking for more crash states than the mask space holds
        records the shortfall instead of silently under-producing."""
        config = DetectorConfig(crash_state_variants=64)
        report = XFDetector(config).run(
            HashmapAtomicWorkload(
                faults={"skip_persist_count"}, test_size=2
            )
        )
        metrics = report.telemetry.metrics
        skipped = metrics.value("crash_variants_skipped")
        assert skipped > 0
        produced = metrics.value("post_runs") - (
            report.stats.failure_points
        )
        requested = 64 * report.stats.failure_points
        # Every requested variant is either produced or accounted for.
        assert produced + skipped <= requested
        assert report.stats.post_runs_analyzed == metrics.value(
            "post_runs"
        )


class TestOrphanAccounting:
    def test_orphaned_runs_are_counted(self):
        """A post run whose failure point has no marker in the
        pre-failure trace has nowhere to splice; the
        ``orphaned_post_runs`` gauge counts it, its bugs stay out of
        the report, and ``post_runs_analyzed`` leaves it out."""
        config = DetectorConfig()
        result = Frontend(config).run(
            HashmapAtomicWorkload(
                faults={"skip_persist_count"}, test_size=3
            )
        )
        unmarked = FailurePoint(
            fid=len(result.failure_points), reason="hand-built",
            trace_index=len(result.pre_recorder), store=None,
        )
        stray = Bug(
            kind=BugKind.CROSS_FAILURE_RACE, detail="orphan",
            failure_point=unmarked.fid,
        )
        hand_built = FrontendResult(
            workload_name=result.workload_name,
            pre_recorder=result.pre_recorder,
            failure_points=result.failure_points,
            post_runs=result.post_runs + [
                PostRun(unmarked, events=1, bugs=[stray])
            ],
            pre_replay=result.pre_replay,
        )
        report = XFDetector(config).analyze(hand_built)
        stats = report.stats
        orphaned = report.telemetry.metrics.value("orphaned_post_runs")
        assert report.has_cross_failure_bugs
        assert stray not in report.bugs
        assert orphaned == 1
        assert stats.post_runs_analyzed == len(result.post_runs)
        assert (
            report.to_dict()["stats"]["post_runs_analyzed"]
            == stats.post_runs_analyzed
        )

    def test_no_orphans_on_full_analysis(self):
        report = XFDetector(DetectorConfig()).run(
            HashmapAtomicWorkload(test_size=2)
        )
        assert report.telemetry.metrics.value("orphaned_post_runs") == 0
        assert (
            report.stats.post_runs_analyzed
            == report.telemetry.metrics.value("post_runs")
        )


class TestAuditDeterminism:
    @pytest.mark.skipif(
        len(WIDTHS) < 2, reason="fork start method required"
    )
    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_audit_records_identical_across_pool_widths(
        self, batch_size
    ):
        """Audited replays run on the warm pool too: each task ships
        its records back and the detector splices them in marker
        order, so the audit log (timestamps aside) is the serial
        run's, whatever the batch size."""
        def audited(jobs):
            report = _run(
                jobs,
                lambda: HashmapAtomicWorkload(
                    faults={"skip_persist_count"}, test_size=3
                ),
                audit=True, batch_size=batch_size,
                crash_state_variants=2,
            )
            log = report.telemetry.audit
            records = [
                {key: value for key, value in record.to_dict().items()
                 if key != "ts"}
                for record in log
            ]
            return records, log.fork_positions, _report_dict(report)

        serial = audited(1)
        assert {record["stage"] for record in serial[0]} == {
            "pre", "post"
        }
        assert audited(2) == serial
