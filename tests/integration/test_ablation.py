"""Ablations of the detector's design knobs (DetectorConfig)."""

from repro.core import DetectorConfig, XFDetector
from repro.pm.image import CrashImageMode
from repro.workloads import HashmapAtomicWorkload, LinkedListWorkload


def naive_list(**kwargs):
    return LinkedListWorkload(
        recovery="naive", init_size=2, test_size=1,
        faults={"unlogged_length"}, **kwargs,
    )


class TestTrustAllocatorZeroing:
    def test_trusting_zeroing_hides_bug2(self):
        workload = HashmapAtomicWorkload(
            faults={"bug2_uninit_count"}, test_size=1
        )
        strict = XFDetector(DetectorConfig()).run(workload)
        assert any(
            "never-initialized" in bug.detail for bug in strict.races
        )
        trusting = XFDetector(
            DetectorConfig(trust_allocator_zeroing=True)
        ).run(
            HashmapAtomicWorkload(
                faults={"bug2_uninit_count"}, test_size=1
            )
        )
        assert not any(
            "never-initialized" in bug.detail
            for bug in trusting.races
        )


class TestFirstReadOnly:
    def test_disabling_dedup_reports_more_occurrences(self):
        with_opt = XFDetector(DetectorConfig()).run(naive_list())
        without_opt = XFDetector(
            DetectorConfig(first_read_only=False)
        ).run(naive_list())
        # Same distinct bugs, at least as many raw occurrences.
        assert (
            {b.dedup_key() for b in with_opt.races}
            == {b.dedup_key() for b in without_opt.races}
        )
        assert len(without_opt.bugs) >= len(with_opt.bugs)


class TestFailurePointBudget:
    def test_max_failure_points_caps_post_runs(self):
        capped = XFDetector(
            DetectorConfig(max_failure_points=2)
        ).run(naive_list())
        full = XFDetector(DetectorConfig()).run(naive_list())
        assert capped.stats.failure_points == 2
        assert full.stats.failure_points > 2

    def test_skip_empty_optimization_reduces_failure_points(self):
        from repro.workloads import ArrayBackupWorkload

        optimized = XFDetector(DetectorConfig()).run(
            ArrayBackupWorkload(test_size=3)
        )
        exhaustive = XFDetector(
            DetectorConfig(skip_empty_failure_points=False)
        ).run(ArrayBackupWorkload(test_size=3))
        assert (
            exhaustive.stats.failure_points
            >= optimized.stats.failure_points
        )


class TestCrashImageModes:
    def test_detection_agrees_across_modes_for_figure1(self):
        """The shadow-PM-based classification does not depend on the
        image contents; both modes find the race."""
        as_written = XFDetector(DetectorConfig()).run(naive_list())
        strict = XFDetector(
            DetectorConfig(
                crash_image_mode=CrashImageMode.PERSISTED_ONLY
            )
        ).run(naive_list())
        assert as_written.races and strict.races

    def test_strict_mode_needed_for_pool_creation_crash(self):
        """Bug 4: the pool-open failure needs failure injection; in
        both modes the half-created pool cannot validate (checksum is
        written last), so the crash is observable — but the strict mode
        is the faithful one and must certainly produce it."""
        from repro.bugsuite.newbugs import PoolCreationWorkload

        strict = XFDetector(
            DetectorConfig(
                crash_image_mode=CrashImageMode.PERSISTED_ONLY
            )
        ).run(PoolCreationWorkload())
        assert strict.crashes
