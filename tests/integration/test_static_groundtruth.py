"""Validate the static analyzer against the synthetic bug corpus.

Every fault in ``repro.analysis.groundtruth.STATIC_EXPECTATIONS`` that
is statically detectable must be flagged with exactly the expected
rule ids at the canonical lint sizing; dynamic-only faults and clean
workloads must produce zero interpreter findings (no false positives).
The full static-vs-dynamic coverage split is recorded by
``benchmarks/bench_static_coverage.py``.
"""

import pytest

from repro.analysis.groundtruth import (
    CANONICAL_PARAMS,
    STATIC_EXPECTATIONS,
    dynamic_only,
    expected_rules,
    statically_detectable,
)
from repro.analysis.interp import analyze_workload
from repro.workloads import ALL_WORKLOADS


def _analyze(workload, flags=()):
    cls = ALL_WORKLOADS[workload]
    params = dict(CANONICAL_PARAMS)
    instance = cls(faults=frozenset(flags), **params)
    return analyze_workload(instance)


class TestStaticallyDetectableFaults:
    @pytest.mark.parametrize(
        "workload,flag",
        sorted(statically_detectable()),
        ids=lambda value: str(value),
    )
    def test_fault_is_flagged_with_expected_rules(self, workload,
                                                  flag):
        report = _analyze(workload, [flag])
        got = {f.rule for f in report.findings}
        assert got == set(expected_rules(workload, flag))
        # Provenance: every finding points into real source.
        for finding in report.findings:
            assert finding.file.endswith(".py")
            assert finding.line > 0


class TestNoFalsePositives:
    @pytest.mark.parametrize("workload", sorted(ALL_WORKLOADS))
    def test_clean_workload_has_zero_findings(self, workload):
        report = _analyze(workload)
        assert report.findings == []
        assert not report.stats.incomplete

    # Dynamic-only faults alter runtime behaviour in ways the
    # interpreter's certification model deliberately tolerates; they
    # must not be misflagged.  A representative slice keeps suite
    # runtime bounded; the benchmark sweeps all of them.
    SPOT = [
        ("hashmap_tx", "count_outside_tx"),
        ("hashmap_atomic", "bug2_uninit_count"),
        ("hashmap_atomic", "skip_dirty_set"),
        ("memcached", "skip_persist_item"),
        ("array_backup", "swapped_valid"),
        ("queue", "tail_before_slot"),
    ]

    @pytest.mark.parametrize("workload,flag", SPOT,
                             ids=lambda value: str(value))
    def test_dynamic_only_fault_has_zero_findings(self, workload,
                                                  flag):
        assert (workload, flag) in STATIC_EXPECTATIONS
        assert not expected_rules(workload, flag)
        report = _analyze(workload, [flag])
        assert report.findings == []


class TestExpectationTableShape:
    def test_partition_is_total_and_disjoint(self):
        detectable = set(statically_detectable())
        dyn = set(dynamic_only())
        assert detectable | dyn == set(STATIC_EXPECTATIONS)
        assert not detectable & dyn

    def test_registry_faults_are_all_classified(self):
        from repro.bugsuite.registry import bug_entries

        for bug in bug_entries():
            assert (bug.workload, bug.flag) in STATIC_EXPECTATIONS
