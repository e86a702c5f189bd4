"""Unit tests for the static analyzer: one minimal synthetic workload
per rule, asserting the rule id and that the finding points into this
file, plus the lexical hygiene checks and the offline trace checker.
"""

import pytest

from repro.analysis.hygiene import check_module
from repro.analysis.interp import analyze_workload
from repro.analysis.lint import lint_workload
from repro.analysis.tracecheck import analyze_trace
from repro.pmdk import ObjectPool, Struct, U64, pmem
from repro.workloads.base import Workload

LAYOUT = "xf-analysis-rules-test"


class MiniRoot(Struct):
    value = U64()
    extra = U64()


class _Mini(Workload):
    """Boilerplate: a root with two fields; subclasses override
    ``pre_failure``."""

    name = "mini"

    def _open(self, memory):
        return ObjectPool.open(memory, "mini", LAYOUT, MiniRoot)

    def setup(self, ctx):
        pool = ObjectPool.create(
            ctx.memory, "mini", LAYOUT, root_cls=MiniRoot
        )
        root = pool.root
        root.value = 0
        root.extra = 0
        pmem.persist(ctx.memory, root.address, MiniRoot.SIZE)

    def post_failure(self, ctx):
        self._open(ctx.memory)


def rules_of(workload):
    report = analyze_workload(workload)
    assert not report.stats.incomplete
    for finding in report.findings:
        assert finding.file.endswith("test_analysis_rules.py")
    return {finding.rule for finding in report.findings}


class CleanStorePersist(_Mini):
    def pre_failure(self, ctx):
        pool = self._open(ctx.memory)
        root = pool.root
        root.value = 7
        pmem.persist(ctx.memory, root.field_addr("value"), 8)


class UnflushedStore(_Mini):
    def pre_failure(self, ctx):
        pool = self._open(ctx.memory)
        pool.root.value = 7  # never flushed: XF-P001


class FlushNoFence(_Mini):
    def pre_failure(self, ctx):
        pool = self._open(ctx.memory)
        root = pool.root
        root.value = 7
        pmem.flush(ctx.memory, root.field_addr("value"), 8)
        # no drain/sfence on the exit path: XF-P002


class StoreCrossesBarrier(_Mini):
    def pre_failure(self, ctx):
        pool = self._open(ctx.memory)
        root = pool.root
        root.value = 7  # stays dirty across the sfence: XF-P003
        root.extra = 1
        pmem.flush(ctx.memory, root.field_addr("extra"), 8)
        pmem.sfence(ctx.memory)
        pmem.persist(ctx.memory, root.field_addr("value"), 8)


class NTStoreNoDrain(_Mini):
    def pre_failure(self, ctx):
        pool = self._open(ctx.memory)
        root = pool.root
        pmem.memcpy_nodrain(
            ctx.memory, root.field_addr("value"), b"\x07" * 8
        )  # never drained: XF-P004


class TxStoreNoAdd(_Mini):
    def pre_failure(self, ctx):
        pool = self._open(ctx.memory)
        root = pool.root
        with pool.transaction() as tx:
            tx.add_field(root, "extra")
            root.extra = 1
            root.value = 7  # not undo-logged: XF-T001


class DuplicateTxAdd(_Mini):
    def pre_failure(self, ctx):
        pool = self._open(ctx.memory)
        root = pool.root
        with pool.transaction() as tx:
            tx.add_field(root, "value")
            tx.add_field(root, "value")  # already covered: XF-T002
            root.value = 7


class DoubleFlush(_Mini):
    def pre_failure(self, ctx):
        pool = self._open(ctx.memory)
        root = pool.root
        root.value = 7
        pmem.persist(ctx.memory, root.field_addr("value"), 8)
        pmem.persist(  # range already persisted: XF-F001
            ctx.memory, root.field_addr("value"), 8
        )


class FenceNoPending(_Mini):
    def pre_failure(self, ctx):
        pool = self._open(ctx.memory)
        root = pool.root
        root.value = 7
        pmem.persist(ctx.memory, root.field_addr("value"), 8)
        pmem.sfence(ctx.memory)  # nothing written back: XF-F002


class TestInterpreterRules:
    def test_clean_workload_has_no_findings(self):
        assert rules_of(CleanStorePersist()) == set()

    def test_unflushed_store_at_exit(self):
        assert rules_of(UnflushedStore()) == {"XF-P001"}

    def test_flush_without_fence_at_exit(self):
        assert rules_of(FlushNoFence()) == {"XF-P002"}

    def test_store_crossing_a_barrier_dirty(self):
        assert rules_of(StoreCrossesBarrier()) == {"XF-P003"}

    def test_nt_store_without_drain(self):
        assert rules_of(NTStoreNoDrain()) == {"XF-P004"}

    def test_in_tx_store_without_tx_add(self):
        assert rules_of(TxStoreNoAdd()) == {"XF-T001"}

    def test_duplicate_tx_add(self):
        assert rules_of(DuplicateTxAdd()) == {"XF-T002"}

    def test_double_flush(self):
        assert rules_of(DoubleFlush()) == {"XF-F001"}

    def test_fence_with_no_pending_writeback(self):
        assert rules_of(FenceNoPending()) == {"XF-F002"}

    def test_findings_carry_provenance(self):
        report = analyze_workload(UnflushedStore())
        (finding,) = report.findings
        assert finding.severity == "race"
        assert finding.line > 0
        assert "pre_failure" in finding.function
        assert finding.location.endswith(f":{finding.line}")


HYGIENE_UNBALANCED = '''
def pre(ctx):
    ctx.interface.roi_begin()
    work()
'''

HYGIENE_SKIPPED_COMMIT = '''
def setup(iface, root):
    iface.add_commit_var(root.field_addr("valid"), 1)

def pre(iface, root):
    iface.skip_detection_begin()
    root.valid = 1
    iface.skip_detection_end()
'''

HYGIENE_CLEAN = '''
def pre(ctx):
    ctx.interface.roi_begin()
    work()
    ctx.interface.roi_end()
'''


class TestHygiene:
    def test_unbalanced_roi(self):
        findings = check_module("<mem>", source=HYGIENE_UNBALANCED)
        assert {f.rule for f in findings} == {"XF-A001"}

    def test_commit_write_inside_skip_region(self):
        findings = check_module("<mem>", source=HYGIENE_SKIPPED_COMMIT)
        assert {f.rule for f in findings} == {"XF-A002"}

    def test_balanced_module_is_clean(self):
        assert check_module("<mem>", source=HYGIENE_CLEAN) == []


TRACE_CLEAN = """\
0 STORE 0x1000 8 0 - | wl.py:10:op
1 FLUSH 0x1000 8 0 CLWB | wl.py:11:op
2 FENCE 0x0 0 0 SFENCE | wl.py:12:op
"""

TRACE_DOUBLE_FLUSH = """\
0 STORE 0x1000 8 0 - | wl.py:10:op
1 FLUSH 0x1000 8 0 CLWB | wl.py:11:op
2 FENCE 0x0 0 0 SFENCE | wl.py:12:op
3 FLUSH 0x1000 8 0 CLWB | wl.py:13:op
4 FENCE 0x0 0 0 SFENCE | wl.py:14:op
"""

TRACE_UNFLUSHED = """\
0 STORE 0x1000 8 0 - | wl.py:10:op
"""


class TestTraceChecker:
    def test_clean_trace(self):
        assert analyze_trace(TRACE_CLEAN).findings == []

    def test_double_flush_trace(self):
        rules = {
            f.rule for f in analyze_trace(TRACE_DOUBLE_FLUSH).findings
        }
        assert "XF-F001" in rules

    def test_unflushed_store_trace(self):
        report = analyze_trace(TRACE_UNFLUSHED)
        assert {f.rule for f in report.findings} == {"XF-P001"}
        (finding,) = report.findings
        assert (finding.file, finding.line) == ("wl.py", 10)


class TestLintWorkload:
    def test_lint_merges_interpreter_and_hygiene(self):
        report = lint_workload(UnflushedStore())
        assert "XF-P001" in {f.rule for f in report.findings}
        assert report.stats.lines_covered > 0

    def test_lint_counts_certified_lines(self):
        stats = lint_workload(CleanStorePersist()).stats
        assert not stats.incomplete
        assert 0 < stats.lines_certified <= stats.lines_covered
