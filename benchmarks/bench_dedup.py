"""Dedup: skipped redundant post-failure work.

**Dedup ratio** — how many post-failure runs (each checked as it runs)
were skipped because their crash image, and the shadow state over
their representative's read set, matched an earlier failure point's.
On the default configuration this is usually 1.00:
``skip_empty_failure_points`` already refuses to inject a failure
point when no PM data operation happened since the previous one, which
prunes exactly the trivially-identical images.  The class machinery
pays off on *forced* failure points (``addFailurePoint`` between
persists) — measured here with a synthetic workload — and guards every
configuration against re-running identical recovery.

That dedup never changes a report is checked in the tier-1 suite:
``tests/integration/test_oracle.py`` compares every workload × fault
against a reference that never dedups, and
``tests/integration/test_dedup_determinism.py`` compares counters
against runs whose classes are all singletons.
"""

from benchmarks._common import format_table, table_records, write_result
from repro.core import DetectorConfig, XFDetector
from repro.pm.pool import PMPool
from repro.workloads import MICROBENCHMARKS
from repro.workloads.base import Workload

RATIO_WORKLOADS = ("hashmap_tx", "btree", "hashmap_atomic")


class ForcedDuplicates(Workload):
    """Back-to-back forced failure points between persists: every
    point in a burst crashes into the same image, so dedup collapses
    each burst to one representative."""

    name = "forced_duplicates"

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

    def post_failure(self, ctx):
        memory = ctx.memory
        base = memory.pool_named("p").base
        for step in range(self.test_size):
            memory.load(base + 64 * step, 8)


def test_dedup_ratio(benchmark):
    """Dedup class collapse: default configs vs. forced duplicates."""
    rows = []

    def measure(name, factory):
        report = XFDetector(DetectorConfig()).run(factory())
        stats = report.stats
        analyzed = stats.post_runs_analyzed
        deduped = stats.post_runs_deduped
        executed = analyzed - deduped
        ratio = analyzed / executed if executed else 1.0
        rows.append([
            name, stats.failure_points, analyzed, deduped,
            stats.replays_deduped, f"{ratio:.2f}",
        ])
        return report

    for name in RATIO_WORKLOADS:
        cls = MICROBENCHMARKS[name]
        measure(name, lambda cls=cls: cls(test_size=2))
    report = measure(
        "forced_duplicates",
        lambda: ForcedDuplicates(test_size=4),
    )
    # Each burst of three forced points repeats the preceding
    # ordering point's image: the class machinery must fire.
    assert report.stats.post_runs_deduped > 0
    assert report.stats.replays_deduped > 0

    benchmark.pedantic(
        lambda: XFDetector(DetectorConfig()).run(
            ForcedDuplicates(test_size=4)
        ),
        rounds=1, iterations=1,
    )

    headers = ["workload", "failure_points", "post_runs", "deduped",
               "replays_deduped", "dedup_ratio"]
    text = format_table(
        headers, rows,
        title="Dedup ratio — post-failure runs per executed run",
    )
    text += (
        "\nshape to check: ~1.00 on default configs "
        "(skip_empty_failure_points already prunes trivially-"
        "identical images); >1 whenever failure points are forced "
        "between persists\n"
    )
    write_result(
        "dedup_ratio", text,
        records=table_records("dedup_ratio", headers, rows),
    )
