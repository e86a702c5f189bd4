"""Dedup & memoization: skipped redundant post-failure work.

Two measurements, mirroring the two layers of ``repro.dedup``:

* **End-to-end speedup** — full detection runs with ``dedup``
  (which also turns on the replay memo) on vs. off on the PMDK
  microbenchmarks at a paper-realistic pool size.  The win is
  dominated by crash-image copy-elision (the memo's rolling
  per-worker buffers restore only the lines that changed between
  consecutive failure points, instead of three O(pool) copies per
  post-failure execution), so it grows with pool size and
  failure-point density.  The floor asserted here is the
  issue's acceptance bar: >=1.5x on at least two workloads.

* **Dedup ratio** — how many post-failure runs (each checked as it
  runs) were skipped because their crash image, and the shadow state
  over their representative's read set, matched an earlier failure
  point's.  On the default configuration
  this is usually 1.00: ``skip_empty_failure_points`` already refuses
  to inject a failure point when no PM data operation happened since
  the previous one, which prunes exactly the trivially-identical
  images.  The class machinery pays off on *forced* failure points
  (``addFailurePoint`` between persists) — measured here with a
  synthetic workload — and guards every configuration against
  re-running identical recovery.

Reports must be content-identical with dedup on and off (same bugs,
same per-fid provenance, same non-timing stats modulo the skipped-work
counters) across the full Table 4 workload set; this module asserts
that too.
"""

import time

from benchmarks._common import (
    format_table,
    table_records,
    write_result,
    write_trajectory,
)
from repro.core import DetectorConfig, XFDetector
from repro.pm.pool import PMPool
from repro.workloads import ALL_WORKLOADS, MICROBENCHMARKS
from repro.workloads.base import Workload

#: Paper-realistic pool size for the speedup measurement (PMDK pools
#: are routinely tens of MB and up; the test default of 8 MB
#: understates the copy-elision win).
SPEEDUP_POOL_SIZE = 16 * 1024 * 1024
SPEEDUP_WORKLOADS = ("hashmap_tx", "btree", "hashmap_atomic")
SPEEDUP_TEST_SIZE = 5
SPEEDUP_FLOOR = 1.5

#: One representative fault per workload so the identity check
#: compares non-empty bug lists, not just empty reports.
IDENTITY_FAULTS = {
    "hashmap_atomic": ("skip_persist_count",),
    "linkedlist": ("unlogged_length",),
}


def _config(enabled, **kwargs):
    return DetectorConfig(dedup=enabled, **kwargs)


def _content(report):
    """The report's content: everything but timings and the counters
    that only say how much work dedup skipped."""
    data = report.to_dict(unique=False)
    data["stats"] = {
        key: value for key, value in data["stats"].items()
        if not key.endswith("seconds")
        and key not in ("post_runs_deduped", "replays_deduped")
    }
    return data


def _timed_run(workload_factory, config, repeats=2):
    """Best-of-N full detection; returns (seconds, report)."""
    best = None
    report = None
    for _ in range(repeats):
        started = time.perf_counter()
        report = XFDetector(config).run(workload_factory())
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best, report


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


def test_dedup_speedup(benchmark):
    rows = []
    speedups = {}
    for name in SPEEDUP_WORKLOADS:
        cls = MICROBENCHMARKS[name]

        def factory(cls=cls):
            return cls(
                test_size=SPEEDUP_TEST_SIZE,
                pool_size=SPEEDUP_POOL_SIZE,
            )

        XFDetector(_config(False)).run(factory())  # warm caches
        off_time, off_report = _timed_run(factory, _config(False))
        on_time, on_report = _timed_run(factory, _config(True))
        assert _content(on_report) == _content(off_report), (
            f"{name}: dedup-on report differs from dedup-off"
        )
        speedups[name] = off_time / on_time
        rows.append([
            name, off_report.stats.failure_points,
            f"{off_time:.3f}", f"{on_time:.3f}",
            f"{speedups[name]:.2f}",
        ])

    benchmark.pedantic(
        lambda: XFDetector(_config(True)).run(
            MICROBENCHMARKS[SPEEDUP_WORKLOADS[0]](
                test_size=SPEEDUP_TEST_SIZE,
                pool_size=SPEEDUP_POOL_SIZE,
            )
        ),
        rounds=1, iterations=1,
    )

    headers = ["workload", "failure_points", "off_s", "on_s",
               "speedup"]
    text = format_table(
        headers, rows,
        title=(
            "Dedup & memoization — end-to-end detection time, "
            f"dedup+memo off vs. on (pool {SPEEDUP_POOL_SIZE >> 20} "
            f"MB, test_size={SPEEDUP_TEST_SIZE}, reports "
            "content-identical)"
        ),
    )
    write_result(
        "dedup_speedup", text,
        records=table_records("dedup_speedup", headers, rows),
    )
    write_trajectory(
        "dedup",
        [dict(zip(headers, row)) for row in rows],
        summary={
            "pool_size": SPEEDUP_POOL_SIZE,
            "test_size": SPEEDUP_TEST_SIZE,
            "floor": SPEEDUP_FLOOR,
            "speedups": {
                name: round(value, 3)
                for name, value in speedups.items()
            },
        },
    )

    cleared = [v for v in speedups.values() if v >= SPEEDUP_FLOOR]
    assert len(cleared) >= 2, (
        f"dedup+memo speedup below {SPEEDUP_FLOOR}x on all but "
        f"{len(cleared)} workload(s): {speedups}"
    )


def test_dedup_ratio(benchmark):
    """Dedup class collapse: default configs vs. forced duplicates."""
    rows = []

    def measure(name, factory):
        report = XFDetector(_config(True)).run(factory())
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

    for name in SPEEDUP_WORKLOADS:
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
        lambda: XFDetector(_config(True)).run(
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


def test_dedup_content_identity_table4(benchmark):
    """Dedup on vs. off over the full Table 4 workload set: bugs,
    per-fid provenance, incidents, and non-timing stats all equal."""

    def sweep():
        mismatches = []
        for name, cls in sorted(ALL_WORKLOADS.items()):
            faults = IDENTITY_FAULTS.get(name, ())
            factory = lambda: cls(  # noqa: E731
                faults=faults, test_size=2
            )
            off = XFDetector(_config(False)).run(factory())
            on = XFDetector(_config(True)).run(factory())
            if _content(on) != _content(off):
                mismatches.append(name)
        return mismatches

    mismatches = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert not mismatches, (
        f"dedup-on reports differ on: {mismatches}"
    )
