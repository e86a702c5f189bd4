"""Figure 13: scalability with the number of pre-failure transactions.

Paper setup: scale the pre-failure transactions of the five
microbenchmarks (1..50), keep the post-failure constant, plot execution
time (primary axis) and number of failure points (secondary axis).
"Execution time increases linearly as the number of failure points
increases."

Reproduced shape: failure points grow linearly with transactions, and
execution time grows linearly with failure points (O(F*P),
Section 5.4).

The O(F·P) post-failure work is also what ``repro.exec`` parallelizes,
so this module additionally sweeps the detection at the largest
transaction count over ``--jobs`` ∈ {1, 2, 4, 8}: the jobs table shows
the speedup, and the reports are asserted bit-identical at every
width.  The speedup floor is only asserted on machines with ≥ 4 cores
(a single-core runner can't speed anything up; determinism is asserted
everywhere).
"""

import os
import time

import pytest

from benchmarks._common import (
    format_table,
    run_detection,
    table_records,
    write_result,
    write_trajectory,
)
from repro.core import DetectorConfig
from repro.exec import WarmProcessExecutor
from repro.workloads import MICROBENCHMARKS

TX_COUNTS = [1, 5, 10, 20, 30]
JOBS_SWEEP = [1, 2, 4, 8]

_series = {}


@pytest.mark.parametrize("name", list(MICROBENCHMARKS))
def test_fig13_scaling(benchmark, name):
    workload_cls = MICROBENCHMARKS[name]
    points = []
    for tx_count in TX_COUNTS:
        started = time.perf_counter()
        report = run_detection(workload_cls(test_size=tx_count))
        elapsed = time.perf_counter() - started
        points.append((tx_count, elapsed,
                       report.stats.failure_points))
    _series[name] = points

    benchmark.pedantic(
        lambda: run_detection(workload_cls(test_size=TX_COUNTS[-1])),
        rounds=1, iterations=1,
    )

    # Shape checks: failure points grow monotonically with transaction
    # count, and time per failure point stays within a small factor
    # across the sweep (linearity).
    fps = [fp for _tx, _t, fp in points]
    assert fps == sorted(fps)
    assert fps[-1] > fps[0]
    per_fp = [t / fp for _tx, t, fp in points]
    assert max(per_fp) / min(per_fp) < 6.0, (
        f"{name}: time per failure point not roughly constant: {per_fp}"
    )


def _strip_timings(report):
    data = report.to_dict(unique=False)
    data["stats"] = {
        key: value for key, value in data["stats"].items()
        if not key.endswith("seconds")
    }
    return data


#: Batch widths swept at the parallel peak (jobs=4) on the warm pool.
BATCH_SWEEP = [1, 4, 16]


def test_fig13_jobs_sweep(benchmark):
    """Parallel post-failure execution at the Figure-13 peak.

    Runs hashmap_tx at the largest transaction count under every pool
    width, then sweeps batch_size on the warm pool at jobs=4, asserting
    every parallel report bit-identical to serial and recording the
    speedup trajectory.  Every row carries the machine's ``cpu_count``
    as provenance; widths the machine cannot deliver
    (``cpu_count < jobs``, or no ``fork`` start method) are recorded as
    skipped-with-note rather than measured as bogus slowdowns.  The
    ``jobs/2`` floor (2.0x at jobs=4) is asserted only on machines
    with the cores to deliver it; a single-core runner asserts the
    trivial ``>= 1.0`` on its serial row, so the trajectory stays
    honest everywhere.
    """
    workload_cls = MICROBENCHMARKS["hashmap_tx"]
    tx_count = TX_COUNTS[-1]
    has_fork = WarmProcessExecutor.available()
    cpu_count = os.cpu_count() or 1
    rows = []
    speedups = {}

    def row(jobs, mode, batch_size, elapsed=None, speedup=None,
            note=""):
        executor = "serial" if mode == "serial" else "process"
        return [
            "hashmap_tx", tx_count, jobs, executor, mode,
            batch_size if batch_size is not None else "-", cpu_count,
            f"{elapsed:.3f}" if elapsed is not None else "-",
            f"{speedup:.2f}" if speedup is not None else "-",
            note,
        ]

    def timed(config):
        started = time.perf_counter()
        report = run_detection(
            workload_cls(test_size=tx_count), config
        )
        return time.perf_counter() - started, report

    # Serial reference: the baseline every parallel report must match
    # byte-for-byte, and the anchor for every speedup below.
    serial_time, serial_report = timed(DetectorConfig(jobs=1))
    reference = _strip_timings(serial_report)
    metrics = serial_report.telemetry.metrics
    recorded = metrics.value("snapshot_bytes_recorded")
    saved = metrics.value("snapshot_bytes_saved")
    assert recorded > 0
    ratio = (recorded + saved) / recorded
    assert ratio >= 5.0, (
        f"delta snapshots saved only {ratio:.1f}x on "
        f"hashmap_tx test_size={tx_count}"
    )
    speedups[1] = 1.0
    assert speedups[1] >= 1.0  # the single-core floor, trivially
    # The serial hot-path row is emitted unconditionally: on a 1-core
    # runner every parallel leg below is skipped, so this row (plus
    # its cpu_count and throughput provenance) is what makes the
    # trajectory usable at all there.
    total_events = (serial_report.stats.pre_trace_events
                    + serial_report.stats.post_trace_events)
    serial_events_per_s = int(total_events / serial_time)
    rows.append(row(
        1, "serial", None, serial_time, 1.0,
        note=f"hot path: {serial_events_per_s} events/s",
    ))

    def sweep_leg(jobs, mode, batch_size, config_kwargs):
        """One parallel leg: skip-with-note when the machine cannot
        deliver the width, else measure and assert determinism."""
        if not has_fork or cpu_count < jobs:
            note = (
                f"skipped: cpu_count={cpu_count} < jobs={jobs}"
                if has_fork else "skipped: no fork start method"
            )
            rows.append(row(jobs, mode, batch_size, note=note))
            return None
        elapsed, report = timed(DetectorConfig(
            jobs=jobs, **config_kwargs
        ))
        assert _strip_timings(report) == reference, (
            f"report differs at jobs={jobs} {mode} "
            f"batch_size={batch_size}"
        )
        speedup = serial_time / elapsed
        rows.append(row(jobs, mode, batch_size, elapsed, speedup))
        return speedup

    for jobs in JOBS_SWEEP[1:]:
        speedup = sweep_leg(jobs, "warm", 8, {"batch_size": 8})
        if speedup is not None:
            speedups[jobs] = speedup

    batch_rows = {
        batch_size: sweep_leg(
            4, "warm", batch_size, {"batch_size": batch_size}
        )
        for batch_size in BATCH_SWEEP
    }

    benchmark.pedantic(
        lambda: run_detection(
            workload_cls(test_size=tx_count),
            DetectorConfig(jobs=min(4, cpu_count)),
        ),
        rounds=1, iterations=1,
    )

    headers = ["workload", "transactions", "jobs", "executor", "mode",
               "batch_size", "cpu_count", "time_s", "speedup", "note"]
    text = format_table(
        headers,
        rows,
        title=(
            "Figure 13 addendum — post-failure execution time vs. "
            "--jobs and batch size (reports bit-identical at every "
            "width; widths beyond cpu_count recorded as skipped)"
        ),
    )
    text += (
        f"\ncpu_count={cpu_count}; jobs/2 speedup floor asserted only "
        "for the warm pool with >=4 cores\n"
    )
    write_result(
        "fig13_jobs_sweep", text,
        records=table_records("fig13_jobs_sweep", headers, rows),
    )
    write_trajectory(
        "fig13",
        [dict(zip(headers, row)) for row in rows],
        summary={
            "workload": "hashmap_tx",
            "transactions": tx_count,
            "executor": "process" if has_fork else "serial",
            "cpu_count": cpu_count,
            "serial_time_s": round(serial_time, 3),
            "serial_events_per_s": serial_events_per_s,
            "speedup_jobs4_warm": (
                round(speedups[4], 3) if 4 in speedups else "skipped"
            ),
            "speedup_jobs8_warm": (
                round(speedups[8], 3) if 8 in speedups else "skipped"
            ),
            "batch_sweep_jobs4": {
                f"warm_b{batch_size}": (
                    round(speedup, 3) if speedup is not None
                    else "skipped"
                )
                for batch_size, speedup in batch_rows.items()
            },
        },
    )

    if cpu_count >= 4:
        assert 4 in speedups
        assert speedups[4] >= 2.0, (
            f"jobs=4 warm speedup {speedups[4]:.2f}x below the "
            "jobs/2 floor (2.0x)"
        )


def test_fig13_emit_table(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if not _series:
        pytest.skip("scaling benches did not run")
    rows = []
    for name, points in _series.items():
        for tx_count, elapsed, failure_points in points:
            rows.append([
                name, tx_count, f"{elapsed:.3f}", failure_points,
                f"{1000 * elapsed / failure_points:.1f}",
            ])
    headers = ["workload", "transactions", "time_s",
               "failure_points", "ms_per_failure_point"]
    text = format_table(
        headers,
        rows,
        title=(
            "Figure 13 — execution time and #failure points vs. "
            "#pre-failure transactions"
        ),
    )
    text += (
        "\nshape to check: failure points scale linearly with "
        "transactions; ms/failure-point roughly constant (O(F*P), "
        "Section 5.4)\n"
    )
    write_result(
        "fig13_scalability", text,
        records=table_records("fig13_scalability", headers, rows),
    )
