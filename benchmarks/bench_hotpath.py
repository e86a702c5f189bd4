"""Serial engine hot path: columnar traces + compiled replay plans.

Every other speedup in the repo (exec parallelism, dedup, mechanism
pruning, warm pools) multiplies the serial per-PM-op cost; this
benchmark tracks that cost directly: full detection of ``hashmap_tx``
@ 30 pre-failure transactions, jobs=1, dedup on (the acceptance
configuration), timed best-of-N and compared against the measured
pre-change baseline recorded in :data:`PRECHANGE_BASELINE`.  Ops/sec
and the per-phase split land in ``BENCH_hotpath.json``.

The split follows the fused schedule: each post-failure run is
checked against its failure point's shadow checkpoint *as it runs*,
so the ``post-failure + replay`` row (``post_failure_seconds``)
includes every post-failure op's replay, and the ``pre-replay +
splice`` row (``backend_seconds``) covers only the one pre-failure
replay and the bug splicing.

Correctness is not gated here: the tier-1 oracle suite
(``tests/integration/test_oracle.py``) checks every workload's bug list
against a naive whole-detector oracle.

Run with ``--benchmark-only``::

    PYTHONPATH=src python -m pytest -q --benchmark-only \\
        benchmarks/bench_hotpath.py
"""

import os
import time

from benchmarks._common import (
    format_table,
    run_detection,
    table_records,
    write_result,
    write_trajectory,
)
from repro.core import DetectorConfig
from repro.workloads import MICROBENCHMARKS

#: Pre-change serial cost of the acceptance configuration (hashmap_tx
#: @ 30 transactions, jobs=1, dedup on): best of 5 runs on the
#: development machine at commit 4041489, immediately before the
#: hot-path work landed.  ``cpu_seconds`` (``time.process_time``) is
#: the gated metric — it excludes scheduler wait and so stays stable
#: on a shared machine, where wall clock swings by 2x with load; the
#: wall figure is kept for context.  Machine-specific by nature — the
#: recorded ``speedup_vs_prechange`` is only meaningful against this
#: provenance row, which is why the row is written into the
#: trajectory file.
PRECHANGE_BASELINE = {
    "workload": "hashmap_tx",
    "transactions": 30,
    "jobs": 1,
    "dedup": True,
    "cpu_seconds": 1.836,
    "wall_seconds": 3.149,
    "measured_at_commit": "4041489",
}

#: Wall-clock floor the tentpole promises over PRECHANGE_BASELINE.
SPEEDUP_FLOOR = 2.0

TX_COUNT = 30
ROUNDS = 3


def _timed_run(config):
    cpu_started = time.process_time()
    started = time.perf_counter()
    report = run_detection(
        MICROBENCHMARKS["hashmap_tx"](test_size=TX_COUNT), config
    )
    return (
        time.perf_counter() - started,
        time.process_time() - cpu_started,
        report,
    )


def test_hotpath_speedup(benchmark):
    """Best-of-N serial detection vs the pre-change baseline."""
    config = DetectorConfig(jobs=1)
    best = best_cpu = None
    best_report = None
    for _ in range(ROUNDS):
        elapsed, cpu, report = _timed_run(config)
        if best is None or elapsed < best:
            best = elapsed
        if best_cpu is None or cpu < best_cpu:
            best_cpu, best_report = cpu, report
    stats = best_report.stats
    total_events = stats.pre_trace_events + stats.post_trace_events
    events_per_s = int(total_events / best_cpu)
    speedup = PRECHANGE_BASELINE["cpu_seconds"] / best_cpu
    wall_speedup = PRECHANGE_BASELINE["wall_seconds"] / best

    benchmark.pedantic(
        lambda: run_detection(
            MICROBENCHMARKS["hashmap_tx"](test_size=TX_COUNT), config
        ),
        rounds=1, iterations=1,
    )

    headers = ["row", "cpu_s", "wall_s", "events", "events_per_cpu_s",
               "speedup_vs_prechange", "note"]
    rows = [
        ["prechange", f"{PRECHANGE_BASELINE['cpu_seconds']:.3f}",
         f"{PRECHANGE_BASELINE['wall_seconds']:.3f}", "-", "-", "1.00",
         f"measured at commit {PRECHANGE_BASELINE['measured_at_commit']}"],
        ["optimized", f"{best_cpu:.3f}", f"{best:.3f}", total_events,
         events_per_s, f"{speedup:.2f}", f"best of {ROUNDS} (cpu)"],
    ]
    phase_rows = [
        ["pre-failure", "-", f"{stats.pre_failure_seconds:.3f}",
         stats.pre_trace_events,
         int(stats.pre_trace_events
             / max(stats.pre_failure_seconds, 1e-9)), "-", ""],
        ["post-failure + replay", "-",
         f"{stats.post_failure_seconds:.3f}", stats.post_trace_events,
         int(stats.post_trace_events
             / max(stats.post_failure_seconds, 1e-9)), "-",
         "recovery runs, each op replayed as it runs"],
        ["pre-replay + splice", "-", f"{stats.backend_seconds:.3f}",
         stats.pre_trace_events,
         int(stats.pre_trace_events
             / max(stats.backend_seconds, 1e-9)), "-",
         "replays the pre-failure program, splices bugs"],
    ]
    text = format_table(
        headers, rows + phase_rows,
        title=(
            "Serial hot path — hashmap_tx @ 30 tx, jobs=1, dedup on "
            f"(floor: {SPEEDUP_FLOOR}x vs pre-change baseline)"
        ),
    )
    write_result(
        "hotpath", text,
        records=table_records("hotpath", headers, rows + phase_rows),
    )
    write_trajectory(
        "hotpath",
        [dict(zip(headers, row)) for row in rows + phase_rows],
        summary={
            "workload": "hashmap_tx",
            "transactions": TX_COUNT,
            "jobs": 1,
            "dedup": True,
            "cpu_count": os.cpu_count() or 1,
            "prechange_baseline": PRECHANGE_BASELINE,
            "best_cpu_seconds": round(best_cpu, 3),
            "best_wall_seconds": round(best, 3),
            "events_per_cpu_s": events_per_s,
            "failure_points": stats.failure_points,
            "speedup_vs_prechange": round(speedup, 3),
            "wall_speedup_vs_prechange": round(wall_speedup, 3),
            "speedup_floor": SPEEDUP_FLOOR,
            "phase_seconds": {
                "pre_failure": round(stats.pre_failure_seconds, 3),
                "post_failure_with_replay": round(
                    stats.post_failure_seconds, 3
                ),
                "pre_replay_and_splice": round(
                    stats.backend_seconds, 3
                ),
            },
        },
    )

    floor_message = (
        f"serial hot path {best_cpu:.3f} cpu-s is only {speedup:.2f}x "
        "over the pre-change baseline "
        f"{PRECHANGE_BASELINE['cpu_seconds']:.3f} cpu-s (floor "
        f"{SPEEDUP_FLOOR}x); the baseline is provenance from the "
        "development machine — rerun there before reading a miss on "
        "different hardware as a regression"
    )
    if os.environ.get("XFD_HOTPATH_STRICT", "1") == "0":
        # Foreign hardware (CI runners): the baseline does not
        # describe this machine, so record the trajectory but only
        # warn on a floor miss.
        if speedup < SPEEDUP_FLOOR:
            print(f"\nWARNING (non-strict): {floor_message}")
    else:
        assert speedup >= SPEEDUP_FLOOR, floor_message

