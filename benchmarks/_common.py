"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures and
writes its rows/series to ``benchmarks/results/<name>.txt`` so the
output survives pytest's capture, plus a machine-readable
``<name>.ndjson`` sidecar (see docs/observability.md).  Absolute
numbers are pure-Python timings on this machine; the *shapes* (who
dominates, linearity, ordering of overheads) are what reproduce the
paper.
"""

from __future__ import annotations

import os
import time

from repro.core import DetectorConfig, XFDetector
from repro.core.frontend import ExecutionContext, Frontend
from repro.core.interface import XFInterface
from repro.obs import write_ndjson
from repro.pm.memory import PersistentMemory
from repro.trace.recorder import NullRecorder, TraceRecorder
from repro.workloads import MICROBENCHMARKS, REAL_WORKLOADS

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Repository root: trajectory files live at the top level so perf
#: history is one `git log -p BENCH_*.json` away.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Schema tag for top-level ``BENCH_<name>.json`` trajectory files.
TRAJECTORY_SCHEMA = "xfd-bench-trajectory/1"

#: Workloads of Figure 12, in paper order.
FIG12_WORKLOADS = {**MICROBENCHMARKS, **REAL_WORKLOADS}


def write_result(name, text, records=None):
    """Persist one regenerated table/figure and echo it.

    Always leaves a ``<name>.ndjson`` sidecar next to the text: the
    benchmark's structured rows when given, or a minimal marker record
    so downstream tooling can rely on the sidecar existing.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(text)
    if records is None:
        records = [{"type": "bench_result", "bench": name}]
    write_ndjson(
        os.path.join(RESULTS_DIR, f"{name}.ndjson"), records
    )
    print(f"\n{text}")
    return path


def write_trajectory(name, rows, summary=None):
    """Write a top-level ``BENCH_<name>.json`` trajectory file.

    One file per benchmark family, overwritten on every run and meant
    to be committed: the file's git history *is* the perf trajectory
    across PRs.  ``rows`` are plain dicts (one per measured
    configuration); ``summary`` holds the headline scalars (speedups,
    ratios) tooling compares first.
    """
    import json

    payload = {
        "schema": TRAJECTORY_SCHEMA,
        "bench": name,
        "summary": summary or {},
        "rows": rows,
    }
    path = os.path.join(REPO_ROOT, f"BENCH_{name}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def table_records(bench, headers, rows):
    """One ``bench_row`` record per table row, keyed by the headers."""
    return [
        {"type": "bench_row", "bench": bench,
         **dict(zip(headers, row))}
        for row in rows
    ]


def make_workload(cls, init_size=0, test_size=1):
    return cls(init_size=init_size, test_size=test_size)


def run_detection(workload, config=None):
    """Full XFDetector run; returns the report."""
    return XFDetector(config or DetectorConfig()).run(workload)


def run_pure_tracing(workload):
    """The Figure 12b "Pure Pin" analogue: trace the pre-failure stage
    (with source-location capture) but inject no failures, run no
    post-failure stages, and do no analysis.  Returns elapsed seconds.
    """
    config = DetectorConfig(inject_failures=False)
    started = time.perf_counter()
    Frontend(config).run(workload)
    return time.perf_counter() - started


def run_original(workload):
    """The Figure 12b "original program" analogue: run the workload's
    stages on the raw runtime, with a dropping recorder and no source-
    location capture.  Returns elapsed seconds."""
    memory = PersistentMemory(NullRecorder(), capture_ips=False)
    context = ExecutionContext(
        memory=memory,
        interface=XFInterface(memory),
        stage="pre",
    )
    started = time.perf_counter()
    workload.setup(context)
    workload.pre_failure(context)
    return time.perf_counter() - started


def format_table(headers, rows, title=""):
    """Render an aligned text table."""
    columns = [headers] + [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(row[i]) for row in columns)
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append(
        "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    )
    lines.append("  ".join("-" * w for w in widths))
    for row in columns[1:]:
        lines.append(
            "  ".join(c.ljust(w) for c, w in zip(row, widths))
        )
    return "\n".join(lines) + "\n"


def geomean(values):
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values)) if values else 0.0
