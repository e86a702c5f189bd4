"""Static-vs-dynamic bug coverage over the synthetic fault corpus.

For every classified fault in ``repro.analysis.groundtruth`` this
bench runs the static analyzer at the canonical lint sizing and
records whether the fault is statically detectable (and with which
rules) or only reachable by the dynamic cross-failure pipeline.  The
split is the honest capability statement of the analyzer: what a
pre-execution lint pass catches for free, and what still needs
failure injection.
"""

import pytest

from benchmarks._common import (
    format_table,
    table_records,
    write_result,
)
from repro.analysis.groundtruth import (
    CANONICAL_PARAMS,
    STATIC_EXPECTATIONS,
)
from repro.analysis.interp import analyze_workload
from repro.workloads import ALL_WORKLOADS

_rows = []


def test_static_coverage_sweep(benchmark):
    def sweep():
        rows = []
        for (workload, flag), expected in sorted(
            STATIC_EXPECTATIONS.items()
        ):
            instance = ALL_WORKLOADS[workload](
                faults=frozenset([flag]), **CANONICAL_PARAMS
            )
            report = analyze_workload(instance)
            got = frozenset(f.rule for f in report.findings)
            rows.append((workload, flag, expected, got))
        return rows

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for workload, flag, expected, got in results:
        assert got == expected, (
            f"{workload}:{flag} expected {sorted(expected)} "
            f"got {sorted(got)}"
        )
    _rows.extend(results)


def test_static_coverage_emit_table(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if not _rows:
        pytest.skip("sweep did not run")
    headers = ["workload", "fault", "coverage", "rules"]
    rows = [
        [
            workload, flag,
            "static" if got else "dynamic-only",
            " ".join(sorted(got)) or "-",
        ]
        for workload, flag, _expected, got in _rows
    ]
    static = sum(1 for *_x, got in _rows if got)
    dynamic = len(_rows) - static
    per_workload = {}
    for workload, _flag, _expected, got in _rows:
        caught, total = per_workload.get(workload, (0, 0))
        per_workload[workload] = (caught + (1 if got else 0),
                                  total + 1)
    summary = ", ".join(
        f"{workload} {caught}/{total}"
        for workload, (caught, total) in sorted(per_workload.items())
    )
    text = format_table(
        headers, rows,
        title="Static-vs-dynamic fault coverage at canonical lint "
              f"sizing (init={CANONICAL_PARAMS['init_size']}, "
              f"test={CANONICAL_PARAMS['test_size']})",
    ) + (
        f"\nstatically detectable: {static}/{len(_rows)} "
        f"(dynamic-only: {dynamic})\nper workload: {summary}\n"
    )
    records = table_records("static_coverage", headers, rows)
    records.append({
        "type": "bench_result", "bench": "static_coverage",
        "static": static, "dynamic_only": dynamic,
        "total": len(_rows),
    })
    write_result("static_coverage", text, records)
