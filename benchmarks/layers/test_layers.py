"""Smoke test of bench_layers.

``--quick`` must print every metric ``BENCHMARK.json`` names, with its
unit, and a wrong pinned digest must fail the verdict.  Run with
``PYTHONPATH=src python -m pytest benchmarks/layers/test_layers.py``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent


def _run_quick(*args):
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.layers", "--quick", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


def _end_to_end_rows(stdout):
    """``{(workload, metric): (value, unit)}`` from the end-to-end
    lines (``workload metric value unit n=N``)."""
    rows = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 5 and parts[4].startswith("n="):
            rows[(parts[0], parts[1])] = (float(parts[2]), parts[3])
    return rows


def test_quick_prints_every_benchmark_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = _run_quick("--out", str(tmp_path))
    assert result.returncode == 0, result.stdout + result.stderr

    workloads = [workload["name"] for workload in spec["workloads"]]
    rows = _end_to_end_rows(result.stdout)
    for workload in workloads:
        for metric in spec["end_to_end"]:
            assert rows[(workload, metric["name"])][1] == metric["unit"]
        assert rows[(workload, "verdict_ok")][0] == 1.0
        assert rows[(workload, "failed_share")][0] == 0.0

    # Per-layer rows: ``metric unit <one value per workload>``.
    layer_units = {}
    for line in result.stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 + len(workloads):
            layer_units[parts[0]] = parts[1]
    for metric in spec["per_layer"]:
        assert layer_units.get(metric["name"]) == metric["unit"], metric

    assert (tmp_path / "layers.json").is_file()
    assert (tmp_path / "spans.ndjson").stat().st_size > 0


def test_wrong_pinned_digest_fails_the_verdict(tmp_path):
    expected = json.loads((HERE / "expected.json").read_text())
    pins = expected["quick"]["tx-recovery"]
    for init in pins:
        pins[init] = "0" * 64
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))

    result = _run_quick(
        "--workload", "tx-recovery", "--expected", str(path),
        "--out", str(tmp_path),
    )
    assert result.returncode == 1
    verdict_ok = _end_to_end_rows(result.stdout)[
        ("tx-recovery", "verdict_ok")
    ][0]
    assert verdict_ok < 1
    assert "differ from expected.json" in result.stdout
