"""bench_layers: end-to-end and per-layer cost of ``xfdetector run``.

Run ``PYTHONPATH=src python -m benchmarks.layers``; see README.md.
"""
