"""Parallel failure-point engine.

The detection pipeline's cost is dominated by the O(F · P)
post-failure work (paper Section 5.4, Figure 13): one post-failure
execution per failure point, checked against its shadow checkpoint as
it runs, all mutually independent.  This package runs that phase on
one of two executors, chosen by
:func:`~repro.exec.base.resolve_executor` from ``jobs``:

* :class:`~repro.exec.base.SerialExecutor` — in-process, the default
  and the reference schedule (``jobs=1`` or no ``fork`` start method);
* :class:`~repro.exec.pool.WarmProcessExecutor` — workers forked once
  per run and kept alive across phases, snapshot stores published
  through ``multiprocessing.shared_memory`` (:mod:`repro.exec.shm`) so
  workers attach zero-copy, and failure points dispatched in
  contiguous batches (:func:`~repro.exec.base.plan_batches`) so each
  worker's ``repro.dedup.ImageMemo`` cursor amortizes across the
  batch.  A phase that will not pickle runs inline on the serial
  schedule.

Task keys are issued in canonical ``(fid, variant)`` order and results
are consumed in submission order, so reports and metrics are identical
regardless of scheduling — the executors differ only in wall-clock.
"""

from repro.exec.base import (
    SerialExecutor,
    TaskOutcome,
    plan_batches,
    resolve_executor,
)
from repro.exec.pool import WarmProcessExecutor

__all__ = [
    "SerialExecutor",
    "TaskOutcome",
    "WarmProcessExecutor",
    "plan_batches",
    "resolve_executor",
]
