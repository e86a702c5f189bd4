"""Crash-state deduplication and replay memoization (``repro.dedup``).

Many failure points crash into byte-identical pool images — no persist
landed between two ordering points, or a sampled crash-state variant
reverted the only volatile lines that differed.  Re-running recovery
for each of them repeats work whose outcome is already known: workload
execution is deterministic, so identical crash images produce the same
post-failure operations, and identical shadow state over a run's read
set produces identical findings.  This package removes that redundancy
in three layers:

* :mod:`repro.dedup.fingerprint` — an incremental XOR-fold content
  hash over the delta snapshot store's touched cache lines, so equal
  fingerprints imply equal crash images without ever materializing a
  full pool;
* :mod:`repro.dedup.classes` — :class:`DedupIndex`, the equivalence
  classes of post-failure task keys: one representative per class
  runs first, and a member receives its outcome with per-member
  provenance rewritten when the shadow state the representative read
  is equal at both checkpoints (and runs itself otherwise, or when the
  representative is quarantined — a class is never silently dropped);
* :mod:`repro.dedup.memo` — :class:`ImageMemo`, a per-worker rolling
  crash-image buffer advanced by per-failure-point deltas: the one way
  a post-failure task gets its crash image, in O(delta) instead of an
  O(pool) copy per task.

Classes are built for every run except audited ones (a clone would
have no audit records of its own).  Reports are content-identical to
an undeduplicated run, such as ``tests/oracle.py``'s, modulo the
skipped-work counters (``post_runs_deduped``, ``replays_deduped``).
"""

from repro.dedup.classes import DedupIndex
from repro.dedup.fingerprint import PoolFold, blob_hash, line_hash
from repro.dedup.memo import (
    ImageMemo,
    TrackedPool,
    drop_local_memo,
    memo_for,
)

__all__ = [
    "DedupIndex",
    "ImageMemo",
    "PoolFold",
    "TrackedPool",
    "blob_hash",
    "line_hash",
    "memo_for",
    "drop_local_memo",
]
