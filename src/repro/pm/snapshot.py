"""Delta pool snapshots for failure points.

The injector used to deep-copy every mapped pool at every failure
point, making snapshot time and resident memory O(F · pool size).  A
:class:`SnapshotStore` instead records, per failure point, only the
cache lines dirtied since the previous failure point (the cache model's
``drain_touched`` set) plus one full base image the first time a pool
is seen.  Crash images are reconstructed on demand by replaying the
line deltas forward from the base over an incremental
:class:`SnapshotCursor`: post-failure tasks restore them into their
worker's rolling buffers (``repro.dedup.memo.ImageMemo``), and
``materialize`` builds full :class:`~repro.pm.image.PMImage` crash
images for inspection.

The store is append-only during the pre-failure stage and read-only
afterwards, so forked pool workers can restore from it (attached
through shared memory) while the serial schedule reads it in place.
The ``bytes_saved`` accounting backs the ``snapshot_bytes_saved``
metric: how many bytes the legacy full-copy scheme would have recorded
minus what the deltas actually hold.
"""

from __future__ import annotations

import threading

from repro.pm.image import PMImage, capture_image, volatile_lines_for


class PoolDelta:
    """One pool's snapshot record at one failure point.

    Either a full base image (``full`` set, first sighting of the pool)
    or a tuple of ``(offset, data, persisted)`` line patches against
    the previous failure point's contents.  ``volatile_lines`` is
    always recorded in full — it is tiny and every materialized image
    needs it for crash-state enumeration.
    """

    __slots__ = ("pool_name", "base", "size", "full", "lines",
                 "volatile_lines")

    def __init__(self, pool_name, base, size, full=None, lines=(),
                 volatile_lines=()):
        self.pool_name = pool_name
        self.base = base
        self.size = size
        self.full = full
        self.lines = tuple(lines)
        self.volatile_lines = tuple(volatile_lines)

    @property
    def recorded_bytes(self):
        """Image bytes this record actually stores (data + persisted)."""
        if self.full is not None:
            return 2 * self.size
        return sum(
            len(data) + len(persisted)
            for _offset, data, persisted in self.lines
        )

    def __repr__(self):
        shape = "full" if self.full is not None else (
            f"{len(self.lines)} line(s)"
        )
        return f"PoolDelta({self.pool_name!r}, {shape})"


class SnapshotCursor:
    """Incremental replayer of a store's deltas.

    Holds each pool's program-view and persisted contents as of
    failure point ``fid`` and advances them delta-by-delta, so walking
    failure points in order costs O(delta) per step.  The store's own
    materialization cursor is one of these; ``repro.dedup.memo`` keeps
    a private one per worker.
    """

    __slots__ = ("_store", "fid", "pools")

    def __init__(self, store):
        self._store = store
        self.fid = -1
        #: pool name -> [bytearray data, bytearray persisted].
        self.pools = {}

    def advance(self, fid):
        """Move to failure point ``fid``; going backwards rebuilds from
        the base images.

        Returns ``{pool_name: [(start, end), ...]}`` — the byte ranges
        that changed since the previous position (the whole pool after
        a base-image reset), which is exactly what a caller caching
        derived per-pool state needs to invalidate.
        """
        snapshots = self._store._snapshots
        if not 0 <= fid < len(snapshots):
            raise IndexError(
                f"no snapshot for failure point #{fid} "
                f"({len(snapshots)} recorded)"
            )
        changed = {}
        if fid < self.fid:
            self.fid = -1
            self.pools = {}
        for index in range(self.fid + 1, fid + 1):
            for delta in snapshots[index]:
                name = delta.pool_name
                if delta.full is not None:
                    self.pools[name] = [
                        bytearray(delta.full.data),
                        bytearray(delta.full.persisted_data),
                    ]
                    changed[name] = [(0, delta.size)]
                    continue
                data, persisted = self.pools[name]
                ranges = changed.setdefault(name, [])
                for offset, line_data, line_persisted in delta.lines:
                    data[offset:offset + len(line_data)] = line_data
                    persisted[offset:offset + len(line_persisted)] = \
                        line_persisted
                    ranges.append((offset, offset + len(line_data)))
        self.fid = fid
        return changed


class SnapshotStore:
    """Append-only store of per-failure-point pool deltas."""

    def __init__(self):
        self._snapshots = []  # fid -> [PoolDelta, ...]
        self._known_pools = set()
        #: Image bytes actually recorded across all snapshots.
        self.recorded_bytes = 0
        #: Image bytes the legacy full-copy scheme would have recorded.
        self.full_equivalent_bytes = 0
        #: Bytes fed to the incremental crash-image fingerprints
        #: (``repro.dedup``) so far: O(dirty lines) per capture (the
        #: ``dedup_bytes_hashed`` metric).
        self.hashed_bytes = 0
        self._folds = {}  # pool name -> repro.dedup.PoolFold
        self._records = []  # fid -> per-pool fingerprint tuple | None
        #: Once frozen (after crash plans are built and the store may
        #: have been published to shared memory), captures are refused:
        #: workers hold raw byte offsets into the published payload and
        #: a late capture would silently diverge from them.
        self.frozen = False
        self._lock = threading.Lock()
        # Incremental materialization cursor so sequential fids replay
        # only their delta.
        self._cursor = SnapshotCursor(self)

    def __len__(self):
        return len(self._snapshots)

    @property
    def bytes_saved(self):
        """How many snapshot bytes the delta scheme avoided recording."""
        return max(0, self.full_equivalent_bytes - self.recorded_bytes)

    # -- capture (pre-failure stage) -----------------------------------

    def freeze(self):
        """Mark the pre-failure stage over: any further capture is a
        pipeline bug (failure points exist only before fan-out)."""
        self.frozen = True

    def _check_mutable(self):
        if self.frozen:
            from repro.errors import DetectorError

            raise DetectorError(
                "snapshot store is frozen: captures are only legal "
                "during the pre-failure stage, before publication to "
                "workers"
            )

    def capture(self, memory):
        """Record the crash-image state of every pool of ``memory`` as
        a delta since the previous capture; returns the snapshot id."""
        self._check_mutable()
        cache = memory.cache
        touched = sorted(cache.drain_touched())
        deltas = []
        for pool in memory.pools:
            if pool.name not in self._known_pools:
                self._known_pools.add(pool.name)
                image = capture_image(pool, cache)
                delta = PoolDelta(
                    pool.name, pool.base, pool.size, full=image,
                    volatile_lines=image.volatile_lines,
                )
            else:
                lines = []
                for line in touched:
                    if not (pool.base <= line < pool.end):
                        continue
                    data = pool.line_bytes(line)
                    persisted = cache.persisted_only_overlay(
                        line, len(data), data
                    )
                    lines.append((line - pool.base, data, persisted))
                delta = PoolDelta(
                    pool.name, pool.base, pool.size, lines=lines,
                    volatile_lines=volatile_lines_for(pool, cache),
                )
            deltas.append(delta)
            self.recorded_bytes += delta.recorded_bytes
            self.full_equivalent_bytes += 2 * pool.size
        fid = len(self._snapshots)
        self._snapshots.append(deltas)
        self._fingerprint_capture(deltas)
        return fid

    def _fingerprint_capture(self, deltas):
        """Fold the just-captured deltas into the per-pool fingerprints
        and record the new failure point's fingerprint tuple."""
        from repro.dedup.fingerprint import PoolFold

        record = []
        for delta in deltas:
            fold = self._folds.get(delta.pool_name)
            if fold is None:
                fold = self._folds[delta.pool_name] = PoolFold()
            if delta.full is not None:
                self.hashed_bytes += fold.reset_full(
                    delta.full.data, delta.full.persisted_data
                )
            else:
                for offset, data, persisted in delta.lines:
                    self.hashed_bytes += fold.update_line(
                        offset, data, persisted
                    )
            record.append(
                (delta.pool_name,) + fold.record(delta.volatile_lines)
            )
        self._records.append(tuple(record))

    # -- queries --------------------------------------------------------

    def volatile_bits(self, fid):
        """Total enumerable crash bits at ``fid`` (sum of volatile
        lines across pools) — cheap, no materialization."""
        return sum(
            len(delta.volatile_lines) for delta in self._snapshots[fid]
        )

    def deltas(self, fid):
        """The per-pool delta records at failure point ``fid``."""
        return self._snapshots[fid]

    def fingerprint(self, fid):
        """The crash-image fingerprint at ``fid``: one
        ``(pool_name, data_fold, persist_fold, volatile_lines)`` tuple
        per pool.  Only the capturing store has them: a store that
        crossed into a worker raises ``IndexError`` (dedup classes are
        built in the parent, before any fan-out)."""
        return self._records[fid]

    # -- materialization (post-failure / inspection) --------------------

    def materialize(self, fid):
        """Reconstruct the full crash images at failure point ``fid``.

        Returns fresh ``PMImage``s in the pool order recorded at that
        failure point.  Sequential access is O(delta) thanks to the
        cursor; going backwards rebuilds from the base images.
        """
        with self._lock:
            self._cursor.advance(fid)
            return [
                PMImage(
                    delta.pool_name, delta.base,
                    bytes(self._cursor.pools[delta.pool_name][0]),
                    bytes(self._cursor.pools[delta.pool_name][1]),
                    delta.volatile_lines,
                )
                for delta in self._snapshots[fid]
            ]

    # -- pickling (the store crosses into forked workers) ---------------

    def __getstate__(self):
        # Fingerprint folds and records stay behind: dedup classes are
        # built in the parent before any fan-out, and the folds' line
        # dictionaries would bloat every worker.
        return {
            "snapshots": self._snapshots,
            "known_pools": sorted(self._known_pools),
            "recorded_bytes": self.recorded_bytes,
            "full_equivalent_bytes": self.full_equivalent_bytes,
        }

    def __setstate__(self, state):
        self._snapshots = state["snapshots"]
        self._known_pools = set(state["known_pools"])
        self.recorded_bytes = state["recorded_bytes"]
        self.full_equivalent_bytes = state["full_equivalent_bytes"]
        self.hashed_bytes = 0
        self._folds = {}
        self._records = []
        # A store only crosses a pickle boundary on its way into a
        # worker, where capturing is never legal.
        self.frozen = True
        self._lock = threading.Lock()
        self._cursor = SnapshotCursor(self)
