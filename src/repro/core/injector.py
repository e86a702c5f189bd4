"""Failure injection (paper Sections 4.2 and 5.4).

The injector listens for ordering points on the pre-failure runtime and,
immediately before each one takes effect, records a *failure point*: an
id, a snapshot of every mapped pool, and the current trace position.
The frontend later spawns one post-failure execution per failure point.

Injection respects the annotation state on the runtime:

* only inside the region of interest (``roi_active``);
* never inside ``skipFailure`` regions or library internals;
* never after ``completeDetection``;
* optimization 2: no failure point when no PM data operation happened
  since the previous one (two back-to-back ordering points), unless the
  failure point was forced via ``addFailurePoint``.
"""

from __future__ import annotations

import time

from repro.pm.snapshot import SnapshotStore
from repro.trace.events import PM_DATA_CODES, EventKind


class FailurePoint:
    """One injected failure: where, and what PM looked like.

    Crash images are no longer stored inline: the injector records a
    delta snapshot into a shared :class:`SnapshotStore` and ``images``
    materializes the full images on demand, so F failure points cost
    O(dirty lines) resident memory instead of O(F · pool size).
    """

    __slots__ = ("fid", "reason", "trace_index", "store", "planned")

    def __init__(self, fid, reason, trace_index, store):
        self.fid = fid
        self.reason = reason
        #: Pre-trace length right after the marker.
        self.trace_index = trace_index
        self.store = store
        #: False when a crash plan (``repro.analysis.plans``) proved
        #: this point equivalent to a kept one — the post-failure
        #: stage skips it.
        self.planned = True

    @property
    def images(self):
        """The full crash images, materialized from the delta store."""
        return self.store.materialize(self.fid)

    def __repr__(self):
        return (
            f"FailurePoint(fid={self.fid}, reason={self.reason!r}, "
            f"trace_index={self.trace_index})"
        )


class FailureInjector:
    """Ordering-point listener + trace observer for the pre-failure run."""

    def __init__(self, config, telemetry=None, snapshot_store=None):
        self.config = config
        #: Optional ``repro.obs.Telemetry``: counts injected failure
        #: points and times pool snapshots.
        self.telemetry = telemetry
        #: Delta snapshot store shared by every failure point of this
        #: run (workers restore crash images from it on demand).  Its
        #: fingerprints let the frontend bucket failure points into
        #: crash-state classes without materializing any pool.
        self.store = (
            snapshot_store if snapshot_store is not None
            else SnapshotStore()
        )
        self._hashed_bytes_seen = 0
        self.failure_points = []
        #: Seconds spent copying PM images.  Copying the image is part
        #: of spawning the post-failure execution (Figure 8a step 3),
        #: so the frontend attributes this to the post-failure stage.
        self.snapshot_seconds = 0.0
        # True once a PM data operation happened since the last failure
        # point; the first ordering point after startup only fires if
        # data was actually touched.
        self._ops_pending = False

    def seal(self):
        """End the injection window: freeze the snapshot store.

        Called by the frontend once crash plans are built, right
        before the post-failure fan-out.  From here on the store may
        be published to ``multiprocessing.shared_memory`` — workers
        then hold raw byte offsets into the published payload, so any
        late capture would be a silent divergence; freezing turns it
        into a loud ``DetectorError`` instead.
        """
        if hasattr(self.store, "freeze"):
            self.store.freeze()

    def apply_crash_plan(self, plan_set):
        """Mark failure points a ``CrashPlanSet`` proved skippable.

        Returns how many points were unplanned.  Injection already
        happened (plans are built from the completed pre-failure
        trace), so this only flips ``FailurePoint.planned`` — the
        snapshots stay available for the kept points' replays."""
        if plan_set is None:
            return 0
        skipped = 0
        for failure_point in self.failure_points:
            if not plan_set.executes(failure_point.fid):
                failure_point.planned = False
                skipped += 1
        return skipped

    # -- trace observer ------------------------------------------------

    def on_op(self, kind_code, addr, size, info, ip, tid):
        """Note a pending PM data operation; see
        ``PersistentMemory.add_observer``."""
        if kind_code in PM_DATA_CODES:
            self._ops_pending = True

    # -- ordering listener ----------------------------------------------

    def before_ordering_point(self, memory, reason, force=False):
        if not self.config.inject_failures:
            return
        if memory.detection_complete or not memory.roi_active:
            return
        if memory.skip_failure_depth > 0 and not force:
            return
        if (
            self.config.skip_empty_failure_points
            and not self._ops_pending
            and not force
        ):
            return
        limit = self.config.max_failure_points
        if limit is not None and len(self.failure_points) >= limit:
            return
        fid = len(self.failure_points)
        memory.emit_marker(EventKind.FAILURE_POINT, info=str(fid))
        started = time.perf_counter()
        memory.snapshot_delta(self.store)
        elapsed = time.perf_counter() - started
        self.snapshot_seconds += elapsed
        if self.telemetry is not None:
            metrics = self.telemetry.metrics
            metrics.inc("failure_points_injected")
            metrics.timer("snapshot_seconds").observe(elapsed)
            metrics.gauge("snapshot_bytes_recorded").set(
                self.store.recorded_bytes
            )
            metrics.gauge("snapshot_bytes_saved").set(
                self.store.bytes_saved
            )
            hashed = self.store.hashed_bytes
            if hashed > self._hashed_bytes_seen:
                metrics.inc(
                    "dedup_bytes_hashed",
                    hashed - self._hashed_bytes_seen,
                )
                self._hashed_bytes_seen = hashed
        self.failure_points.append(
            FailurePoint(
                fid=fid,
                reason=reason,
                trace_index=len(memory.recorder),
                store=self.store,
            )
        )
        emit = getattr(self.telemetry, "emit", None)
        if emit is not None:
            emit("point_injected", fid=fid, reason=reason)
        self._ops_pending = False
