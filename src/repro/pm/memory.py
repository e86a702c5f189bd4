"""The PM runtime: pools + cache model + tracing + injection hooks.

:class:`PersistentMemory` is the single interface through which workload
and library code touches persistent memory.  Every operation

* updates the program-view bytes of the owning pool,
* advances the per-line persistence state machine, and
* emits a trace event to the attached recorder and observers.

The failure injector registers itself as an *ordering listener*: it is
called immediately **before** a fence that would complete at least one
writeback (i.e. before each ordering point, paper Section 4.2), which is
exactly where failure points belong, and before hinted library-level
ordering points.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from repro._location import capture_location
from repro.errors import PMAddressError
from repro.pm.address import AddressRange
from repro.pm.cacheline import CacheModel, FenceKind, FlushKind
from repro.pm.constants import MAX_ACCESS_SIZE
from repro.pm.image import capture_image
from repro.trace.events import KIND_CODE, EventKind
from repro.trace.recorder import TraceRecorder

_STORE_CODE = KIND_CODE[EventKind.STORE]
_NT_STORE_CODE = KIND_CODE[EventKind.NT_STORE]
_LOAD_CODE = KIND_CODE[EventKind.LOAD]
_FLUSH_CODE = KIND_CODE[EventKind.FLUSH]
_FENCE_CODE = KIND_CODE[EventKind.FENCE]


class _ThreadState(threading.local):
    """Per-thread annotation depths (thread-local storage, Section 7)."""

    def __init__(self):
        self.skip_failure_depth = 0
        self.skip_detection_depth = 0
        #: Cached small thread index (``current_tid`` fills it in).
        self.tid = None


class PersistentMemory:
    """Simulated persistent memory with tracing.

    Parameters
    ----------
    recorder:
        Destination for trace events; a fresh "pre"-stage recorder is
        created when omitted.
    capture_ips:
        When True (default), each event captures the source location of
        the responsible workload frame.  Disable for the "original
        program" baseline timing runs.
    """

    def __init__(self, recorder=None, capture_ips=True,
                 platform=None):
        from repro.pm.cacheline import PlatformMode

        self.recorder = recorder if recorder is not None else TraceRecorder()
        self.capture_ips = capture_ips
        self.platform = (
            platform if platform is not None else PlatformMode.ADR
        )
        # The frontend is thread-safe (paper Section 7): one reentrant
        # lock makes each PM operation (data + cache state + trace
        # event + injector snapshot) atomic with respect to other
        # threads.  Multithreaded workloads run independent tasks, as
        # in the paper's evaluation.
        self._lock = threading.RLock()
        self._pools = []
        self._last_pool = None
        self._cache = CacheModel(self._read_line_raw)
        self._ordering_listeners = []
        self._observers = []
        # Annotation state consulted by the failure injector and set by
        # the Table 2 interface and by library internals.  Failure
        # points are only injected while roi_active is true, the
        # calling thread's skip_failure_depth is zero, and detection
        # has not been completed.  The skip depths live in thread-local
        # storage, like the original frontend's (paper Section 7): one
        # thread inside library internals must not suppress another
        # thread's failure points.
        self._tls = _ThreadState()
        self._thread_ids = {}
        self.roi_active = False
        self.detection_complete = False
        # Cooperative execution budget (repro.resilience.Deadline) or
        # None.  Ticked on every traced operation: any loop that makes
        # progress on PM — which a recovery traversal must — hits the
        # budget, turning a livelock into a typed DeadlineExceeded.
        self.deadline = None
        self._cache.platform = self.platform

    # ------------------------------------------------------------------
    # Per-thread annotation state
    # ------------------------------------------------------------------

    @property
    def skip_failure_depth(self):
        return self._tls.skip_failure_depth

    @skip_failure_depth.setter
    def skip_failure_depth(self, value):
        self._tls.skip_failure_depth = value

    @property
    def skip_detection_depth(self):
        return self._tls.skip_detection_depth

    @skip_detection_depth.setter
    def skip_detection_depth(self, value):
        self._tls.skip_detection_depth = value

    def current_tid(self):
        """Small stable index of the calling thread (0 = first/main)."""
        tid = self._tls.tid
        if tid is None:
            with self._lock:
                tid = self._thread_ids.setdefault(
                    threading.get_ident(), len(self._thread_ids)
                )
            self._tls.tid = tid
        return tid

    # ------------------------------------------------------------------
    # Pool management
    # ------------------------------------------------------------------

    def map_pool(self, pool):
        """Map a pool into the PM address space."""
        for existing in self._pools:
            if (pool.base < existing.end and existing.base < pool.end):
                raise PMAddressError(
                    pool.base, pool.size,
                    f"overlaps pool '{existing.name}'",
                )
        self._pools.append(pool)
        return pool

    def pool_named(self, name):
        for pool in self._pools:
            if pool.name == name:
                return pool
        raise KeyError(f"no pool named {name!r}")

    def pool_at(self, address, size=1):
        # Most workloads touch one pool; remember the last hit so the
        # per-op lookup is one ``contains`` check instead of a scan.
        pool = self._last_pool
        if pool is not None and pool.contains(address, size):
            return pool
        for pool in self._pools:
            if pool.contains(address, size):
                self._last_pool = pool
                return pool
        raise PMAddressError(address, size, "address not in any mapped pool")

    @property
    def pools(self):
        return tuple(self._pools)

    @property
    def cache(self):
        return self._cache

    def _read_line_raw(self, line_base):
        from repro.pm.constants import CACHE_LINE_SIZE

        pool = self.pool_at(line_base)
        end = min(line_base + CACHE_LINE_SIZE, pool.end)
        data = pool.read(line_base, end - line_base)
        if len(data) < CACHE_LINE_SIZE:
            data = data + bytes(CACHE_LINE_SIZE - len(data))
        return data

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    def add_ordering_listener(self, listener):
        """``listener.before_ordering_point(memory, reason)`` is invoked
        immediately before each ordering point takes effect."""
        self._ordering_listeners.append(listener)

    def add_observer(self, observer):
        """Observers see every emitted trace operation through
        ``on_op(kind_code, addr, size, info, ip, tid)`` — bare scalars,
        the same columns the recorder appends; no event object is
        built."""
        self._observers.append(observer)

    def _emit_op(self, code, addr=0, size=0, info="", ip=None):
        """Emit one operation by integer kind code (the hot path).

        The location walk starts at our caller's caller: the direct
        caller (``load``/``store``/``_emit``/...) is always a runtime
        frame, so skipping it outright saves one walk step per op.
        """
        if self.deadline is not None:
            self.deadline.tick()
        if ip is None and self.capture_ips:
            ip = capture_location(skip=3)
        tid = self._tls.tid
        if tid is None:
            tid = self.current_tid()
        self.recorder.append_op(code, addr, size, info, ip, tid)
        for observer in self._observers:
            observer.on_op(code, addr, size, info, ip, tid)

    def _emit(self, kind, addr=0, size=0, info="", ip=None):
        self._emit_op(KIND_CODE[kind], addr, size, info, ip)

    def emit_marker(self, kind, addr=0, size=0, info=""):
        """Emit an annotation/marker event (used by the Table 2 API and
        the failure injector).  Held under the runtime lock: columnar
        appends span several arrays and must stay atomic with respect
        to other threads' data operations."""
        with self._lock:
            self._emit(kind, addr, size, info)

    def _notify_ordering_point(self, reason, force=False):
        for listener in self._ordering_listeners:
            listener.before_ordering_point(self, reason, force)

    def force_failure_point(self, reason="user-requested"):
        """The ``addFailurePoint`` annotation (Table 2): request a
        failure point here regardless of pending PM operations."""
        with self._lock:
            self._notify_ordering_point(reason, force=True)
            self._emit(EventKind.HINT_FAILURE_POINT, info=reason)

    # ------------------------------------------------------------------
    # Data operations
    # ------------------------------------------------------------------

    def _check_access(self, address, size):
        if size <= 0 or size > MAX_ACCESS_SIZE:
            raise PMAddressError(address, size, f"bad access size {size}")

    def store(self, address, data, ip=None):
        """Ordinary store of ``data`` (bytes) at ``address``.

        The bounds check, pool write, and event emit are inlined (see
        :meth:`load`): data operations dominate traced runs.
        """
        data = bytes(data)
        size = len(data)
        if size <= 0 or size > MAX_ACCESS_SIZE:
            raise PMAddressError(address, size, f"bad access size {size}")
        with self._lock:
            pool = self._last_pool
            if pool is None or not (
                pool.base <= address and address + size <= pool.end
            ):
                pool = self.pool_at(address, size)
            # Writes go through pool.write — TrackedPool overrides it
            # to record dirtied ranges for the crash-image memo.
            pool.write(address, data)
            self._cache.store(address, size)
            if self.deadline is not None:
                self.deadline.tick()
            if ip is None and self.capture_ips:
                ip = capture_location(skip=2)
            tid = self._tls.tid
            if tid is None:
                tid = self.current_tid()
            self.recorder.append_op(_STORE_CODE, address, size, "", ip,
                                    tid)
            for observer in self._observers:
                observer.on_op(_STORE_CODE, address, size, "", ip, tid)

    def nt_store(self, address, data, ip=None):
        """Non-temporal store: bypasses the cache, pending until fence."""
        data = bytes(data)
        size = len(data)
        if size <= 0 or size > MAX_ACCESS_SIZE:
            raise PMAddressError(address, size, f"bad access size {size}")
        with self._lock:
            pool = self._last_pool
            if pool is None or not (
                pool.base <= address and address + size <= pool.end
            ):
                pool = self.pool_at(address, size)
            pool.write(address, data)
            self._cache.nt_store(address, size)
            if self.deadline is not None:
                self.deadline.tick()
            if ip is None and self.capture_ips:
                ip = capture_location(skip=2)
            tid = self._tls.tid
            if tid is None:
                tid = self.current_tid()
            self.recorder.append_op(_NT_STORE_CODE, address, size, "",
                                    ip, tid)
            for observer in self._observers:
                observer.on_op(_NT_STORE_CODE, address, size, "", ip,
                               tid)

    def load(self, address, size, ip=None):
        """Load ``size`` bytes from ``address``.

        Loads are the single hottest traced operation (recovery code is
        read-heavy), so the pool lookup, the raw byte read, and the body
        of :meth:`_emit_op` are inlined: one locked block, no further
        Python calls on the happy path.  ``pool._data`` is touched
        directly — :class:`~repro.pm.pool.PMPool` is a dumb byte store
        owned by this module's subsystem, and the containment check
        above replaces ``pool.read``'s own.
        """
        if size <= 0 or size > MAX_ACCESS_SIZE:
            raise PMAddressError(address, size, f"bad access size {size}")
        with self._lock:
            pool = self._last_pool
            if pool is None or not (
                pool.base <= address and address + size <= pool.end
            ):
                pool = self.pool_at(address, size)
            offset = address - pool.base
            data = bytes(pool._data[offset:offset + size])
            if self.deadline is not None:
                self.deadline.tick()
            if ip is None and self.capture_ips:
                ip = capture_location(skip=2)
            tid = self._tls.tid
            if tid is None:
                tid = self.current_tid()
            self.recorder.append_op(_LOAD_CODE, address, size, "", ip,
                                    tid)
            for observer in self._observers:
                observer.on_op(_LOAD_CODE, address, size, "", ip, tid)
            return data

    def flush(self, address, size=1, kind=FlushKind.CLWB, ip=None):
        """Writeback every cache line covering ``[address, address+size)``.

        Emits one FLUSH event per line, as the hardware instruction
        operates per line.
        """
        self._check_access(address, size)
        self.pool_at(address, size)
        self._lock.acquire()
        try:
            self._flush_locked(address, size, kind, ip)
        finally:
            self._lock.release()

    def _flush_locked(self, address, size, kind, ip):
        if kind is FlushKind.CLFLUSH:
            # Synchronous flushes persist immediately; if any line held
            # modified data this acts as an ordering point of its own.
            would_persist = any(
                self._cache.state_of(line).value in ("M", "W")
                for line in AddressRange(address, size).lines()
            )
            if would_persist:
                self._notify_ordering_point(f"CLFLUSH@{address:#x}")
        for line in AddressRange(address, size).lines():
            self._cache.flush(line, kind)
            self._emit_op(_FLUSH_CODE, line, 64, info=kind.value, ip=ip)

    def fence(self, kind=FenceKind.SFENCE, ip=None):
        """Ordering fence; completes pending writebacks.

        Returns True when the fence completed at least one writeback,
        i.e. when it was an ordering point.
        """
        with self._lock:
            return self._fence_locked(kind, ip)

    def _fence_locked(self, kind, ip):
        is_ordering_point = self._cache.is_ordering_fence()
        if is_ordering_point:
            # Failure points are injected *before* the ordering point:
            # the listener snapshots PM in its pre-fence state.
            self._notify_ordering_point(f"{kind.value}")
        self._cache.fence(kind)
        self._emit_op(_FENCE_CODE, info=kind.value, ip=ip)
        return is_ordering_point

    @contextmanager
    def library_region(self, name):
        """Trusted library internals (paper Section 5.3): traced, but no
        failure points are injected inside and reads are not checked.
        Writes inside the region still update the shadow PM, which is
        how library recovery code repairs state during replay."""
        self.emit_marker(EventKind.LIB_BEGIN, info=name)
        self.skip_failure_depth += 1
        self.skip_detection_depth += 1
        try:
            yield self
        finally:
            self.skip_detection_depth -= 1
            self.skip_failure_depth -= 1
            self.emit_marker(EventKind.LIB_END, info=name)

    def hint_ordering_point(self, reason):
        """Library-level ordering point (paper Section 5.5: an explicit
        failure point for each library function containing ordering
        points).  Called by ``repro.pmdk`` before a library function's
        internals execute."""
        with self._lock:
            self._notify_ordering_point(reason)
            self._emit(EventKind.HINT_FAILURE_POINT, info=reason)

    # ------------------------------------------------------------------
    # Convenience accessors (typed loads/stores live in repro.pmdk)
    # ------------------------------------------------------------------

    def snapshot_images(self):
        """Capture a crash image of every mapped pool."""
        return [capture_image(pool, self._cache) for pool in self._pools]

    def snapshot_delta(self, store):
        """Record this runtime's crash-image state into a
        :class:`~repro.pm.snapshot.SnapshotStore` as a delta of the
        lines dirtied since the store's previous capture.  Full images
        are rebuilt on demand via ``store.materialize``; returns the
        new snapshot id."""
        with self._lock:
            return store.capture(self)

    def is_persisted(self, address, size=1):
        """True if every line covering the range is in PERSISTED state
        (or UNMODIFIED, i.e. nothing volatile outstanding)."""
        from repro.pm.cacheline import LineState

        for line in AddressRange(address, size).lines():
            state = self._cache.state_of(line)
            if state not in (LineState.PERSISTED, LineState.UNMODIFIED):
                return False
        return True
