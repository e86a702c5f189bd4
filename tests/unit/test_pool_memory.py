"""Tests for PMPool and the PersistentMemory runtime."""

import pytest

from repro.errors import PMAddressError
from repro.pm.cacheline import FenceKind, FlushKind, LineState
from repro.pm.constants import PMEM_MMAP_HINT
from repro.pm.image import CrashImageMode
from repro.pm.memory import PersistentMemory
from repro.pm.pool import PMPool
from repro.trace.events import KIND_CODE, EventKind
from repro.trace.recorder import TraceRecorder


BASE = PMEM_MMAP_HINT


class TestPMPool:
    def test_new_pool_is_zeroed(self):
        pool = PMPool("p", size=4096)
        assert pool.read(BASE, 16) == bytes(16)

    def test_read_write_roundtrip(self):
        pool = PMPool("p", size=4096)
        pool.write(BASE + 100, b"hello")
        assert pool.read(BASE + 100, 5) == b"hello"

    def test_out_of_bounds_rejected(self):
        pool = PMPool("p", size=4096)
        with pytest.raises(PMAddressError):
            pool.read(BASE + 4096, 1)
        with pytest.raises(PMAddressError):
            pool.write(BASE - 1, b"x")
        with pytest.raises(PMAddressError):
            pool.read(BASE + 4090, 10)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            PMPool("p", size=0)
        with pytest.raises(ValueError):
            PMPool("p", size=16, data=b"short")

    def test_clone_is_independent(self):
        pool = PMPool("p", size=4096)
        pool.write(BASE, b"abc")
        dup = pool.clone()
        dup.write(BASE, b"xyz")
        assert pool.read(BASE, 3) == b"abc"
        assert dup.read(BASE, 3) == b"xyz"

    def test_load_bytes_validates_length(self):
        pool = PMPool("p", size=16)
        with pytest.raises(ValueError):
            pool.load_bytes(b"too short")


class TestMemoryMapping:
    def test_overlapping_pools_rejected(self, memory, pool):
        with pytest.raises(PMAddressError):
            memory.map_pool(PMPool("other", size=4096, base=pool.base))

    def test_pool_lookup(self, memory, pool):
        assert memory.pool_at(pool.base) is pool
        assert memory.pool_named("test") is pool
        with pytest.raises(KeyError):
            memory.pool_named("missing")
        with pytest.raises(PMAddressError):
            memory.pool_at(pool.end + 10)


class TestTracedOperations:
    def test_store_traces_and_updates_state(self, memory, pool):
        memory.store(pool.base, b"\x01\x02")
        assert pool.read(pool.base, 2) == b"\x01\x02"
        assert memory.cache.state_of(pool.base) is LineState.MODIFIED
        events = memory.recorder.events
        assert events[-1].kind is EventKind.STORE
        assert events[-1].addr == pool.base
        assert events[-1].size == 2

    def test_load_traces(self, memory, pool):
        memory.store(pool.base, b"zz")
        data = memory.load(pool.base, 2)
        assert data == b"zz"
        assert memory.recorder.events[-1].kind is EventKind.LOAD

    def test_flush_emits_one_event_per_line(self, memory, pool):
        memory.store(pool.base, bytes(130))
        memory.flush(pool.base, 130)
        flushes = [
            e for e in memory.recorder.events
            if e.kind is EventKind.FLUSH
        ]
        assert len(flushes) == 3  # 130 bytes -> 3 cache lines

    def test_fence_returns_ordering_point_flag(self, memory, pool):
        assert memory.fence() is False
        memory.store(pool.base, b"x")
        memory.flush(pool.base, 1)
        assert memory.fence() is True
        assert memory.fence() is False

    def test_is_persisted(self, memory, pool):
        memory.store(pool.base, b"abc")
        assert not memory.is_persisted(pool.base, 3)
        memory.flush(pool.base, 3)
        assert not memory.is_persisted(pool.base, 3)
        memory.fence()
        assert memory.is_persisted(pool.base, 3)

    def test_nt_store_persists_on_drain(self, memory, pool):
        memory.nt_store(pool.base, b"nt")
        assert not memory.is_persisted(pool.base, 2)
        memory.fence(FenceKind.DRAIN)
        assert memory.is_persisted(pool.base, 2)

    def test_clflush_notifies_ordering_listener(self, memory, pool):
        seen = []

        class Listener:
            def before_ordering_point(self, mem, reason, force=False):
                seen.append(reason)

        memory.add_ordering_listener(Listener())
        memory.store(pool.base, b"x")
        memory.flush(pool.base, 1, FlushKind.CLFLUSH)
        assert any("CLFLUSH" in reason for reason in seen)

    def test_fence_notifies_listener_before_effect(self, memory, pool):
        states = []

        class Listener:
            def before_ordering_point(self, mem, reason, force=False):
                states.append(mem.is_persisted(pool.base, 1))

        memory.add_ordering_listener(Listener())
        memory.store(pool.base, b"x")
        memory.flush(pool.base, 1)
        memory.fence()
        # The listener observed the pre-fence (non-persisted) state:
        # failure points snapshot PM *before* the ordering point.
        assert states == [False]

    def test_observers_see_all_events(self, memory, pool):
        seen = []

        class Observer:
            def on_op(self, kind_code, addr, size, info, ip, tid):
                seen.append((kind_code, addr, size))

        memory.add_observer(Observer())
        memory.store(pool.base, b"x")
        memory.load(pool.base, 1)
        memory.fence()
        assert seen == [
            (KIND_CODE[EventKind.STORE], pool.base, 1),
            (KIND_CODE[EventKind.LOAD], pool.base, 1),
            (KIND_CODE[EventKind.FENCE], 0, 0),
        ]

    def test_bad_access_sizes_rejected(self, memory, pool):
        with pytest.raises(PMAddressError):
            memory.load(pool.base, 0)
        with pytest.raises(PMAddressError):
            memory.store(pool.base, b"")


class TestLibraryRegions:
    def test_library_region_markers_and_depths(self, memory, pool):
        with memory.library_region("fn"):
            assert memory.skip_failure_depth == 1
            assert memory.skip_detection_depth == 1
            memory.store(pool.base, b"x")
        assert memory.skip_failure_depth == 0
        kinds = [e.kind for e in memory.recorder.events]
        assert kinds == [
            EventKind.LIB_BEGIN, EventKind.STORE, EventKind.LIB_END,
        ]

    def test_library_region_restores_depth_on_exception(self, memory):
        with pytest.raises(RuntimeError):
            with memory.library_region("fn"):
                raise RuntimeError("boom")
        assert memory.skip_failure_depth == 0
        assert memory.skip_detection_depth == 0


class TestSnapshots:
    def test_snapshot_images_both_modes(self, memory, pool):
        # Persist "AA", then overwrite with "BB" without flushing.
        memory.store(pool.base, b"AA")
        memory.flush(pool.base, 2)
        memory.fence()
        memory.store(pool.base, b"BB")
        image = memory.snapshot_images()[0]
        as_written = image.bytes_for(CrashImageMode.AS_WRITTEN)
        strict = image.bytes_for(CrashImageMode.PERSISTED_ONLY)
        assert as_written[:2] == b"BB"
        assert strict[:2] == b"AA"

    def test_capture_ips_disabled(self, pool):
        memory = PersistentMemory(TraceRecorder(), capture_ips=False)
        memory.map_pool(PMPool("p2", size=4096, base=pool.end + 4096))
        memory.store(pool.end + 4096, b"x")
        from repro._location import UNKNOWN_LOCATION

        assert memory.recorder.events[-1].ip is UNKNOWN_LOCATION
