"""Shared-memory snapshot publication (repro.exec.shm).

Round trip: a store published into a segment and re-attached must be
indistinguishable from the original for everything the post-failure
stage reads — materialized images, volatile bits, and the memo's
cursor walk.  Lifecycle: every created segment must be unlinked by
``plane.close()`` (the integration suite covers quarantine and chaos
death; this file covers the mechanics).
"""

import pickle

import pytest

from repro.dedup.memo import ImageMemo
from repro.errors import DetectorError
from repro.exec.shm import ShmSnapshotPlane, ShmStoreView, live_segments
from repro.pm.image import PMImage
from repro.pm.memory import PersistentMemory
from repro.pm.snapshot import PoolDelta, SnapshotStore


def _make_store():
    """A two-pool store with a full-image snapshot followed by two
    line-delta snapshots — the shapes the pre-failure stage records."""
    store = SnapshotStore()
    store._snapshots.append([
        PoolDelta("heap", 0x1000, 256,
                  full=PMImage("heap", 0x1000, b"A" * 256, b"a" * 256,
                               volatile_lines=(0, 64)),
                  volatile_lines=(0, 64)),
        PoolDelta("log", 0x4000, 128,
                  full=PMImage("log", 0x4000, b"B" * 128, b"b" * 128)),
    ])
    store._known_pools.update(("heap", "log"))
    store._records.append(None)
    store._snapshots.append([
        PoolDelta("heap", 0x1000, 256,
                  lines=[(64, b"X" * 64, b"x" * 64)],
                  volatile_lines=(64,)),
        PoolDelta("log", 0x4000, 128,
                  lines=[(0, b"Y" * 64, b"y" * 64)]),
    ])
    store._records.append(None)
    store._snapshots.append([
        PoolDelta("heap", 0x1000, 256,
                  lines=[(0, b"Z" * 64, b"z" * 64),
                         (192, b"W" * 64, b"w" * 64)],
                  volatile_lines=(0, 192)),
        PoolDelta("log", 0x4000, 128, lines=[]),
    ])
    store._records.append(None)
    # The hand-appended deltas bypass capture(); keep the accounting
    # consistent so the attached mirror can reproduce it.
    for deltas in store._snapshots:
        for delta in deltas:
            store.recorded_bytes += delta.recorded_bytes
            store.full_equivalent_bytes += 2 * delta.size
    return store


@pytest.fixture
def plane():
    plane = ShmSnapshotPlane()
    yield plane
    plane.close()


def _images_by_pool(store, fid):
    return {
        image.pool_name: image for image in store.materialize(fid)
    }


class TestRoundTrip:
    def test_materialize_matches_across_all_fids(self, plane):
        store = _make_store()
        attached = plane.publish(store).attach()
        for fid in range(len(store)):
            source = _images_by_pool(store, fid)
            mirror = _images_by_pool(attached, fid)
            assert source.keys() == mirror.keys()
            for name, image in source.items():
                assert mirror[name].data == image.data
                assert mirror[name].persisted_data == \
                    image.persisted_data
                assert mirror[name].volatile_lines == \
                    image.volatile_lines
                assert mirror[name].base == image.base

    def test_backwards_walk_rebuilds_from_base(self, plane):
        store = _make_store()
        attached = plane.publish(store).attach()
        last = _images_by_pool(attached, 2)["heap"].data
        first = _images_by_pool(attached, 0)["heap"].data
        assert first == b"A" * 256
        assert last != first

    def test_volatile_bits_match(self, plane):
        store = _make_store()
        attached = plane.publish(store).attach()
        for fid in range(len(store)):
            assert attached.volatile_bits(fid) == \
                store.volatile_bits(fid)

    def test_memo_cursor_walks_the_attached_store(self, plane):
        store = _make_store()
        attached = plane.publish(store).attach()
        source_memo = ImageMemo(store)
        mirror_memo = ImageMemo(attached)
        for fid in (0, 1, 2, 1):
            source = {
                p.name: bytes(p._data)
                for p in source_memo.task_pools(fid, None)
            }
            mirror = {
                p.name: bytes(p._data)
                for p in mirror_memo.task_pools(fid, None)
            }
            assert mirror == source

    def test_accounting_mirrors_the_source(self, plane):
        store = _make_store()
        attached = plane.publish(store).attach()
        assert len(attached) == len(store)
        assert attached.recorded_bytes == store.recorded_bytes
        assert attached.frozen

    def test_view_is_tiny_and_picklable(self, plane):
        store = _make_store()
        view = plane.publish(store)
        blob = pickle.dumps(view)
        assert len(blob) < 200
        clone = pickle.loads(blob)
        assert isinstance(clone, ShmStoreView)
        assert clone.name == view.name
        assert clone.nbytes == view.nbytes


class TestLifecycle:
    def test_publish_registers_and_close_unlinks(self):
        plane = ShmSnapshotPlane()
        view = plane.publish(_make_store())
        assert view.name in live_segments()
        plane.close()
        assert view.name not in live_segments()

    def test_publish_is_cached_by_store_identity(self, plane):
        store = _make_store()
        first = plane.publish(store)
        second = plane.publish(store)
        assert second is first
        assert len(live_segments()) == 1
        other = plane.publish(_make_store())
        assert other.name != first.name

    def test_bytes_shared_accumulates(self, plane):
        assert plane.bytes_shared == 0
        view = plane.publish(_make_store())
        assert plane.bytes_shared == view.nbytes > 0

    def test_close_is_idempotent(self):
        plane = ShmSnapshotPlane()
        plane.publish(_make_store())
        plane.close()
        plane.close()
        assert live_segments() == []

    def test_publish_freezes_the_source(self, plane):
        store = _make_store()
        plane.publish(store)
        assert store.frozen
        with pytest.raises(DetectorError):
            store.capture(PersistentMemory())


class TestFreeze:
    def test_freeze_refuses_capture(self):
        store = _make_store()
        store.freeze()
        with pytest.raises(DetectorError):
            store.capture(PersistentMemory())

    def test_unpickled_store_is_frozen(self):
        store = _make_store()
        clone = pickle.loads(pickle.dumps(store))
        assert clone.frozen

    def test_materialize_still_works_after_freeze(self):
        store = _make_store()
        reference = _images_by_pool(store, 1)["heap"].data
        store.freeze()
        assert _images_by_pool(store, 1)["heap"].data == reference
