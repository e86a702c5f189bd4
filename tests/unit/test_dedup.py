"""Crash-image fingerprints, dedup classes, and the image memo
(repro.dedup)."""

import pytest

from repro.core.shadow import ShadowCheckpointCache, ShadowPM
from repro.dedup import DedupIndex, ImageMemo, PoolFold
from repro.pm.constants import PMEM_MMAP_HINT
from repro.pm.image import CrashImageMode
from repro.pm.memory import PersistentMemory
from repro.pm.pool import PMPool
from repro.pm.snapshot import SnapshotStore
from repro.trace.recorder import NullRecorder

POOL_SIZE = 4096
BASE = PMEM_MMAP_HINT


def _memory(size=POOL_SIZE):
    memory = PersistentMemory(NullRecorder(), capture_ips=False)
    memory.map_pool(PMPool("pool", size, BASE))
    return memory


def _key(fid, variant=None, mask=None):
    return (fid, variant, mask)


class TestPoolFold:
    def test_equal_content_equal_fold(self):
        a, b = PoolFold(), PoolFold()
        a.reset_full(b"x" * 256, b"y" * 256)
        b.reset_full(b"x" * 256, b"y" * 256)
        assert a.record(()) == b.record(())

    def test_incremental_update_matches_fresh_fold(self):
        """Folding line-by-line from a base equals folding the final
        content directly (XOR out the old term, XOR in the new)."""
        base_data = bytearray(b"\x00" * 256)
        base_persist = bytearray(b"\x00" * 256)
        incremental = PoolFold()
        incremental.reset_full(bytes(base_data), bytes(base_persist))
        incremental.update_line(64, b"A" * 64, b"B" * 64)
        incremental.update_line(64, b"C" * 64, b"D" * 64)

        final_data = bytes(base_data)
        final_persist = bytes(base_persist)
        fresh = PoolFold()
        fresh.reset_full(final_data, final_persist)
        fresh.update_line(64, b"C" * 64, b"D" * 64)
        assert incremental.record(()) == fresh.record(())

    def test_data_and_persist_fold_independent(self):
        a, b = PoolFold(), PoolFold()
        a.reset_full(b"x" * 128, b"y" * 128)
        b.reset_full(b"x" * 128, b"z" * 128)
        a_rec, b_rec = a.record(()), b.record(())
        assert a_rec[0] == b_rec[0]  # same program view
        assert a_rec[1] != b_rec[1]  # different persisted view


class TestFingerprintClasses:
    def test_volatile_write_splits_classes_iff_image_differs(self):
        """A volatile (unflushed) store changes the as-written crash
        image, so the failure points land in different classes; a
        capture with nothing in between lands in the same class."""
        memory = _memory()
        store = SnapshotStore()
        memory.store(BASE, b"A" * 8)
        memory.flush(BASE, 8)
        memory.fence()
        memory.snapshot_delta(store)  # fid 0
        memory.store(BASE + 512, b"B" * 8)  # volatile: never flushed
        memory.snapshot_delta(store)  # fid 1: image differs
        memory.snapshot_delta(store)  # fid 2: image identical to 1
        keys = [_key(0), _key(1), _key(2)]
        index = DedupIndex.build(keys, store)
        assert index.class_of[_key(0)] != index.class_of[_key(1)]
        assert index.class_of[_key(1)] == index.class_of[_key(2)]
        assert index.deduped == 1
        assert index.rep_for(_key(2)) == _key(1)

    def test_same_bytes_after_volatile_write_same_class(self):
        """Rewriting a volatile line back to its previous content
        produces the same crash image — same class (the fold XORs the
        old term out and the identical term back in)."""
        memory = _memory()
        store = SnapshotStore()
        memory.snapshot_delta(store)  # fid 0: base image
        memory.store(BASE, b"A" * 8)
        memory.snapshot_delta(store)  # fid 1
        memory.store(BASE, b"Z" * 8)
        memory.snapshot_delta(store)  # fid 2
        memory.store(BASE, b"A" * 8)
        memory.snapshot_delta(store)  # fid 3: bytes back to fid 1's
        keys = [_key(1), _key(2), _key(3)]
        index = DedupIndex.build(keys, store)
        assert index.class_of[_key(1)] != index.class_of[_key(2)]
        assert index.class_of[_key(1)] == index.class_of[_key(3)]

    def test_variant_masks_always_split_classes(self):
        """Keys at the same failure point with different survivor
        masks never share a class, even though the fingerprint is
        identical."""
        memory = _memory()
        store = SnapshotStore()
        memory.store(BASE, b"A" * 8)
        memory.snapshot_delta(store)
        keys = [_key(0), _key(0, 0, 0), _key(0, 1, 1)]
        index = DedupIndex.build(keys, store)
        cids = [index.class_of[key] for key in keys]
        assert len(set(cids)) == 3

    def test_equal_masks_equal_images_share_class(self):
        memory = _memory()
        store = SnapshotStore()
        memory.store(BASE, b"A" * 8)
        memory.snapshot_delta(store)  # fid 0
        memory.snapshot_delta(store)  # fid 1 identical
        index = DedupIndex.build(
            [_key(0, 0, 1), _key(1, 0, 1)], store
        )
        assert index.dedup_classes == 1

    def test_fallback_keys_cover_orphaned_members(self):
        memory = _memory()
        store = SnapshotStore()
        memory.store(BASE, b"A" * 8)
        memory.snapshot_delta(store)
        memory.snapshot_delta(store)
        memory.snapshot_delta(store)
        keys = [_key(0), _key(1), _key(2)]
        index = DedupIndex.build(keys, store)
        assert index.rep_keys() == [_key(0)]
        # Representative completed: nothing to fall back on.
        assert index.fallback_keys({_key(0): object()}) == []
        # Representative quarantined: every member must run itself.
        assert index.fallback_keys({}) == [_key(1), _key(2)]

    def test_hashed_bytes_accounted(self):
        memory = _memory()
        store = SnapshotStore()
        memory.store(BASE, b"A" * 8)
        memory.snapshot_delta(store)
        assert store.hashed_bytes >= 2 * POOL_SIZE  # base images
        before = store.hashed_bytes
        memory.store(BASE + 64, b"B" * 8)
        memory.snapshot_delta(store)
        delta_hashed = store.hashed_bytes - before
        assert 0 < delta_hashed < POOL_SIZE  # only dirty lines


class TestImageMemo:
    def _snapshots(self):
        """A store with three failure points and some persisted and
        volatile writes between them."""
        memory = _memory()
        store = SnapshotStore()
        memory.store(BASE, b"A" * 8)
        memory.flush(BASE, 8)
        memory.fence()
        memory.snapshot_delta(store)
        memory.store(BASE + 128, b"B" * 16)  # volatile
        memory.snapshot_delta(store)
        memory.store(BASE + 128, b"C" * 16)
        memory.flush(BASE + 128, 16)
        memory.fence()
        memory.snapshot_delta(store)
        return store

    def test_working_buffer_matches_materialize(self):
        store = self._snapshots()
        memo = ImageMemo(store)
        for fid in range(len(store)):
            (pool,) = memo.task_pools(fid, None)
            (image,) = store.materialize(fid)
            assert pool.read(pool.base, pool.size) == image.data

    def test_task_writes_are_restored_before_next_task(self):
        store = self._snapshots()
        memo = ImageMemo(store)
        (pool,) = memo.task_pools(0, None)
        pool.write(pool.base + 1024, b"task scribble")
        (pool,) = memo.task_pools(1, None)
        (image,) = store.materialize(1)
        assert pool.read(pool.base, pool.size) == image.data

    def test_variant_overlay_matches_variant_bytes(self):
        store = self._snapshots()
        memo = ImageMemo(store)
        fid = 1  # has a volatile line
        (image,) = store.materialize(fid)
        assert image.volatile_lines
        bits = len(image.volatile_lines)
        for mask in range(1 << bits):
            (pool,) = memo.task_pools(fid, mask)
            assert (
                pool.read(pool.base, pool.size)
                == image.variant_bytes(mask)
            ), f"mask {mask:#b}"
        # Mask 0 is how a persisted-only run restores its image.
        (pool,) = memo.task_pools(fid, 0)
        assert pool.read(pool.base, pool.size) == image.persisted_data
        assert image.persisted_data != image.data

    def test_backwards_fid_rebuilds(self):
        store = self._snapshots()
        memo = ImageMemo(store)
        memo.task_pools(2, None)
        (pool,) = memo.task_pools(0, None)
        (image,) = store.materialize(0)
        assert pool.read(pool.base, pool.size) == image.data

    def test_memo_matches_legacy_as_written_path(self):
        store = self._snapshots()
        memo = ImageMemo(store)
        for fid in range(len(store)):
            (pool,) = memo.task_pools(fid, None)
            (image,) = store.materialize(fid)
            assert (
                pool.read(pool.base, pool.size)
                == image.bytes_for(CrashImageMode.AS_WRITTEN)
            )


class TestShadowCheckpointCache:
    def test_capture_and_lookup(self):
        shadow = ShadowPM()
        cache = ShadowCheckpointCache()
        cache.capture(0, shadow)
        assert 0 in cache
        assert len(cache) == 1
        assert cache[0] is not shadow  # a checkpoint copy

    def test_missing_without_rebuild_raises(self):
        cache = ShadowCheckpointCache()
        with pytest.raises(KeyError):
            cache[7]


class TestRegionDigest:
    def _shadow_with_store(self, persisted):
        shadow = ShadowPM()
        shadow.record_store(BASE, 8, None, "pre")
        if persisted:
            shadow.record_flush(BASE)
            shadow.record_fence()
        return shadow

    def test_identical_histories_equal_digest(self):
        ranges = ((BASE, BASE + 8),)
        a = self._shadow_with_store(persisted=True)
        b = self._shadow_with_store(persisted=True)
        assert a.region_digest(ranges) == b.region_digest(ranges)

    def test_persistence_state_changes_digest(self):
        ranges = ((BASE, BASE + 8),)
        a = self._shadow_with_store(persisted=True)
        b = self._shadow_with_store(persisted=False)
        assert a.region_digest(ranges) != b.region_digest(ranges)

    def test_digest_scoped_to_ranges(self):
        """State outside the digested ranges does not affect it."""
        a = self._shadow_with_store(persisted=True)
        b = self._shadow_with_store(persisted=True)
        b.record_store(BASE + 4096, 8, None, "pre")
        ranges = ((BASE, BASE + 8),)
        assert a.region_digest(ranges) == b.region_digest(ranges)

    def test_commit_variable_in_range_changes_digest(self):
        a = self._shadow_with_store(persisted=True)
        b = self._shadow_with_store(persisted=True)
        b.register_commit_var("valid", BASE, 8)
        ranges = ((BASE, BASE + 8),)
        assert a.region_digest(ranges) != b.region_digest(ranges)
