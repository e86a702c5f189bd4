"""Delta pool snapshots (repro.pm.snapshot)."""

import pickle

from repro.pm.cacheline import FenceKind, FlushKind
from repro.pm.memory import PersistentMemory
from repro.pm.pool import PMPool
from repro.pm.snapshot import SnapshotStore
from repro.trace.recorder import NullRecorder

POOL_SIZE = 4096


def _memory(size=POOL_SIZE):
    memory = PersistentMemory(NullRecorder(), capture_ips=False)
    memory.map_pool(PMPool("pool", size))
    return memory


def _images_equal(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.pool_name == b.pool_name
        assert a.base == b.base
        assert a.data == b.data
        assert a.persisted_data == b.persisted_data
        assert a.volatile_lines == b.volatile_lines


class TestSnapshotStore:
    def _run_and_capture(self, memory, store, steps):
        """Apply each step then capture; returns the reference full
        images taken right before each delta capture."""
        references = []
        base = memory.pools[0].base
        for step in steps:
            step(memory, base)
            references.append(memory.snapshot_images())
            memory.snapshot_delta(store)
        return references

    def _steps(self):
        return [
            lambda m, b: m.store(b, b"A" * 8),
            lambda m, b: (m.flush(b, 8), m.fence(FenceKind.SFENCE)),
            lambda m, b: m.store(b + 256, b"B" * 16),
            lambda m, b: (
                m.store(b + 64, b"C" * 8),
                m.flush(b + 64, 8, FlushKind.CLFLUSH),
            ),
            lambda m, b: m.nt_store(b + 1024, b"D" * 8),
        ]

    def test_materialize_matches_full_snapshots(self):
        memory = _memory()
        store = SnapshotStore()
        references = self._run_and_capture(memory, store, self._steps())
        for fid, reference in enumerate(references):
            _images_equal(store.materialize(fid), reference)

    def test_backwards_then_forwards_materialization(self):
        memory = _memory()
        store = SnapshotStore()
        references = self._run_and_capture(memory, store, self._steps())
        # Jump to the last snapshot, then back to the first, then to a
        # middle one: the cursor must rebuild correctly every time.
        for fid in (len(references) - 1, 0, 2, 2, 1):
            _images_equal(store.materialize(fid), references[fid])

    def test_delta_saves_bytes_vs_full_copies(self):
        memory = _memory()
        store = SnapshotStore()
        self._run_and_capture(memory, store, self._steps())
        # One full base image + per-line patches afterwards.
        assert store.full_equivalent_bytes == 2 * POOL_SIZE * 5
        assert store.recorded_bytes < store.full_equivalent_bytes
        assert store.bytes_saved > 0
        assert (
            store.bytes_saved
            == store.full_equivalent_bytes - store.recorded_bytes
        )

    def test_untouched_interval_records_no_line_bytes(self):
        memory = _memory()
        store = SnapshotStore()
        memory.store(memory.pools[0].base, b"A" * 8)
        memory.snapshot_delta(store)
        before = store.recorded_bytes
        # No PM activity between captures: the delta is empty.
        memory.snapshot_delta(store)
        assert store.recorded_bytes == before
        _images_equal(store.materialize(1), store.materialize(0))

    def test_pool_mapped_mid_run_gets_full_base(self):
        memory = _memory()
        store = SnapshotStore()
        memory.store(memory.pools[0].base, b"A" * 8)
        memory.snapshot_delta(store)
        second = PMPool(
            "late", 1024, memory.pools[0].end + 4096
        )
        memory.map_pool(second)
        memory.store(second.base, b"Z" * 4)
        reference = memory.snapshot_images()
        memory.snapshot_delta(store)
        _images_equal(store.materialize(1), reference)

    def test_volatile_bits_matches_materialized_images(self):
        memory = _memory()
        store = SnapshotStore()
        base = memory.pools[0].base
        memory.store(base, b"A" * 8)          # modified line
        memory.store(base + 128, b"B" * 8)    # another modified line
        memory.snapshot_delta(store)
        images = store.materialize(0)
        assert store.volatile_bits(0) == sum(
            len(image.volatile_lines) for image in images
        )
        assert store.volatile_bits(0) == 2

    def test_variant_bytes_parity_after_materialization(self):
        memory = _memory()
        store = SnapshotStore()
        base = memory.pools[0].base
        memory.store(base, b"A" * 8)
        memory.flush(base, 8)
        memory.fence()
        memory.store(base + 64, b"B" * 8)
        reference = memory.snapshot_images()
        memory.snapshot_delta(store)
        for mask in (0, 1):
            assert (
                store.materialize(0)[0].variant_bytes(mask)
                == reference[0].variant_bytes(mask)
            )

    def test_pickle_roundtrip(self):
        memory = _memory()
        store = SnapshotStore()
        references = self._run_and_capture(memory, store, self._steps())
        clone = pickle.loads(pickle.dumps(store))
        assert clone.recorded_bytes == store.recorded_bytes
        assert clone.bytes_saved == store.bytes_saved
        for fid, reference in enumerate(references):
            _images_equal(clone.materialize(fid), reference)

    def test_materialize_out_of_range(self):
        store = SnapshotStore()
        try:
            store.materialize(0)
        except IndexError:
            pass
        else:
            raise AssertionError("expected IndexError")
