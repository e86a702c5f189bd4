"""Tests for the Figure 9 cache-line persistence state machine."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pm.cacheline import (
    CacheModel,
    FenceKind,
    FlushKind,
    LineState,
    PlatformMode,
)
from repro.pm.constants import CACHE_LINE_SIZE
from repro.pm.image import volatile_lines_for
from tests.unit.cacheline_ref import (
    FullScanCacheModel,
    full_scan_volatile_lines_for,
)


def make_model(backing=None):
    backing = backing if backing is not None else {}

    def read_line(base):
        return backing.get(base, bytes(CACHE_LINE_SIZE))

    return CacheModel(read_line), backing


class TestFigure9Transitions:
    def test_initial_state_unmodified(self):
        model, _ = make_model()
        assert model.state_of(0) is LineState.UNMODIFIED

    def test_store_makes_modified(self):
        model, _ = make_model()
        model.store(10, 4)
        assert model.state_of(10) is LineState.MODIFIED
        assert model.state_of(0) is LineState.MODIFIED  # same line

    def test_store_spanning_lines_marks_both(self):
        model, _ = make_model()
        model.store(60, 10)
        assert model.state_of(0) is LineState.MODIFIED
        assert model.state_of(64) is LineState.MODIFIED
        assert model.state_of(128) is LineState.UNMODIFIED

    def test_clwb_moves_to_writeback_pending(self):
        model, _ = make_model()
        model.store(0, 8)
        assert model.flush(0, FlushKind.CLWB) is True
        assert model.state_of(0) is LineState.WRITEBACK_PENDING
        assert model.has_pending_writebacks()

    def test_fence_completes_writeback(self):
        model, backing = make_model()
        backing[0] = b"x" * CACHE_LINE_SIZE
        model.store(0, 8)
        model.flush(0)
        completed = model.fence()
        assert completed == [0]
        assert model.state_of(0) is LineState.PERSISTED
        assert model.persisted_line(0) == b"x" * CACHE_LINE_SIZE
        assert not model.has_pending_writebacks()

    def test_fence_without_pending_is_not_ordering_point(self):
        model, _ = make_model()
        assert model.fence() == []
        model.store(0, 8)
        assert model.fence() == []  # modified but not flushed

    def test_flush_unmodified_line_is_redundant(self):
        model, _ = make_model()
        assert model.flush(0) is False

    def test_flush_pending_line_is_redundant(self):
        model, _ = make_model()
        model.store(0, 8)
        model.flush(0)
        assert model.flush(0) is False  # Figure 9 yellow edge

    def test_flush_persisted_line_is_redundant(self):
        model, _ = make_model()
        model.store(0, 8)
        model.flush(0)
        model.fence()
        assert model.flush(0) is False

    def test_store_after_persist_remodifies(self):
        model, _ = make_model()
        model.store(0, 8)
        model.flush(0)
        model.fence()
        model.store(0, 8)
        assert model.state_of(0) is LineState.MODIFIED

    def test_clflush_is_synchronous(self):
        model, backing = make_model()
        backing[0] = b"y" * CACHE_LINE_SIZE
        model.store(0, 8)
        assert model.flush(0, FlushKind.CLFLUSH) is True
        assert model.state_of(0) is LineState.PERSISTED
        assert model.persisted_line(0) == b"y" * CACHE_LINE_SIZE

    def test_clflushopt_behaves_like_clwb(self):
        model, _ = make_model()
        model.store(0, 8)
        model.flush(0, FlushKind.CLFLUSHOPT)
        assert model.state_of(0) is LineState.WRITEBACK_PENDING

    def test_nt_store_is_immediately_pending(self):
        model, _ = make_model()
        model.nt_store(0, 8)
        assert model.state_of(0) is LineState.WRITEBACK_PENDING
        assert model.fence(FenceKind.DRAIN) == [0]
        assert model.state_of(0) is LineState.PERSISTED


class TestSnapshots:
    def test_snapshot_restore_roundtrip(self):
        model, _ = make_model()
        model.store(0, 8)
        model.flush(0)
        snap = model.snapshot()
        model.fence()
        assert model.state_of(0) is LineState.PERSISTED
        model.restore(snap)
        assert model.state_of(0) is LineState.WRITEBACK_PENDING
        assert model.has_pending_writebacks()

    def test_persisted_only_overlay_reverts_modified(self):
        model, backing = make_model()
        # Persist an initial value, then modify without flushing.
        backing[0] = b"A" * CACHE_LINE_SIZE
        model.store(0, 64)
        model.flush(0)
        model.fence()
        backing[0] = b"B" * CACHE_LINE_SIZE
        model.store(0, 64)
        overlay = model.persisted_only_overlay(
            0, CACHE_LINE_SIZE, backing[0]
        )
        assert overlay == b"A" * CACHE_LINE_SIZE

    def test_persisted_only_overlay_zero_fills_never_persisted(self):
        model, backing = make_model()
        backing[0] = b"C" * CACHE_LINE_SIZE
        model.store(0, 64)  # modified, never persisted
        overlay = model.persisted_only_overlay(
            0, CACHE_LINE_SIZE, backing[0]
        )
        assert overlay == bytes(CACHE_LINE_SIZE)

    def test_persisted_only_overlay_keeps_untouched_lines(self):
        model, _ = make_model()
        current = b"D" * CACHE_LINE_SIZE
        overlay = model.persisted_only_overlay(
            0, CACHE_LINE_SIZE, current
        )
        assert overlay == current


# ----------------------------------------------------------------------
# Property: for any operation sequence, line states follow Figure 9 and
# a fence is an ordering point iff some line was pending.
# ----------------------------------------------------------------------

_events = st.lists(
    st.tuples(
        st.sampled_from(["store", "nt", "clwb", "clflush", "fence"]),
        st.integers(0, 3),  # line index
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(_events)
def test_fsm_matches_reference_model(events):
    model, _ = make_model()
    reference = {}

    for op, line_idx in events:
        address = line_idx * CACHE_LINE_SIZE
        state = reference.get(line_idx, "U")
        if op == "store":
            model.store(address, 8)
            reference[line_idx] = "M"
        elif op == "nt":
            model.nt_store(address, 8)
            reference[line_idx] = "W"
        elif op == "clwb":
            useful = model.flush(address, FlushKind.CLWB)
            assert useful == (state == "M")
            if state == "M":
                reference[line_idx] = "W"
        elif op == "clflush":
            model.flush(address, FlushKind.CLFLUSH)
            if state in ("M", "W"):
                reference[line_idx] = "P"
        else:
            had_pending = any(v == "W" for v in reference.values())
            completed = model.fence()
            assert bool(completed) == had_pending
            for k, v in reference.items():
                if v == "W":
                    reference[k] = "P"
        for k, v in reference.items():
            assert model.state_of(k * CACHE_LINE_SIZE).value == v


# ----------------------------------------------------------------------
# Differential: the line-scoped fence, overlay and volatile-line queries
# against the full-scan versions in ``cacheline_ref``.
# ----------------------------------------------------------------------

_LINES = 12
_FLUSHES = {
    "clwb": FlushKind.CLWB,
    "clflushopt": FlushKind.CLFLUSHOPT,
    "clflush": FlushKind.CLFLUSH,
}


class _Pool:
    def __init__(self, base, size):
        self.base = base
        self.size = size
        self.end = base + size


@pytest.mark.parametrize("platform", list(PlatformMode))
@pytest.mark.parametrize("seed", range(20))
def test_scoped_queries_match_full_scan(platform, seed):
    rng = random.Random(seed)
    memory = bytearray(_LINES * CACHE_LINE_SIZE)

    def read_line(base):
        return memory[base:base + CACHE_LINE_SIZE]

    model = CacheModel(read_line, platform)
    reference = FullScanCacheModel(read_line, platform)
    pools = [
        _Pool(0, len(memory)),
        _Pool(2 * CACHE_LINE_SIZE, 5 * CACHE_LINE_SIZE),
        _Pool(9 * CACHE_LINE_SIZE, 3 * CACHE_LINE_SIZE),
    ]
    snaps = None
    for _step in range(300):
        op = rng.choice((
            "store", "store", "nt", "clwb", "clflushopt", "clflush",
            "fence", "fence", "snapshot", "restore",
        ))
        address = rng.randrange(len(memory))
        if op in ("store", "nt"):
            size = rng.randint(1, min(96, len(memory) - address))
            memory[address:address + size] = bytes(
                rng.randrange(256) for _ in range(size)
            )
            for cache in (model, reference):
                if op == "store":
                    cache.store(address, size)
                else:
                    cache.nt_store(address, size)
        elif op in _FLUSHES:
            kind = _FLUSHES[op]
            assert model.flush(address, kind) == \
                reference.flush(address, kind)
        elif op == "fence":
            assert model.is_ordering_fence() == \
                reference.is_ordering_fence()
            assert model.fence() == sorted(reference.fence())
        elif op == "snapshot":
            snaps = (model.snapshot(), reference.snapshot())
        elif snaps is not None:
            model.restore(snaps[0])
            reference.restore(snaps[1])
        assert model.line_states() == reference.line_states()
        assert model.has_pending_writebacks() == \
            reference.has_pending_writebacks()
        for pool in pools:
            assert volatile_lines_for(pool, model) == \
                full_scan_volatile_lines_for(pool, reference)
        start = rng.randrange(len(memory))
        windows = [
            (0, len(memory)),
            (rng.randrange(_LINES) * CACHE_LINE_SIZE, CACHE_LINE_SIZE),
            (start, rng.randint(1, len(memory) - start)),
        ]
        for base, size in windows:
            current = bytes(memory[base:base + size])
            assert model.persisted_only_overlay(base, size, current) == \
                reference.persisted_only_overlay(base, size, current)
