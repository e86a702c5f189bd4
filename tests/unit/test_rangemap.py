"""Unit and property tests for the interval map behind the shadow PM."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._rangemap import MIXED, RangeMap


class TestBasics:
    def test_empty_map_returns_default(self):
        rmap = RangeMap(default="d")
        assert rmap.get(0) == "d"
        assert rmap.get(12345) == "d"
        assert not rmap
        assert len(rmap) == 0

    def test_set_and_get(self):
        rmap = RangeMap()
        rmap.set(10, 20, "a")
        assert rmap.get(9) is None
        assert rmap.get(10) == "a"
        assert rmap.get(19) == "a"
        assert rmap.get(20) is None

    def test_empty_range_is_noop(self):
        rmap = RangeMap()
        rmap.set(10, 10, "a")
        rmap.set(20, 10, "b")
        assert len(rmap) == 0

    def test_overwrite_middle_splits(self):
        rmap = RangeMap()
        rmap.set(0, 30, "a")
        rmap.set(10, 20, "b")
        assert rmap.get(5) == "a"
        assert rmap.get(15) == "b"
        assert rmap.get(25) == "a"
        assert len(rmap) == 3

    def test_overwrite_exact_boundaries(self):
        rmap = RangeMap()
        rmap.set(10, 20, "a")
        rmap.set(10, 20, "b")
        assert rmap.get(10) == "b"
        assert len(rmap) == 1

    def test_overwrite_spanning_multiple(self):
        rmap = RangeMap()
        rmap.set(0, 10, "a")
        rmap.set(10, 20, "b")
        rmap.set(20, 30, "c")
        rmap.set(5, 25, "x")
        assert [v for _s, _e, v in rmap.iter_ranges()] == ["a", "x", "c"]

    def test_adjacent_equal_values_coalesce(self):
        rmap = RangeMap()
        rmap.set(0, 10, "a")
        rmap.set(10, 20, "a")
        assert len(rmap) == 1
        assert list(rmap.iter_ranges()) == [(0, 20, "a")]

    def test_adjacent_different_values_do_not_coalesce(self):
        rmap = RangeMap()
        rmap.set(0, 10, "a")
        rmap.set(10, 20, "b")
        assert len(rmap) == 2

    def test_covers(self):
        rmap = RangeMap()
        rmap.set(5, 8, True)
        assert not rmap.covers(4)
        assert rmap.covers(5)
        assert rmap.covers(7)
        assert not rmap.covers(8)

    def test_gap_insert_coalesces_with_both_neighbours(self):
        rmap = RangeMap()
        rmap.set(0, 10, "a")
        rmap.set(20, 30, "a")
        rmap.set(10, 20, "a")
        assert list(rmap.iter_ranges()) == [(0, 30, "a")]
        rmap.set(40, 50, "b")
        rmap.set(35, 38, "a")
        assert list(rmap.iter_ranges()) == [
            (0, 30, "a"), (35, 38, "a"), (40, 50, "b"),
        ]
        rmap.check_invariants()

    def test_value_over(self):
        rmap = RangeMap(default="gap")
        rmap.set(10, 20, "a")
        rmap.set(20, 30, "b")
        assert rmap.value_over(12, 18) == "a"
        assert rmap.value_over(10, 20) == "a"
        assert rmap.value_over(0, 10) == "gap"
        assert rmap.value_over(30, 99) == "gap"
        assert rmap.value_over(15, 25) is MIXED  # interval boundary
        assert rmap.value_over(5, 15) is MIXED  # gap, then interval
        assert rmap.value_over(25, 35) is MIXED  # interval, then gap
        assert rmap.value_over(12, 12) is MIXED  # empty window


class TestIteration:
    def test_iter_ranges_window_clips(self):
        rmap = RangeMap()
        rmap.set(0, 100, "a")
        assert list(rmap.iter_ranges(30, 40)) == [(30, 40, "a")]

    def test_iter_ranges_requires_both_bounds(self):
        rmap = RangeMap()
        with pytest.raises(ValueError):
            list(rmap.iter_ranges(start=1))

    def test_iter_with_gaps(self):
        rmap = RangeMap(default="gap")
        rmap.set(10, 20, "a")
        rmap.set(30, 40, "b")
        got = list(rmap.iter_with_gaps(0, 50))
        assert got == [
            (0, 10, "gap"),
            (10, 20, "a"),
            (20, 30, "gap"),
            (30, 40, "b"),
            (40, 50, "gap"),
        ]

    def test_iter_with_gaps_fully_uncovered(self):
        rmap = RangeMap(default=0)
        assert list(rmap.iter_with_gaps(5, 8)) == [(5, 8, 0)]


class TestUpdateAndClear:
    def test_update_transforms_values_and_gaps(self):
        rmap = RangeMap(default=0)
        rmap.set(10, 20, 1)
        rmap.update(5, 25, lambda v: v + 1)
        assert rmap.get(7) == 1  # gap transformed from default
        assert rmap.get(15) == 2
        assert rmap.get(22) == 1

    def test_clear_window(self):
        rmap = RangeMap()
        rmap.set(0, 30, "a")
        rmap.clear(10, 20)
        assert rmap.get(5) == "a"
        assert rmap.get(15) is None
        assert rmap.get(25) == "a"

    def test_clear_all(self):
        rmap = RangeMap()
        rmap.set(0, 30, "a")
        rmap.clear()
        assert len(rmap) == 0

    def test_copy_is_independent(self):
        rmap = RangeMap()
        rmap.set(0, 10, "a")
        dup = rmap.copy()
        dup.set(0, 10, "b")
        assert rmap.get(5) == "a"
        assert dup.get(5) == "b"


# ----------------------------------------------------------------------
# Property-based tests: the map must behave exactly like a plain
# per-address dict under arbitrary operation sequences.
# ----------------------------------------------------------------------

_ops = st.lists(
    st.tuples(
        st.sampled_from(["set", "clear"]),
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=5),
    ),
    max_size=40,
)


_windows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=260),
        st.integers(min_value=0, max_value=70),
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(_ops, _windows)
def test_rangemap_matches_dict_model(ops, windows):
    rmap = RangeMap(default=-1)
    model = {}
    for op, start, length, value in ops:
        end = start + length
        if op == "set":
            rmap.set(start, end, value)
            for address in range(start, end):
                model[address] = value
        else:
            rmap.clear(start, end)
            for address in range(start, end):
                model.pop(address, None)
        rmap.check_invariants()
    for address in range(0, 261):
        assert rmap.get(address) == model.get(address, -1)
    # Stored values never equal the default, and equal neighbours
    # coalesce, so a window carries one value exactly when it lies in
    # one interval or one gap.
    for start, length in windows:
        values = {
            model.get(address, -1)
            for address in range(start, start + length)
        }
        expected = values.pop() if len(values) == 1 else MIXED
        assert rmap.value_over(start, start + length) == expected


@settings(max_examples=100, deadline=None)
@given(_ops, st.integers(0, 200), st.integers(0, 200))
def test_iter_with_gaps_covers_window_exactly(ops, a, b):
    start, end = min(a, b), max(a, b) + 1
    rmap = RangeMap(default=None)
    for op, s, length, value in ops:
        if op == "set":
            rmap.set(s, s + length, value)
    cursor = start
    for s, e, _v in rmap.iter_with_gaps(start, end):
        assert s == cursor, "segments must be contiguous"
        assert s < e
        cursor = e
    assert cursor == end
