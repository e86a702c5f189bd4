"""An interval map over byte addresses.

:class:`RangeMap` associates half-open integer intervals ``[start, end)``
with arbitrary values.  It is the storage structure behind the detector's
shadow PM (per-byte persistence and consistency state, paper Section 5.4)
and behind several allocator/layout utilities.

The map maintains two invariants, on which the property-based tests rely:

* intervals are disjoint and sorted;
* no two adjacent intervals carry values that compare equal (adjacent
  equal-valued intervals are coalesced).

Values are treated as immutable: callers must not mutate a stored value in
place, they must ``set``/``update`` a range with a new value.  Updates use
copy-on-split so that one logical range can diverge per-byte over time.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right


#: What :meth:`RangeMap.value_over` returns for a window that does not
#: carry one stored value throughout (it crosses an interval boundary).
MIXED = object()


class RangeMap:
    """Map half-open integer ranges to values.

    The structure is a sorted list of ``(start, end, value)`` triples.
    Point queries are O(log n); range writes are O(log n + k) for k
    affected intervals.  Shadow-PM workloads touch a few thousand
    intervals, for which this is more than fast enough while staying
    simple and easy to verify.
    """

    __slots__ = ("_starts", "_ends", "_values", "_default")

    def __init__(self, default=None):
        self._starts = []
        self._ends = []
        self._values = []
        self._default = default

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self):
        """Number of stored intervals (not bytes)."""
        return len(self._starts)

    def __bool__(self):
        return bool(self._starts)

    @property
    def default(self):
        return self._default

    def get(self, address):
        """Return the value covering ``address``, or the default."""
        idx = bisect_right(self._starts, address) - 1
        if idx >= 0 and address < self._ends[idx]:
            return self._values[idx]
        return self._default

    def covers(self, address):
        """True if ``address`` lies inside a stored interval."""
        idx = bisect_right(self._starts, address) - 1
        return idx >= 0 and address < self._ends[idx]

    def iter_ranges(self, start=None, end=None):
        """Yield ``(start, end, value)`` for stored intervals overlapping
        ``[start, end)``, clipped to that window.

        With no arguments, yields every stored interval.
        """
        if start is None and end is None:
            yield from zip(self._starts, self._ends, self._values)
            return
        if start is None or end is None:
            raise ValueError("start and end must be given together")
        if start >= end:
            return
        idx = max(bisect_right(self._starts, start) - 1, 0)
        for i in range(idx, len(self._starts)):
            s, e, v = self._starts[i], self._ends[i], self._values[i]
            if s >= end:
                break
            if e <= start:
                continue
            yield max(s, start), min(e, end), v

    def iter_with_gaps(self, start, end):
        """Like :meth:`iter_ranges` but also yields uncovered gaps in the
        window as ``(start, end, default)``.

        Open-coded rather than delegating to :meth:`iter_ranges`: this
        is the backend's per-read segmentation primitive and the nested
        generator dispatch showed up in profiles.
        """
        if start >= end:
            return
        starts = self._starts
        ends = self._ends
        values = self._values
        default = self._default
        cursor = start
        idx = bisect_right(starts, start) - 1
        if idx < 0:
            idx = 0
        for i in range(idx, len(starts)):
            s = starts[i]
            if s >= end:
                break
            e = ends[i]
            if e <= start:
                continue
            if s < start:
                s = start
            if e > end:
                e = end
            if s > cursor:
                yield cursor, s, default
            yield s, e, values[i]
            cursor = e
        if cursor < end:
            yield cursor, end, default

    def value_over(self, start, end):
        """The one value every byte of ``[start, end)`` carries: the
        value of a stored interval that covers the whole window, or
        the default when the window lies in a gap.  Returns
        :data:`MIXED` when the window crosses an interval boundary (or
        is empty).

        One bisect and no generator: the backend probes each shadow
        map with this before it pays for an :meth:`iter_with_gaps`
        walk.
        """
        if start >= end:
            return MIXED
        starts = self._starts
        idx = bisect_right(starts, start) - 1
        if idx >= 0 and start < self._ends[idx]:
            if end <= self._ends[idx]:
                return self._values[idx]
            return MIXED
        if idx + 1 < len(starts) and starts[idx + 1] < end:
            return MIXED
        return self._default

    def first_match(self, start, end, predicate):
        """Return the first ``(start, end, value)`` in the window whose
        value satisfies ``predicate``, or None.  Gaps are tested against
        the default value."""
        for s, e, v in self.iter_with_gaps(start, end):
            if predicate(v):
                return s, e, v
        return None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def set(self, start, end, value):
        """Assign ``value`` to every address in ``[start, end)``."""
        if start >= end:
            return
        # No-op fast path: the window lies inside one stored interval
        # that already carries an equal value (the common shape when a
        # replay re-applies the same per-byte state, e.g. repeated
        # epochs, writers, or persistence states).
        starts = self._starts
        ends = self._ends
        idx = bisect_right(starts, start) - 1
        if idx >= 0 and start < ends[idx]:
            if end <= ends[idx] and self._values[idx] == value:
                return
        elif idx + 1 == len(starts) or end <= starts[idx + 1]:
            # Gap insert: the window overlaps no stored interval (every
            # first-read mark is one), so there is nothing to carve.
            idx += 1
            starts.insert(idx, start)
            ends.insert(idx, end)
            self._values.insert(idx, value)
            self._coalesce_around(idx)
            return
        self._carve(start, end)
        lo = bisect_left(self._starts, start)
        # _carve guarantees no interval straddles start or end, so the
        # intervals fully inside [start, end) form a contiguous block.
        hi = lo
        n = len(self._starts)
        while hi < n and self._starts[hi] < end:
            hi += 1
        # Replace the block with the single new interval, then coalesce.
        self._starts[lo:hi] = [start]
        self._ends[lo:hi] = [end]
        self._values[lo:hi] = [value]
        self._coalesce_around(lo)

    def update(self, start, end, fn):
        """Replace the value of every address in the window with
        ``fn(old_value)``; gaps are transformed from the default."""
        if start >= end:
            return
        segments = [
            (s, e, fn(v)) for s, e, v in self.iter_with_gaps(start, end)
        ]
        for s, e, v in segments:
            self.set(s, e, v)

    def clear(self, start=None, end=None):
        """Remove intervals in the window (or everything)."""
        if start is None and end is None:
            del self._starts[:]
            del self._ends[:]
            del self._values[:]
            return
        if start >= end:
            return
        self._carve(start, end)
        lo = bisect_left(self._starts, start)
        hi = lo
        n = len(self._starts)
        while hi < n and self._starts[hi] < end:
            hi += 1
        del self._starts[lo:hi]
        del self._ends[lo:hi]
        del self._values[lo:hi]

    def copy(self):
        dup = RangeMap(self._default)
        dup._starts = list(self._starts)
        dup._ends = list(self._ends)
        dup._values = list(self._values)
        return dup

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _carve(self, start, end):
        """Split any interval straddling ``start`` or ``end`` so both
        become interval boundaries."""
        for point in (start, end):
            idx = bisect_right(self._starts, point) - 1
            if idx < 0:
                continue
            s, e, v = self._starts[idx], self._ends[idx], self._values[idx]
            if s < point < e:
                self._starts[idx:idx + 1] = [s, point]
                self._ends[idx:idx + 1] = [point, e]
                self._values[idx:idx + 1] = [v, v]

    def _coalesce_around(self, idx):
        """Merge interval ``idx`` with equal-valued touching neighbours."""
        # Merge with successor first so idx stays valid.
        if (
            idx + 1 < len(self._starts)
            and self._ends[idx] == self._starts[idx + 1]
            and self._values[idx] == self._values[idx + 1]
        ):
            self._ends[idx] = self._ends[idx + 1]
            del self._starts[idx + 1]
            del self._ends[idx + 1]
            del self._values[idx + 1]
        if (
            idx > 0
            and self._ends[idx - 1] == self._starts[idx]
            and self._values[idx - 1] == self._values[idx]
        ):
            self._ends[idx - 1] = self._ends[idx]
            del self._starts[idx]
            del self._ends[idx]
            del self._values[idx]

    def check_invariants(self):
        """Raise AssertionError if internal invariants are violated.

        Exposed for the property-based test suite.
        """
        assert len(self._starts) == len(self._ends) == len(self._values)
        for i, (s, e) in enumerate(zip(self._starts, self._ends)):
            assert s < e, f"empty interval at {i}"
            if i:
                assert self._ends[i - 1] <= s, f"overlap at {i}"
                if self._ends[i - 1] == s:
                    assert self._values[i - 1] != self._values[i], (
                        f"uncoalesced neighbours at {i}"
                    )
