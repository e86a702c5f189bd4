"""Full-scan cache-model queries (testing oracle).

``persisted_only_overlay``, ``fence`` and ``volatile_lines_for`` as
they stood before :mod:`repro.pm.cacheline` learned to visit only the
lines in question: each one walks every tracked line.  They are kept
verbatim as the reference ``tests/unit/test_cacheline.py`` drives the
production model against with random operation sequences.
"""

from __future__ import annotations

from repro.pm.address import AddressRange
from repro.pm.cacheline import CacheModel, FenceKind, LineState
from repro.pm.constants import CACHE_LINE_SIZE


class FullScanCacheModel(CacheModel):
    """The cache model with the full-scan fence and overlay."""

    def fence(self, kind=FenceKind.SFENCE):
        self._stores_since_fence = False
        completed = []
        for line, state in list(self._states.items()):
            if state is LineState.WRITEBACK_PENDING:
                self._media[line] = bytes(self._read_line(line))
                self._states[line] = LineState.PERSISTED
                completed.append(line)
                self._touched.add(line)
        self._pending.clear()
        return completed

    def persisted_only_overlay(self, base, size, current):
        out = bytearray(current)
        window = AddressRange(base, size)
        for line, state in self._states.items():
            if state is LineState.UNMODIFIED:
                continue
            if line + CACHE_LINE_SIZE <= base or line >= base + size:
                continue
            media = self._media.get(line)
            if state is LineState.PERSISTED and media is None:
                continue
            replacement = media if media is not None else bytes(
                CACHE_LINE_SIZE
            )
            piece = window.intersection(
                AddressRange(line, CACHE_LINE_SIZE)
            )
            if piece is None:
                continue
            for i in range(piece.size):
                out[piece.start - base + i] = replacement[
                    piece.start - line + i
                ]
        return bytes(out)


def full_scan_volatile_lines_for(pool, cache):
    return tuple(sorted(
        line - pool.base
        for line, state in cache.line_states().items()
        if state in (LineState.MODIFIED, LineState.WRITEBACK_PENDING)
        and pool.base <= line < pool.end
    ))
