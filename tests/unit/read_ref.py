"""Reference post-failure read walk (testing oracle).

This is ``TraceReplayer``'s read classification as it stood before the
clean proof in :mod:`repro.core.replay`: every first-read segment walks
``post_written``, the commit variables, ``uninitialized``,
``persistence`` and ``consistency`` segment by segment, with no
one-probe shortcut.  It is retained solely as an oracle:
``tests/oracle.py`` replays every post-failure trace with it, and
``tests/unit/test_replay.py`` drives random post-failure operations
through both replayers and requires identical findings.

Keep this module boring.  Optimizations belong in ``replay.py``; a
change to the read rules must land in **both** files (the oracle and
the differential test catch a divergence either way).
"""

from __future__ import annotations

from repro.core.replay import TraceReplayer, _outside
from repro.core.report import BugKind
from repro.core.shadow import ConsistencyState, PersistenceState
from repro.pm.address import AddressRange


class ReferenceReadReplayer(TraceReplayer):
    """A :class:`TraceReplayer` whose post-failure reads take the plain
    segment walk.  Everything else (shadow mutations, RoI, library and
    skip regions, tallies) is the production replayer's."""

    def _check_read(self, addr, size, info, ip, tid):
        state = self._threads.get(tid)
        if state is None:
            state = self._thread(tid)
        if not self.roi_active or state.lib_depth > 0 \
                or state.skip_depth > 0:
            return
        self.reads_checked += 1
        start, end = addr, addr + size
        shadow = self.shadow

        if shadow.commit_vars:
            benign_var = shadow.commit_var_covering(start, end)
            if benign_var is not None and \
                    benign_var.var_range.contains_range(
                        AddressRange(start, size)
                    ):
                # Reading the commit variable itself: benign race.
                self.report.stats.benign_races += 1
                return

        first_read_only = self._first_read_only
        checked = self._checked
        if first_read_only and all(
            already for _s, _e, already in checked.iter_with_gaps(start, end)
        ):
            # Every byte was classified on its first read already.
            return
        for seg_start, seg_end, already in list(
            checked.iter_with_gaps(start, end)
        ):
            if first_read_only and already:
                continue
            checked.set(seg_start, seg_end, True)
            self._classify_segment(seg_start, seg_end, ip)

    def _classify_segment(self, start, end, reader_ip):
        shadow = self.shadow
        have_vars = bool(shadow.commit_vars)
        for s, e, written in shadow.post_written.iter_with_gaps(
            start, end
        ):
            if written:
                continue
            # Commit-variable bytes inside a larger read are benign,
            # one benign race per variable the read overlaps.
            if have_vars:
                probe = AddressRange(s, e - s)
                holes = [
                    var.var_range for var in shadow.commit_vars.values()
                    if var.var_range.overlaps(probe)
                ]
                if holes:
                    self.report.stats.benign_races += len(holes)
                    for sub_s, sub_e in _outside(s, e, holes):
                        self._classify_plain(sub_s, sub_e, reader_ip)
                    continue
            self._classify_plain(s, e, reader_ip)

    def _classify_plain(self, start, end, reader_ip):
        shadow = self.shadow
        for s, e, uninit in shadow.uninitialized.iter_with_gaps(
            start, end
        ):
            if uninit:
                self._bug(
                    BugKind.CROSS_FAILURE_RACE,
                    "read of allocated but never-initialized PM",
                    addr=s,
                    size=e - s,
                    reader_ip=reader_ip,
                    writer_ip=shadow.writer.get(s),
                )
                continue
            self._classify_states(s, e, reader_ip)

    def _classify_states(self, start, end, reader_ip):
        shadow = self.shadow
        for s, e, pstate in shadow.persistence.iter_with_gaps(
            start, end
        ):
            if pstate in (
                PersistenceState.MODIFIED,
                PersistenceState.WRITEBACK_PENDING,
            ):
                self._bug(
                    BugKind.CROSS_FAILURE_RACE,
                    "read of data not guaranteed persisted before the "
                    "failure",
                    addr=s,
                    size=e - s,
                    reader_ip=reader_ip,
                    writer_ip=shadow.writer.get(s),
                )
                continue
            for cs, ce, cstate in shadow.consistency.iter_with_gaps(
                s, e
            ):
                if cstate in (
                    ConsistencyState.UNCOMMITTED,
                    ConsistencyState.STALE,
                ):
                    self._bug(
                        BugKind.CROSS_FAILURE_SEMANTIC,
                        f"read of semantically inconsistent data "
                        f"({cstate.value})",
                        addr=cs,
                        size=ce - cs,
                        reader_ip=reader_ip,
                        writer_ip=shadow.writer.get(cs),
                    )
