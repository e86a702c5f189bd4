"""The shadow PM (paper Section 5.4).

For every PM byte the backend tracks:

* a **persistence state** following Figure 9 — unmodified / modified /
  writeback-pending / persisted — driven by ``STORE``/``FLUSH``/``FENCE``
  events;
* a **consistency state** following Figure 10 — consistent /
  inconsistent-uncommitted / inconsistent-stale — driven by stores,
  commit-variable writes (Eq. 3's version-based rule, implemented with
  the global epoch timestamp), and PMDK transaction events;
* the **epoch of the last modification** (``Tlast``) and the source
  location of the last writer (for bug reports);
* an **uninitialized** flag for allocated-but-never-stored memory
  (Bug 2's habitat).

The global epoch increments after each ordering point, i.e. after each
fence that completed at least one writeback, exactly as described in the
paper's Figure 11 walkthrough.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro._rangemap import RangeMap
from repro.obs.metrics import Counter
from repro.pm.address import AddressRange
from repro.pm.cacheline import FlushKind, LineState, PlatformMode
from repro.pm.constants import CACHE_LINE_SIZE

#: The backend's persistence states are the Figure 9 states; we reuse
#: the cache model's enum so the two layers cannot drift apart.
PersistenceState = LineState


class ConsistencyState(enum.Enum):
    """Semantic consistency of one PM byte (Figure 10)."""

    CONSISTENT = "C"
    UNCOMMITTED = "IC-uncommitted"
    STALE = "IC-stale"


@dataclass(slots=True)
class CommitVariable:
    """A registered commit variable and its associated address set Sx.

    ``members`` is a list of :class:`AddressRange`; an empty list means
    the variable covers **all** PM locations (the paper's default when a
    single commit variable is registered with no object specified).
    """

    name: str
    var_range: AddressRange
    members: list = field(default_factory=list)
    #: Epoch of the last commit write (Cx_n) and the one before it
    #: (Cx_{n-1}); None until the first/second commit write happens.
    last_commit_epoch: int | None = None
    prev_commit_epoch: int | None = None

    def covers_member(self, start, end, covers_all_default=False):
        """Does ``[start, end)`` intersect this variable's member set?

        A variable with no registered ranges covers all PM only when it
        is the sole commit variable (the paper's Table 2 default);
        ``covers_all_default`` carries that context in.
        """
        if not self.members:
            return covers_all_default
        probe = AddressRange(start, end - start)
        return any(member.overlaps(probe) for member in self.members)

    def member_windows(self, tlast_map, covers_all_default=False):
        """Iterate member windows as (start, end) pairs.

        For an all-PM variable, iterate every range with a recorded
        modification instead of the entire address space.
        """
        if self.members:
            for member in self.members:
                yield member.start, member.end
        elif covers_all_default:
            for start, end, value in tlast_map.iter_ranges():
                if value is not None:
                    yield start, end


class ShadowPM:
    """Per-byte shadow state over the whole PM address space.

    Hot-path design notes (ISSUE 10):

    * slotted — the backend forks one shadow per live failure point and
      replays hundreds of thousands of events through it; attribute
      access off a fixed layout beats per-instance dicts;
    * the store FSM's platform branch is flattened into a precomputed
      target state (``_store_pstate``) chosen once at construction;
    * consecutive identical stores (same range, writer, and transaction
      context — the shape tight PM loops produce) coalesce into a
      single shadow application via ``_last_store``;
    * ``persistence_at``/``consistency_at`` memoize per address behind
      a generation counter (``_gen``) that every mutation bumps.
    """

    __slots__ = (
        "platform", "audit", "transitions", "persistence",
        "consistency", "tlast", "writer", "uninitialized",
        "post_written", "commit_vars", "epoch", "_pending_lines",
        "_stores_since_fence", "_is_eadr", "_store_pstate",
        "_last_store", "_gen", "_memo_gen", "_p_memo", "_c_memo",
    )

    def __init__(self, platform=PlatformMode.ADR, audit=None,
                 transition_counter=None):
        self.platform = platform
        #: Optional ``repro.obs.AuditLog`` (or a scoped view of one):
        #: records every persistence/consistency transition.  None (the
        #: default) keeps the fast path free of any extra work.
        self.audit = audit
        #: Applied-transition counter, shared across forks (``copy()``
        #: keeps the reference) so ``shadow_transitions_total`` spans
        #: the pre-failure replay and every post-failure fork.
        self.transitions = (
            transition_counter if transition_counter is not None
            else Counter("shadow_transitions_total")
        )
        self.persistence = RangeMap(PersistenceState.UNMODIFIED)
        self.consistency = RangeMap(ConsistencyState.CONSISTENT)
        self.tlast = RangeMap(None)  # epoch of last store
        self.writer = RangeMap(None)  # SourceLocation of last store
        self.uninitialized = RangeMap(False)
        #: Bytes written during the post-failure stage (exempt from
        #: checks: they overwrite pre-failure data).
        self.post_written = RangeMap(False)
        self.commit_vars = {}  # name -> CommitVariable
        self.epoch = 0
        #: Cache-line base addresses with writeback-pending bytes.
        self._pending_lines = set()
        #: eADR: a store happened since the last fence.
        self._stores_since_fence = False
        #: Flattened store decision: what persistence state a plain
        #: store lands in on this platform (Figure 9's first edge).
        self._is_eadr = platform is PlatformMode.EADR
        self._store_pstate = (
            PersistenceState.PERSISTED if self._is_eadr
            else PersistenceState.MODIFIED
        )
        #: Coalescing buffer: the signature of the last applied store.
        #: A store with an identical signature is a repeat of an
        #: already-applied transition set — only the counter ticks.
        self._last_store = None
        #: Mutation generation; bumped by every state change, consulted
        #: by the memoized point lookups.
        self._gen = 0
        self._memo_gen = -1
        self._p_memo = {}
        self._c_memo = {}

    # ------------------------------------------------------------------
    # Copying (the backend forks the shadow at each failure point)
    # ------------------------------------------------------------------

    def copy(self):
        """A deep copy of the shadow state, without the audit hook:
        a checkpoint must not drag the run's whole audit log along
        into every fork.  An audited replay task attaches its own
        task-local log to its fork."""
        dup = ShadowPM.__new__(ShadowPM)
        dup.platform = self.platform
        dup.audit = None
        dup.transitions = self.transitions
        dup.persistence = self.persistence.copy()
        dup.consistency = self.consistency.copy()
        dup.tlast = self.tlast.copy()
        dup.writer = self.writer.copy()
        dup.uninitialized = self.uninitialized.copy()
        dup.post_written = self.post_written.copy()
        dup.commit_vars = {
            name: CommitVariable(
                var.name,
                var.var_range,
                list(var.members),
                var.last_commit_epoch,
                var.prev_commit_epoch,
            )
            for name, var in self.commit_vars.items()
        }
        dup.epoch = self.epoch
        dup._pending_lines = set(self._pending_lines)
        dup._stores_since_fence = self._stores_since_fence
        dup._is_eadr = self._is_eadr
        dup._store_pstate = self._store_pstate
        dup._last_store = None
        dup._gen = 0
        dup._memo_gen = -1
        dup._p_memo = {}
        dup._c_memo = {}
        return dup

    def fork_for_replay(self, transition_counter=None):
        """A fork for a detached post-failure replay (executor task).

        Unlike :meth:`copy`, the fork counts transitions into its own
        counter so parallel replays never contend on, or
        non-deterministically interleave into, the parent's counter.
        """
        dup = self.copy()
        dup.transitions = (
            transition_counter if transition_counter is not None
            else Counter("shadow_transitions_total")
        )
        return dup

    def checkpoint(self):
        """A checkpoint of this shadow at an ordering point.

        Semantically :meth:`copy`; the distinct name marks the backend
        call sites that feed a :class:`ShadowCheckpointCache` so
        consecutive failure points replay only the pre-trace delta
        between them instead of from trace start.
        """
        return self.copy()

    # ------------------------------------------------------------------
    # Replay-equivalence digest (crash-state dedup, ``repro.dedup``)
    # ------------------------------------------------------------------

    def region_digest(self, ranges):
        """Everything a post-failure replay can observe of this shadow
        over the given ``(start, end)`` ranges, as an exact hashable
        value.

        A post-stage replay reads pre-failure shadow state only inside
        ``_check_read`` on LOAD ranges: the persistence, consistency,
        uninitialized, and last-writer maps, plus the geometry of
        commit-variable ranges overlapping the read (post stores
        return before the commit logic, and post FLUSH/FENCE events
        are not applied at all).  Two forks with equal digests over a
        post-failure run's load set therefore produce identical
        findings for that run.  Commit epochs, ``tlast``, the global epoch, and
        pending lines are deliberately excluded — the post path writes
        but never reads them, and including them would split states
        that replay identically.
        """
        parts = []
        for start, end in ranges:
            for layer in (self.persistence, self.consistency,
                          self.uninitialized, self.writer):
                parts.append(tuple(layer.iter_with_gaps(start, end)))
        overlapping = []
        for name, var in self.commit_vars.items():
            var_range = var.var_range
            for start, end in ranges:
                if var_range.overlaps(AddressRange(start, end - start)):
                    overlapping.append(
                        (name, var_range.start, var_range.size)
                    )
                    break
        parts.append(tuple(overlapping))
        return tuple(parts)

    # ------------------------------------------------------------------
    # Audit hook (only ever invoked with ``self.audit`` set)
    # ------------------------------------------------------------------

    def _audit_transition(self, rangemap, layer, op, start, end, new,
                          ip=None):
        """Record the old->new transitions one ``rangemap.set(start,
        end, new)`` call is about to apply (no-transition segments are
        skipped)."""
        for s, e, old in rangemap.iter_with_gaps(start, end):
            if old is not new:
                self.audit.record(
                    op, layer, s, e - s, old, new, self.epoch, ip=ip,
                )

    # ------------------------------------------------------------------
    # Commit variables
    # ------------------------------------------------------------------

    def register_commit_var(self, name, start, size):
        self._last_store = None
        self.commit_vars[name] = CommitVariable(
            name, AddressRange(start, size)
        )

    def register_commit_range(self, name, start, size):
        var = self.commit_vars.get(name)
        if var is None:
            raise KeyError(f"commit variable {name!r} not registered")
        self._last_store = None
        var.members.append(AddressRange(start, size))

    def commit_var_covering(self, start, end):
        """The commit variable whose *own* range intersects the window,
        or None.  Reads of this range are benign cross-failure races."""
        probe = AddressRange(start, end - start)
        for var in self.commit_vars.values():
            if var.var_range.overlaps(probe):
                return var
        return None

    # ------------------------------------------------------------------
    # Pre-failure state transitions
    # ------------------------------------------------------------------

    def record_store(self, addr, size, ip, stage, tx_added=None,
                     in_tx=False, _op="STORE"):
        """Apply one STORE (or NT_STORE's data effect) to the shadow.

        ``tx_added`` is the list of (addr, size) ranges added to the
        active transaction, when one is active.
        """
        self.transitions.inc()
        audit = self.audit
        # Coalescing fast path: a store whose full decision signature
        # (range, writer, stage, transaction context, epoch) matches
        # the previous one applies exactly the transitions already in
        # place — a repeat is a no-op beyond the counter.  Everything
        # the outcome depends on is in the signature; every *other*
        # mutator clears the buffer.  ``id(tx_added)`` pins the
        # per-thread undo-log list (same length, different thread must
        # not match); contents can't change without a TX_ADD, which
        # clears the buffer too.
        signature = (
            addr, size, ip, stage, in_tx,
            id(tx_added) if tx_added is not None else 0,
            len(tx_added) if tx_added else 0,
            _op, self.epoch,
        )
        if signature == self._last_store and audit is None:
            return
        end = addr + size
        self._gen += 1
        if self._is_eadr:
            # Persistent caches: durable on retire.
            if audit is not None:
                self._audit_transition(
                    self.persistence, "persistence", _op, addr, end,
                    PersistenceState.PERSISTED, ip,
                )
            self._stores_since_fence = True
        elif audit is not None:
            self._audit_transition(
                self.persistence, "persistence", _op, addr, end,
                PersistenceState.MODIFIED, ip,
            )
        self.persistence.set(addr, end, self._store_pstate)
        self.tlast.set(addr, end, self.epoch)
        self.writer.set(addr, end, ip)
        self.uninitialized.set(addr, end, False)

        if stage == "post":
            # Post-failure writes overwrite the old data; their own
            # consistency is tested when this region later runs as the
            # pre-failure stage (Section 5.4).
            self._set_consistency(
                addr, end, ConsistencyState.CONSISTENT, _op, ip
            )
            self.post_written.set(addr, end, True)
            self._last_store = signature
            return

        if self.commit_vars:
            committing = self.commit_var_covering(addr, end)
            if committing is not None:
                # Commit writes advance the variable's epoch pair —
                # never idempotent, so never coalesced.
                self._last_store = None
                self._apply_commit_write(committing, ip=ip)
                self._set_consistency(
                    addr, end, ConsistencyState.CONSISTENT, _op, ip
                )
                return

        if in_tx and tx_added and _covered_by(addr, end, tx_added):
            # Writes to ranges added to the transaction stay consistent:
            # the undo log makes the old value recoverable.
            self._set_consistency(
                addr, end, ConsistencyState.CONSISTENT, _op, ip
            )
            self._last_store = signature
            return

        if in_tx or (
            self.commit_vars
            and self._member_of_any_commit_var(addr, end)
        ):
            self._set_consistency(
                addr, end, ConsistencyState.UNCOMMITTED, _op, ip
            )
        # Otherwise the location is not governed by any declared crash
        # consistency mechanism: only race detection applies.
        self._last_store = signature

    def _set_consistency(self, start, end, state, op, ip=None):
        if self.audit is not None:
            self._audit_transition(
                self.consistency, "consistency", op, start, end,
                state, ip,
            )
        self._gen += 1
        self.consistency.set(start, end, state)

    def record_nt_store(self, addr, size, ip, stage, tx_added=None,
                        in_tx=False):
        """Non-temporal store: like a store, but immediately
        writeback-pending (persists at the next fence).  On eADR a
        non-temporal store is simply durable, like any other store."""
        self.record_store(
            addr, size, ip, stage, tx_added, in_tx, _op="NT_STORE"
        )
        if self._is_eadr:
            return
        if self.audit is not None:
            self._audit_transition(
                self.persistence, "persistence", "NT_STORE", addr,
                addr + size, PersistenceState.WRITEBACK_PENDING, ip,
            )
        self._gen += 1
        self.persistence.set(
            addr, addr + size, PersistenceState.WRITEBACK_PENDING
        )
        for line in AddressRange(addr, size).lines():
            self._pending_lines.add(line)

    def record_flush(self, line_addr, ip=None):
        """A CLWB/CLFLUSHOPT on one cache line.

        Returns True if the flush was useful (moved modified bytes to
        writeback-pending), False if redundant (a Figure 9 yellow edge;
        on eADR *every* flush is redundant).
        """
        if self._is_eadr:
            return False
        start = line_addr
        end = line_addr + CACHE_LINE_SIZE
        useful = False
        audit = self.audit
        for s, e, state in list(self.persistence.iter_ranges(start, end)):
            if state is PersistenceState.MODIFIED:
                if audit is not None:
                    audit.record(
                        "FLUSH", "persistence", s, e - s, state,
                        PersistenceState.WRITEBACK_PENDING,
                        self.epoch, ip=ip,
                    )
                self.persistence.set(
                    s, e, PersistenceState.WRITEBACK_PENDING
                )
                useful = True
        if useful:
            self.transitions.inc()
            self._gen += 1
            self._last_store = None
            self._pending_lines.add(line_addr)
        return useful

    def record_clflush(self, line_addr, ip=None):
        """A synchronous CLFLUSH: modified/pending bytes persist now."""
        if self._is_eadr:
            return False
        start = line_addr
        end = line_addr + CACHE_LINE_SIZE
        useful = False
        audit = self.audit
        for s, e, state in list(self.persistence.iter_ranges(start, end)):
            if state in (
                PersistenceState.MODIFIED,
                PersistenceState.WRITEBACK_PENDING,
            ):
                if audit is not None:
                    audit.record(
                        "CLFLUSH", "persistence", s, e - s, state,
                        PersistenceState.PERSISTED, self.epoch, ip=ip,
                    )
                self.persistence.set(s, e, PersistenceState.PERSISTED)
                useful = True
        self._pending_lines.discard(line_addr)
        if useful:
            self.transitions.inc()
            self._gen += 1
            self._last_store = None
            self.epoch += 1
        return useful

    def record_fence(self, ip=None):
        """An SFENCE/drain: complete pending writebacks.

        Returns True when the fence was an ordering point (completed at
        least one writeback; on eADR: ordered at least one store); the
        global epoch then increments.
        """
        if self._is_eadr:
            ordered = self._stores_since_fence
            self._stores_since_fence = False
            if ordered:
                self.transitions.inc()
                self._gen += 1
                self._last_store = None
                self.epoch += 1
            return ordered
        completed = False
        audit = self.audit
        for line in sorted(self._pending_lines):
            start, end = line, line + CACHE_LINE_SIZE
            for s, e, state in list(
                self.persistence.iter_ranges(start, end)
            ):
                if state is PersistenceState.WRITEBACK_PENDING:
                    if audit is not None:
                        audit.record(
                            "SFENCE", "persistence", s, e - s, state,
                            PersistenceState.PERSISTED,
                            self.epoch, ip=ip,
                        )
                    self.persistence.set(
                        s, e, PersistenceState.PERSISTED
                    )
                    completed = True
        self._pending_lines.clear()
        if completed:
            self.transitions.inc()
            self._gen += 1
            self._last_store = None
            self.epoch += 1
        return completed

    def record_tx_add(self, addr, size, ip):
        """A range was added to the undo log: regarded as consistent and
        recoverable (PMTest-like handling, Section 5.4)."""
        end = addr + size
        self.transitions.inc()
        self._gen += 1
        self._last_store = None
        if self.audit is not None:
            self._audit_transition(
                self.persistence, "persistence", "TX_ADD", addr, end,
                PersistenceState.PERSISTED, ip,
            )
        self.persistence.set(addr, end, PersistenceState.PERSISTED)
        self._set_consistency(
            addr, end, ConsistencyState.CONSISTENT, "TX_ADD", ip
        )
        self.tlast.set(addr, end, self.epoch)
        self.writer.set(addr, end, ip)
        self.uninitialized.set(addr, end, False)

    def record_alloc(self, addr, size, zeroed, stage,
                     trust_allocator_zeroing):
        """A persistent allocation.

        The allocator persisted the object's storage, but its *contents*
        are regarded as unmodified/uninitialized unless the detector is
        configured to trust implicit zero-fill (Bug 2, Section 6.3.2).
        """
        end = addr + size
        self.transitions.inc()
        self._gen += 1
        self._last_store = None
        if self.audit is not None:
            self._audit_transition(
                self.persistence, "persistence", "ALLOC", addr, end,
                PersistenceState.PERSISTED,
            )
        self.persistence.set(addr, end, PersistenceState.PERSISTED)
        self._set_consistency(
            addr, end, ConsistencyState.CONSISTENT, "ALLOC"
        )
        self.tlast.set(addr, end, self.epoch)
        if stage == "post":
            self.post_written.set(addr, end, True)
            self.uninitialized.set(addr, end, False)
        else:
            self.uninitialized.set(
                addr, end, not (zeroed and trust_allocator_zeroing)
            )

    def commit_tx_writes(self, ranges):
        """A transaction committed: its writes are final program intent,
        so uncommitted ones become consistent.  Persistence is left
        untouched — an unflushed in-transaction write to a non-added
        range remains a cross-failure race."""
        audit = self.audit
        self._last_store = None
        for addr, size in ranges:
            for s, e, state in list(
                self.consistency.iter_ranges(addr, addr + size)
            ):
                if state is ConsistencyState.UNCOMMITTED:
                    self.transitions.inc()
                    self._gen += 1
                    if audit is not None:
                        audit.record(
                            "TX_COMMIT", "consistency", s, e - s,
                            state, ConsistencyState.CONSISTENT,
                            self.epoch,
                        )
                    self.consistency.set(
                        s, e, ConsistencyState.CONSISTENT
                    )

    def record_free(self, addr, size):
        end = addr + size
        self.transitions.inc()
        self._gen += 1
        self._last_store = None
        if self.audit is not None:
            self._audit_transition(
                self.persistence, "persistence", "FREE", addr, end,
                PersistenceState.PERSISTED,
            )
        self.persistence.set(addr, end, PersistenceState.PERSISTED)
        self._set_consistency(
            addr, end, ConsistencyState.CONSISTENT, "FREE"
        )
        self.uninitialized.set(addr, end, True)

    # ------------------------------------------------------------------
    # Commit-write rule (Eq. 3 via epochs; see Figure 11 walkthrough)
    # ------------------------------------------------------------------

    def _apply_commit_write(self, var, ip=None):
        """A store hit commit variable ``var``'s own range.

        Member locations modified strictly between the previous commit
        write's epoch and this one become consistent; members last
        modified before the previous commit that were consistent become
        stale; members modified in the *same* epoch as this commit are
        left unchanged ("no update before the commit timestamp").
        """
        now = self.epoch
        prev = var.last_commit_epoch
        lower = prev if prev is not None else -1
        covers_all = len(self.commit_vars) == 1
        for win_start, win_end in var.member_windows(
            self.tlast, covers_all
        ):
            # Never reclassify the variable's own bytes.
            for s, e in _subtract(win_start, win_end, var.var_range):
                self._commit_window(s, e, lower, now, ip)
        var.prev_commit_epoch = var.last_commit_epoch
        var.last_commit_epoch = now

    def _commit_window(self, start, end, lower, now, ip=None):
        for s, e, t in list(self.tlast.iter_ranges(start, end)):
            if t is None:
                continue
            if lower < t < now:
                self._set_consistency(
                    s, e, ConsistencyState.CONSISTENT,
                    "COMMIT_WRITE", ip,
                )
            elif t <= lower:
                # Old-generation data: consistent versions become stale.
                for cs, ce, state in list(
                    self.consistency.iter_ranges(s, e)
                ):
                    if state is ConsistencyState.CONSISTENT:
                        self._set_consistency(
                            cs, ce, ConsistencyState.STALE,
                            "COMMIT_WRITE", ip,
                        )
            # t == now: same epoch as the commit write — unordered with
            # it, so the state is left unchanged.

    def _member_of_any_commit_var(self, start, end):
        covers_all = len(self.commit_vars) == 1
        return any(
            var.covers_member(start, end, covers_all)
            for var in self.commit_vars.values()
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def persistence_at(self, addr):
        if self._memo_gen != self._gen:
            self._p_memo = {}
            self._c_memo = {}
            self._memo_gen = self._gen
        memo = self._p_memo
        state = memo.get(addr)
        if state is None:
            state = memo[addr] = self.persistence.get(addr)
        return state

    def consistency_at(self, addr):
        if self._memo_gen != self._gen:
            self._p_memo = {}
            self._c_memo = {}
            self._memo_gen = self._gen
        memo = self._c_memo
        state = memo.get(addr)
        if state is None:
            state = memo[addr] = self.consistency.get(addr)
        return state


class ShadowCheckpointCache:
    """Shadow checkpoints at failure-point markers, keyed by fid.

    The pre-failure replay captures one at every marker that has a
    live post-failure task, before any task is dispatched; each task
    then runs against a fork of its marker's checkpoint.  Checkpoints
    stay in the parent: a warm worker forks the same states from its
    own ``repro.core.detector.ShadowCursor``.
    """

    def __init__(self):
        self._checkpoints = {}

    def capture(self, fid, shadow):
        self._checkpoints[fid] = shadow.checkpoint()

    def __contains__(self, fid):
        return fid in self._checkpoints

    def __len__(self):
        return len(self._checkpoints)

    def __getitem__(self, fid):
        return self._checkpoints[fid]


def _covered_by(start, end, ranges):
    """Is ``[start, end)`` fully covered by the (addr, size) ranges?"""
    remaining = [(start, end)]
    for r_addr, r_size in ranges:
        r_end = r_addr + r_size
        next_remaining = []
        for s, e in remaining:
            if r_end <= s or e <= r_addr:
                next_remaining.append((s, e))
                continue
            if s < r_addr:
                next_remaining.append((s, r_addr))
            if r_end < e:
                next_remaining.append((r_end, e))
        remaining = next_remaining
        if not remaining:
            return True
    return not remaining


def _subtract(start, end, hole):
    """Yield sub-windows of [start, end) outside AddressRange ``hole``."""
    if hole.end <= start or end <= hole.start:
        yield start, end
        return
    if start < hole.start:
        yield start, hole.start
    if hole.end < end:
        yield hole.end, end
