"""Mechanism inference over pre-failure traces (the Silhouette move).

Every store a workload traces is protected by *some* crash-consistency
mechanism — a PMDK transaction, one of the Table 1 patterns encoded in
``repro.mechanisms`` (undo/redo/operational logging, shadow paging,
checkpointing, checksum recovery), or nothing at all.  This pass
recovers that mechanism from the trace alone:

* PMDK transactions announce themselves (``TX_BEGIN``/``TX_ADD``/
  ``TX_COMMIT`` markers) — stores covered by added ranges or
  transaction-local allocations are undo-journaled by the library.
* Annotated commit variables (``COMMIT_VAR``/``COMMIT_RANGE`` markers,
  Table 2) are classified structurally: a self-covering word-sized
  variable is a shadow-paging commit pointer; a larger self-covering
  range is checksummed; a variable guarding disjoint member ranges is a
  journal head (undo vs redo vs operational by where the old values are
  read), a checkpoint selector (when *every* workload store belongs to
  the mechanism), or — when no pattern fits — decoration on otherwise
  unprotected stores.

Each classified mechanism yields *epochs* (one crash-consistent update
each, ending at the commit store) that ``repro.analysis.plans`` turns
into invariant-driven crash plans, and *invariant checks* whose
violations surface as ``XF-M*`` findings:

* ``XF-M001`` — store bypasses its mechanism (unlogged store in a
  transaction, in-place store of never-backed-up data inside an
  undo/operational window, checkpoint epoch writing the snapshot it
  reads);
* ``XF-M002`` — commit record persisted before the log/member data it
  covers (the ``valid_before_log`` family);
* ``XF-M003`` — checksummed data never flushed after its last store;
* ``XF-M004`` — shadow pointer swapped while the freshly allocated
  copy is still volatile.

The pass is purely structural — it never looks at store *values* — and
deliberately conservative: anything it cannot prove collapses to
``unprotected``, which emits no epochs and therefore prunes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._location import UNKNOWN_LOCATION
from repro.analysis.findings import AnalysisReport, AnalysisStats, Finding
from repro.trace.events import EventKind

#: Cache-line granularity of the simulated persistence domain.
LINE = 64

# -- mechanism kinds (Table 1 rows + the two fallthroughs) -------------
UNDO_JOURNALED = "undo-journaled"
REDO_JOURNALED = "redo-journaled"
OPERATIONAL_LOGGED = "operational-logged"
SHADOW_PAGED = "shadow-paged"
CHECKPOINTED = "checkpointed"
CHECKSUMMED = "checksummed"
UNPROTECTED = "unprotected"

MECH_KINDS = (
    UNDO_JOURNALED,
    REDO_JOURNALED,
    OPERATIONAL_LOGGED,
    SHADOW_PAGED,
    CHECKPOINTED,
    CHECKSUMMED,
    UNPROTECTED,
)

#: Kinds whose epochs collapse to invariant-driven plans.  Checksummed
#: data is validated *by value* at recovery time — the interesting crash
#: states are the torn ones in the middle, so its epochs never collapse.
COLLAPSIBLE_KINDS = frozenset({
    UNDO_JOURNALED,
    REDO_JOURNALED,
    OPERATIONAL_LOGGED,
    SHADOW_PAGED,
    CHECKPOINTED,
})

_STORE_KINDS = (EventKind.STORE, EventKind.NT_STORE)


def _lines(start, end):
    """The cache-line indices a byte range [start, end) touches."""
    return range(start // LINE, (end + LINE - 1) // LINE)


def _covered(start, end, ranges):
    """True when [start, end) is fully inside the union of ``ranges``.

    Ranges are (start, end) pairs; coverage is checked by sweeping the
    sorted union, so abutting fragments compose.
    """
    if start >= end:
        return True
    cursor = start
    for rs, re_ in sorted(ranges):
        if rs > cursor:
            break
        cursor = max(cursor, re_)
        if cursor >= end:
            return True
    return False


def _overlaps(start, end, ranges):
    return any(rs < end and start < re_ for rs, re_ in ranges)


# ----------------------------------------------------------------------
# Persistence tracker
# ----------------------------------------------------------------------


class _WriteRecord:
    """One store whose bytes have not all reached the media yet."""

    __slots__ = ("start", "end", "seq", "ip", "nt", "pending", "flushed")

    def __init__(self, start, end, seq, ip, nt):
        self.start = start
        self.end = end
        self.seq = seq
        self.ip = ip
        self.nt = nt
        #: Lines written but not yet flushed.
        self.pending = set(_lines(start, end))
        #: Lines flushed (CLWB/CLFLUSHOPT) but not yet fenced.
        self.flushed = set()

    def persisted(self):
        return not self.pending and not self.flushed

    def unpersisted_overlap(self, start, end):
        """True when an unpersisted byte of this record lies in range."""
        lo = max(self.start, start)
        hi = min(self.end, end)
        if lo >= hi:
            return False
        live = self.pending | self.flushed
        return any(line in live for line in _lines(lo, hi))


class _PersistTracker:
    """Which written bytes are still volatile, at line granularity.

    Mirrors the shadow-PM FSM just enough for invariant checks: a store
    is *volatile* until each of its lines is CLFLUSHed (immediate) or
    CLWB/CLFLUSHOPT-flushed and then fenced.  Non-temporal stores drain
    at the next fence.
    """

    def __init__(self):
        self.records = []

    def store(self, event, nt=False):
        self.records.append(
            _WriteRecord(event.addr, event.end, event.seq, event.ip, nt)
        )

    def flush(self, event):
        line = event.addr // LINE
        immediate = event.info == "CLFLUSH"
        for record in self.records:
            if line in record.pending:
                record.pending.discard(line)
                if not immediate:
                    record.flushed.add(line)
            elif immediate:
                record.flushed.discard(line)
        if immediate:
            self.records = [
                r for r in self.records if not r.persisted()
            ]

    def fence(self):
        kept = []
        for record in self.records:
            if record.nt:
                continue  # drained
            record.flushed.clear()
            if record.pending:
                kept.append(record)
        self.records = kept

    def unpersisted_in(self, start, end):
        """Unpersisted records overlapping [start, end)."""
        return [
            r for r in self.records
            if r.unpersisted_overlap(start, end)
        ]


# ----------------------------------------------------------------------
# Inference results
# ----------------------------------------------------------------------


@dataclass
class MechEpoch:
    """One crash-consistent update interval of a classified mechanism.

    ``start``/``end`` bound the epoch in trace sequence numbers
    (half-open on the left: an event at ``start`` belongs to the
    previous epoch); ``commit`` is the sequence number of the commit
    store (or commit marker for transactions).  A ``violated`` epoch
    carries an invariant violation and must never be collapsed.
    """

    kind: str
    source: str
    start: int
    end: int
    commit: int
    tid: int = 0
    violated: bool = False

    def contains(self, seq):
        return self.start < seq <= self.end

    def to_dict(self):
        return {
            "kind": self.kind,
            "source": self.source,
            "start": self.start,
            "end": self.end,
            "commit": self.commit,
            "tid": self.tid,
            "violated": self.violated,
        }


@dataclass
class MechViolation:
    """One invariant violation, pre-formatting (findings derive)."""

    rule: str
    seq: int
    ip: object
    message: str
    source: str = ""

    def to_finding(self):
        ip = self.ip if self.ip is not None else UNKNOWN_LOCATION
        return Finding(
            rule=self.rule,
            file=ip.filename,
            line=ip.lineno,
            message=self.message,
            function=ip.function,
        )


@dataclass
class CommitVarClass:
    """Classification of one annotated commit variable."""

    name: str
    kind: str
    ranges: list = field(default_factory=list)
    members: list = field(default_factory=list)
    cv_stores: int = 0
    windows: int = 0
    epochs: int = 0

    def to_dict(self):
        return {
            "name": self.name,
            "kind": self.kind,
            "ranges": [list(r) for r in self.ranges],
            "members": [list(m) for m in self.members],
            "cv_stores": self.cv_stores,
            "windows": self.windows,
            "epochs": self.epochs,
        }


@dataclass
class MechReport:
    """Everything mechanism inference learned from one trace."""

    target: str
    epochs: list = field(default_factory=list)
    commit_vars: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    #: Classified workload stores, keyed by mechanism kind.
    store_counts: dict = field(default_factory=dict)
    #: Workload stores seen (lib internals and setup excluded).
    stores_seen: int = 0
    events_seen: int = 0

    def findings(self):
        return [v.to_finding() for v in self.violations]

    def to_dict(self):
        return {
            "target": self.target,
            "events_seen": self.events_seen,
            "stores_seen": self.stores_seen,
            "store_counts": dict(self.store_counts),
            "commit_vars": [cv.to_dict() for cv in self.commit_vars],
            "epochs": [e.to_dict() for e in self.epochs],
            "violations": [
                {
                    "rule": v.rule,
                    "seq": v.seq,
                    "source": v.source,
                    "message": v.message,
                }
                for v in self.violations
            ],
        }


# ----------------------------------------------------------------------
# Per-commit-variable trace state
# ----------------------------------------------------------------------


class _CvState:
    """Raw per-commit-variable observations, classified afterwards."""

    def __init__(self, name):
        self.name = name
        self.ranges = []  # declared cv ranges
        self.members = []  # declared member ranges
        self.register_seq = None
        #: (seq, ip, pending_member, pending_alloc) per cv-range store.
        self.cv_stores = []
        self.member_stores = []  # (seq, start, end, ip)
        self.member_loads = []  # (seq, start, end)

    def covers_cv(self, start, end):
        return _overlaps(start, end, self.ranges)

    def covers_member(self, start, end):
        return _overlaps(start, end, self.members)

    def disjoint_members(self):
        """Member ranges carrying data the commit variable does not
        itself contain (a journal head's log entry, a checkpoint's
        snapshots) — as opposed to self-covering declarations where the
        variable *is* the protected data."""
        return [
            m for m in self.members
            if not _overlaps(m[0], m[1], self.ranges)
        ]


class _TxState:
    """One open PMDK transaction on one thread."""

    def __init__(self, txid, begin_seq):
        self.txid = txid
        self.begin_seq = begin_seq
        self.added = []  # ranges journaled via TX_ADD
        self.allocs = []  # ranges allocated inside this tx
        self.violated = False


# ----------------------------------------------------------------------
# The inference pass
# ----------------------------------------------------------------------


class _MechPass:
    def __init__(self, target):
        self.target = target
        self.tracker = _PersistTracker()
        self.cvs = {}  # name -> _CvState, registration order
        self.txs = {}  # tid -> _TxState
        self.lib_depth = {}  # tid -> depth
        self.skip_depth = 0
        self.violations = []
        self.epochs = []
        self.tx_store_seqs = []  # (seq, covered) for tx stores
        self.workload_stores = []  # (seq, start, end, ip)
        self.workload_loads = []  # (seq, start, end)
        self.allocs = []  # [seq, start, end, written] (mutable flag)
        self.stores_seen = 0
        self.events_seen = 0

    # -- event dispatch ------------------------------------------------

    def run(self, events):
        for event in events:
            self.events_seen += 1
            kind = event.kind
            if kind is EventKind.SKIP_DET_BEGIN:
                self.skip_depth += 1
            elif kind is EventKind.SKIP_DET_END:
                self.skip_depth = max(0, self.skip_depth - 1)
            elif self.skip_depth > 0:
                continue  # setup / excluded region
            elif kind is EventKind.LIB_BEGIN:
                self.lib_depth[event.tid] = (
                    self.lib_depth.get(event.tid, 0) + 1
                )
            elif kind is EventKind.LIB_END:
                depth = self.lib_depth.get(event.tid, 0)
                self.lib_depth[event.tid] = max(0, depth - 1)
            elif kind in _STORE_KINDS:
                self._on_store(event, kind is EventKind.NT_STORE)
            elif kind is EventKind.LOAD:
                self._on_load(event)
            elif kind is EventKind.FLUSH:
                self.tracker.flush(event)
            elif kind is EventKind.FENCE:
                self.tracker.fence()
            elif kind is EventKind.COMMIT_VAR:
                self._on_commit_var(event)
            elif kind is EventKind.COMMIT_RANGE:
                self._on_commit_range(event)
            elif kind is EventKind.TX_BEGIN:
                self.txs[event.tid] = _TxState(event.info, event.seq)
            elif kind is EventKind.TX_ADD:
                tx = self.txs.get(event.tid)
                if tx is not None:
                    tx.added.append((event.addr, event.end))
            elif kind is EventKind.TX_COMMIT:
                self._on_tx_commit(event)
            elif kind is EventKind.TX_ABORT:
                self.txs.pop(event.tid, None)
            elif kind is EventKind.ALLOC:
                self.allocs.append(
                    [event.seq, event.addr, event.end, False]
                )
                tx = self.txs.get(event.tid)
                if tx is not None:
                    tx.allocs.append((event.addr, event.end))
        return self._finish()

    # -- stores / loads ------------------------------------------------

    def _on_store(self, event, nt):
        in_lib = self.lib_depth.get(event.tid, 0) > 0
        # Commit-variable stores are semantic regardless of who issues
        # them (the shadow-paging swap goes through a trusted library
        # helper); invariant snapshots are taken *before* the store's
        # own record muddies the picture.
        for cv in self.cvs.values():
            if cv.covers_cv(event.addr, event.end):
                pending_member = any(
                    self.tracker.unpersisted_in(ms, me)
                    for ms, me in cv.disjoint_members()
                )
                cv.cv_stores.append(
                    (event.seq, event.ip, pending_member,
                     self._pending_fresh_alloc())
                )
            if cv.covers_member(event.addr, event.end):
                cv.member_stores.append(
                    (event.seq, event.addr, event.end, event.ip)
                )
        self.tracker.store(event, nt=nt)
        if in_lib:
            return
        self.stores_seen += 1
        self.workload_stores.append(
            (event.seq, event.addr, event.end, event.ip)
        )
        for alloc in self.allocs:
            if alloc[1] < event.end and event.addr < alloc[2]:
                alloc[3] = True
        tx = self.txs.get(event.tid)
        if tx is not None:
            covered = (
                _covered(event.addr, event.end, tx.added)
                or _covered(event.addr, event.end, tx.allocs)
            )
            self.tx_store_seqs.append((event.seq, covered))
            if not covered:
                tx.violated = True
                self.violations.append(MechViolation(
                    rule="XF-M001",
                    seq=event.seq,
                    ip=event.ip,
                    source=f"tx:{tx.txid}",
                    message=(
                        "store inside transaction "
                        f"{tx.txid} bypasses the undo journal: "
                        f"[{event.addr:#x},+{event.size}] was never "
                        "TX_ADDed nor allocated in this transaction"
                    ),
                ))

    def _pending_fresh_alloc(self):
        """True when the most recent workload-written allocation still
        has volatile bytes — the shadow-paging swap invariant."""
        for seq, start, end, written in reversed(self.allocs):
            if not written:
                continue
            return bool(self.tracker.unpersisted_in(start, end))
        return False

    def _on_load(self, event):
        in_lib = self.lib_depth.get(event.tid, 0) > 0
        for cv in self.cvs.values():
            if cv.covers_member(event.addr, event.end):
                cv.member_loads.append(
                    (event.seq, event.addr, event.end)
                )
        if in_lib:
            return
        self.workload_loads.append((event.seq, event.addr, event.end))

    # -- markers -------------------------------------------------------

    def _on_commit_var(self, event):
        cv = self.cvs.get(event.info)
        if cv is None:
            cv = self.cvs[event.info] = _CvState(event.info)
            cv.register_seq = event.seq
        if event.size:
            cv.ranges.append((event.addr, event.end))

    def _on_commit_range(self, event):
        cv = self.cvs.get(event.info)
        if cv is None:
            cv = self.cvs[event.info] = _CvState(event.info)
            cv.register_seq = event.seq
        cv.members.append((event.addr, event.end))

    def _on_tx_commit(self, event):
        tx = self.txs.pop(event.tid, None)
        if tx is None:
            return
        self.epochs.append(MechEpoch(
            kind=UNDO_JOURNALED,
            source=f"tx:{tx.txid}",
            start=tx.begin_seq,
            end=event.seq,
            commit=event.seq,
            tid=event.tid,
            violated=tx.violated,
        ))

    # -- classification (post-pass) ------------------------------------

    def _finish(self):
        report = MechReport(target=self.target)
        report.events_seen = self.events_seen
        report.stores_seen = self.stores_seen
        report.epochs = list(self.epochs)
        report.violations = list(self.violations)
        claimed = {}  # workload store seq -> mechanism kind

        for seq, covered in self.tx_store_seqs:
            if covered:
                claimed[seq] = UNDO_JOURNALED

        for cv in self.cvs.values():
            cls = self._classify_cv(cv, report)
            report.commit_vars.append(cls)
            if cls.kind == UNPROTECTED:
                continue
            for seq, start, end, _ in self.workload_stores:
                if seq in claimed:
                    continue
                if (
                    cv.covers_cv(start, end)
                    or cv.covers_member(start, end)
                ):
                    claimed[seq] = cls.kind

        # Journal/checkpoint epochs also claim the in-place stores
        # inside them (the redo apply, the journaled undo update).
        for epoch in report.epochs:
            if epoch.source.startswith("tx:"):
                continue
            for seq, _, _, _ in self.workload_stores:
                if seq not in claimed and epoch.contains(seq):
                    claimed[seq] = epoch.kind

        # A violating store is, by definition, not protected.
        violated_seqs = {v.seq for v in report.violations}
        counts = {kind: 0 for kind in MECH_KINDS}
        for seq, _, _, _ in self.workload_stores:
            if seq in violated_seqs:
                counts[UNPROTECTED] += 1
            else:
                counts[claimed.get(seq, UNPROTECTED)] += 1
        report.store_counts = counts

        # Poison epochs containing a violation.
        for epoch in report.epochs:
            if epoch.violated:
                continue
            if any(epoch.contains(seq) for seq in violated_seqs):
                epoch.violated = True
        report.epochs.sort(key=lambda e: (e.start, e.end, e.source))
        return report

    def _classify_cv(self, cv, report):
        cls = CommitVarClass(
            name=cv.name,
            kind=UNPROTECTED,
            ranges=list(cv.ranges),
            members=list(cv.members),
            cv_stores=len(cv.cv_stores),
        )
        if not cv.ranges or not cv.members:
            return cls
        disjoint = cv.disjoint_members()
        if not disjoint:
            # Self-covering: the variable *is* the protected data.
            extent = sum(e - s for s, e in self._union(cv.ranges))
            if extent <= 8:
                cls.kind = SHADOW_PAGED
                self._check_shadow(cv, report)
                # One epoch per swap: recovery follows the pointer to
                # either the old or the committed new copy, so only
                # the swap boundaries are interesting crash states.
                prev = cv.register_seq or 0
                for seq, _, _, _ in cv.cv_stores:
                    report.epochs.append(MechEpoch(
                        kind=SHADOW_PAGED,
                        source=cv.name,
                        start=prev,
                        end=seq,
                        commit=seq,
                    ))
                    prev = seq
                cls.epochs = len(cv.cv_stores)
            else:
                cls.kind = CHECKSUMMED
                self._check_checksum(cv, report)
            return cls

        stores = sorted(s for s, _, _, _ in cv.cv_stores)
        if not stores:
            return cls
        # Pair commit-variable stores alternately into windows
        # [set_i, clear_i]; an odd count leaves an open window whose
        # epoch never completes (and therefore never collapses).
        windows = [
            (stores[i], stores[i + 1])
            for i in range(0, len(stores) - 1, 2)
        ]
        cls.windows = len(windows)
        origin = cv.register_seq or 0

        member_store_seqs = sorted(s for s, _, _, _ in cv.member_stores)
        phases = []  # logging phases: (phase_start, set_seq)
        prev_clear = origin
        for set_seq, clear_seq in windows:
            phases.append((prev_clear, set_seq))
            prev_clear = clear_seq
        journal_guard = any(
            any(ps < s < pe for s, _, _, _ in cv.member_stores)
            for ps, pe in phases
        )
        inwindow = [
            (seq, start, end, ip)
            for seq, start, end, ip in self.workload_stores
            if any(ws < seq < we for ws, we in windows)
            and not cv.covers_cv(start, end)
            and not cv.covers_member(start, end)
        ]

        if journal_guard and inwindow:
            cls.kind = self._journal_kind(cv, phases, inwindow)
            prev_clear = origin
            for set_seq, clear_seq in windows:
                report.epochs.append(MechEpoch(
                    kind=cls.kind,
                    source=cv.name,
                    start=prev_clear,
                    end=clear_seq,
                    commit=set_seq,
                ))
                prev_clear = clear_seq
            cls.epochs = len(windows)
            if cls.kind in (UNDO_JOURNALED, OPERATIONAL_LOGGED):
                self._check_journal_inplace(cv, phases, windows,
                                            inwindow, report)
            self._emit_commit_before_log(cv, report)
            return cls

        # Checkpoint: every workload store in the variable's activity
        # span belongs to the mechanism (snapshots + selector).
        span = self._activity_span(cv)
        if span is not None:
            lo, hi = span
            foreign = [
                (seq, start, end)
                for seq, start, end, _ in self.workload_stores
                if lo <= seq <= hi
                and not cv.covers_cv(start, end)
                and not cv.covers_member(start, end)
            ]
            if not foreign and member_store_seqs:
                cls.kind = CHECKPOINTED
                prev = origin
                for flip in stores:
                    report.epochs.append(MechEpoch(
                        kind=CHECKPOINTED,
                        source=cv.name,
                        start=prev,
                        end=flip,
                        commit=flip,
                    ))
                    prev = flip
                cls.epochs = len(stores)
                self._check_checkpoint(cv, stores, origin, report)
                self._emit_commit_before_log(cv, report)
                return cls

        # No pattern fits: the declaration only marks benign reads.
        self._emit_commit_before_log(cv, report)
        return cls

    @staticmethod
    def _union(ranges):
        merged = []
        for start, end in sorted(ranges):
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return merged

    def _activity_span(self, cv):
        seqs = [s for s, _, _, _ in cv.cv_stores]
        seqs += [s for s, _, _, _ in cv.member_stores]
        if not seqs:
            return None
        return min(seqs), max(seqs)

    def _journal_kind(self, cv, phases, inwindow):
        """Undo vs redo vs operational, by where old values are read.

        Redo logs never read the in-place data while logging (the new
        value is computed forward); operational logs read it *before*
        recording the operation; undo logs read it mid-entry (the
        backup copies the pre-image).
        """
        inplace = self._union(
            [(start, end) for _, start, end, _ in inwindow]
        )
        relevant = []  # (load_seq, phase_index)
        for idx, (ps, pe) in enumerate(phases):
            for seq, start, end in self.workload_loads:
                if ps < seq < pe and _overlaps(start, end, inplace):
                    relevant.append((seq, idx))
        if not relevant:
            return REDO_JOURNALED
        for seq, idx in relevant:
            ps, pe = phases[idx]
            first_member = min(
                (s for s, _, _, _ in cv.member_stores if ps < s < pe),
                default=None,
            )
            if first_member is not None and seq > first_member:
                return UNDO_JOURNALED
        return OPERATIONAL_LOGGED

    # -- invariant checks ----------------------------------------------

    def _check_journal_inplace(self, cv, phases, windows, inwindow,
                               report):
        """XF-M001 (journal variant): an in-place store inside an
        undo/operational window whose pre-image was never read during
        the logging phase cannot have been backed up."""
        for widx, (ws, we) in enumerate(windows):
            ps, pe = phases[widx]
            logged = self._union([
                (start, end)
                for seq, start, end in self.workload_loads
                if ps < seq < pe
            ])
            for seq, start, end, ip in inwindow:
                if not ws < seq < we:
                    continue
                if not _covered(start, end, logged):
                    report.violations.append(MechViolation(
                        rule="XF-M001",
                        seq=seq,
                        ip=ip,
                        source=cv.name,
                        message=(
                            "in-place store inside the "
                            f"{cv.name!r} journal window was never "
                            "backed up: "
                            f"[{start:#x},+{end - start}] is not "
                            "covered by the logging phase's reads"
                        ),
                    ))

    def _emit_commit_before_log(self, cv, report):
        """XF-M002: the commit store found member data still volatile."""
        if not cv.disjoint_members():
            return
        for seq, ip, pending_member, _ in cv.cv_stores:
            if pending_member:
                report.violations.append(MechViolation(
                    rule="XF-M002",
                    seq=seq,
                    ip=ip,
                    source=cv.name,
                    message=(
                        f"commit variable {cv.name!r} stored while "
                        "its member data is still volatile — the "
                        "commit record can persist before the log"
                    ),
                ))

    def _check_checkpoint(self, cv, flips, origin, report):
        """XF-M001 (checkpoint variant): an epoch that writes the very
        snapshot it reads updates the committed checkpoint in place."""
        prev = origin
        for flip in flips:
            loads = self._union([
                (start, end)
                for seq, start, end in cv.member_loads
                if prev < seq < flip
            ])
            for seq, start, end, ip in cv.member_stores:
                if not prev < seq < flip:
                    continue
                if _overlaps(start, end, loads):
                    report.violations.append(MechViolation(
                        rule="XF-M001",
                        seq=seq,
                        ip=ip,
                        source=cv.name,
                        message=(
                            f"checkpoint epoch of {cv.name!r} writes "
                            "the snapshot it reads — the committed "
                            "checkpoint is modified in place"
                        ),
                    ))
                    return
            prev = flip

    def _check_shadow(self, cv, report):
        """XF-M004: swap while the fresh copy is still volatile."""
        for seq, ip, _, pending_alloc in cv.cv_stores:
            if pending_alloc:
                report.violations.append(MechViolation(
                    rule="XF-M004",
                    seq=seq,
                    ip=ip,
                    source=cv.name,
                    message=(
                        f"shadow pointer {cv.name!r} swapped while "
                        "the freshly allocated copy still has "
                        "volatile bytes"
                    ),
                ))

    def _check_checksum(self, cv, report):
        """XF-M003: checksummed bytes never flushed after the last
        store — the checksum can never validate what the media holds."""
        leftover = []
        for s, e in self._union(cv.ranges):
            for record in self.tracker.unpersisted_in(s, e):
                if record.pending and not record.nt:
                    leftover.append(record)
        for record in leftover:
            report.violations.append(MechViolation(
                rule="XF-M003",
                seq=record.seq,
                ip=record.ip,
                source=cv.name,
                message=(
                    f"checksummed range of {cv.name!r} written at "
                    f"[{record.start:#x},+"
                    f"{record.end - record.start}] but never "
                    "flushed — recovery validates data the media "
                    "does not hold"
                ),
            ))


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def infer_mechanisms(events, target="trace"):
    """Run mechanism inference over an iterable of trace events."""
    return _MechPass(target).run(events)


def analyze_mechanisms_workload(workload, config=None):
    """Trace ``workload``'s pre-failure stage (no injection, no
    post-failure executions) and lint the trace's mechanism usage.

    Returns an :class:`AnalysisReport` whose findings are the XF-M*
    invariant violations; the full :class:`MechReport` rides along as
    the report's ``mech`` attribute.
    """
    from repro.core.config import DetectorConfig
    from repro.core.frontend import Frontend

    if config is None:
        config = DetectorConfig(
            inject_failures=False,
            progress=False,
        )
    result = Frontend(config).run(workload)
    name = getattr(workload, "name", type(workload).__name__)
    mech = infer_mechanisms(
        result.pre_recorder, target=f"mech:{name}"
    )
    report = AnalysisReport(
        target=f"mech:{name}",
        findings=mech.findings(),
        stats=AnalysisStats(
            paths=1,
            steps=mech.events_seen,
            functions=0,
            lines_covered=0,
            lines_certified=0,
        ),
    )
    report.mech = mech
    return report
