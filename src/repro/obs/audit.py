"""Shadow-PM audit log: every FSM transition, with provenance.

When enabled (``DetectorConfig.audit``), the backend's shadow PM
records one :class:`AuditRecord` per persistence/consistency state
transition: the address range, the old and new state, the operation
that caused it (``STORE``, ``FLUSH``, ``SFENCE``, ``TX_ADD``, ...),
the global epoch, the replay stage, the failure point under analysis,
the source location of the responsible instruction, and a wall-clock
timestamp.

This mechanizes the paper's Figure 11 walkthrough: given a reported
cross-failure race at some address range, ``for_range()`` returns the
exact ``WRITE``/``FLUSH``/``SFENCE`` history that left the range
unpersisted, with the last writer's ``file:line`` matching the bug
report's ``writer_ip``.

The log is strictly opt-in — the shadow PM checks ``audit is None``
before doing any of the extra range iteration.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, replace


def _state_name(state):
    """Stable string for a shadow state (enum name, or None)."""
    if state is None:
        return None
    if isinstance(state, enum.Enum):
        return state.name
    return str(state)


@dataclass(frozen=True)
class AuditRecord:
    """One shadow-PM state transition."""

    seq: int
    op: str  # STORE / NT_STORE / FLUSH / CLFLUSH / SFENCE / TX_ADD ...
    layer: str  # "persistence" or "consistency"
    addr: int
    size: int
    old: str | None
    new: str | None
    epoch: int
    stage: str | None  # "pre" or "post" replay
    failure_point: int | None
    ip: str | None  # source location of the causing instruction
    ts: float  # wall-clock timestamp

    @property
    def end(self):
        return self.addr + self.size

    def to_dict(self):
        return {
            "type": "audit",
            "seq": self.seq,
            "op": self.op,
            "layer": self.layer,
            "addr": self.addr,
            "size": self.size,
            "old": self.old,
            "new": self.new,
            "epoch": self.epoch,
            "stage": self.stage,
            "failure_point": self.failure_point,
            "ip": self.ip,
            "ts": self.ts,
        }

    def __str__(self):
        stage = f" {self.stage}" if self.stage else ""
        fid = (
            f"@fp{self.failure_point}"
            if self.failure_point is not None else ""
        )
        ip = f" by {self.ip}" if self.ip else ""
        return (
            f"#{self.seq}{stage}{fid} {self.op} "
            f"[{self.addr:#x},+{self.size}] {self.layer}: "
            f"{self.old} -> {self.new} (epoch {self.epoch}){ip}"
        )


class AuditLog:
    """Ordered shadow-PM transition records."""

    def __init__(self, clock=time.time):
        self._clock = clock
        self.records = []
        #: fid -> index into ``records`` of that failure point's first
        #: fork record (pre-failure transitions with a smaller index
        #: are the fork's inherited history).
        self.fork_positions = {}

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def record(self, op, layer, addr, size, old, new, epoch,
               ip=None, stage=None, failure_point=None):
        """Append one transition; enum states are stringified here so
        export needs no further translation."""
        self.records.append(AuditRecord(
            seq=len(self.records),
            op=op,
            layer=layer,
            addr=addr,
            size=size,
            old=_state_name(old),
            new=_state_name(new),
            epoch=epoch,
            stage=stage,
            failure_point=failure_point,
            ip=None if ip is None else str(ip),
            ts=self._clock(),
        ))

    def scoped(self, stage=None, failure_point=None):
        """A view that stamps every record with replay context.

        The backend gives the pre-failure shadow a ``stage="pre"``
        scope on the run's log, and each replay task's forked shadow a
        ``stage="post"`` scope carrying its failure-point id on a
        task-local log; :meth:`adopt` then merges the task logs into
        the run's log.
        """
        return _AuditScope(self, stage, failure_point)

    def adopt(self, records, fork_positions):
        """Make ``records`` this log's records: the pre-failure records
        with each fork's records merged in at its marker, in order.

        ``seq`` is renumbered to each record's index, and
        ``fork_positions`` (fid -> index of that failure point's first
        fork record) is noted, first position per fid.
        """
        self.records = [
            record if record.seq == seq
            else replace(record, seq=seq)
            for seq, record in enumerate(records)
        ]
        for fid, position in fork_positions.items():
            self.fork_positions.setdefault(fid, position)

    # -- queries ----------------------------------------------------------

    def for_range(self, addr, size=1):
        """Transition history overlapping ``[addr, addr+size)``."""
        end = addr + size
        return [
            record for record in self.records
            if record.addr < end and addr < record.end
        ]

    def history_for(self, addr, size=1, failure_point=None):
        """The FSM history relevant to a bug at one failure point:
        pre-failure transitions up to the fork, plus that fork's own
        post-failure transitions.  With ``failure_point=None``, the
        whole per-range history."""
        records = self.for_range(addr, size)
        if failure_point is None:
            return records
        cut = self.fork_positions.get(failure_point)
        return [
            record for record in records
            if record.failure_point == failure_point
            or (
                record.stage == "pre"
                and (cut is None or record.seq < cut)
            )
        ]

    def last_writer(self, addr, size=1, failure_point=None):
        """Source location of the newest store-like transition touching
        the range (the audit-side counterpart of a bug's writer_ip).
        Scoped to one failure point's history when given."""
        history = self.history_for(addr, size, failure_point)
        for record in reversed(history):
            if record.op in ("STORE", "NT_STORE", "TX_ADD") and record.ip:
                return record.ip
        return None

    # -- export ----------------------------------------------------------

    def to_records(self):
        for record in self.records:
            yield record.to_dict()

    def format(self, addr=None, size=1):
        """Human rendering; restrict to one range when ``addr`` given."""
        records = (
            self.records if addr is None else self.for_range(addr, size)
        )
        return "\n".join(str(record) for record in records)


class _AuditScope:
    """Context-stamping proxy over one :class:`AuditLog`."""

    __slots__ = ("log", "stage", "failure_point")

    def __init__(self, log, stage, failure_point):
        self.log = log
        self.stage = stage
        self.failure_point = failure_point

    def record(self, op, layer, addr, size, old, new, epoch, ip=None):
        self.log.record(
            op, layer, addr, size, old, new, epoch, ip=ip,
            stage=self.stage, failure_point=self.failure_point,
        )

    def scoped(self, stage=None, failure_point=None):
        return _AuditScope(
            self.log,
            stage if stage is not None else self.stage,
            failure_point if failure_point is not None
            else self.failure_point,
        )
