"""Typed incidents: harness faults the run absorbed instead of dying.

An :class:`Incident` records one absorbed fault with its failure-point
provenance — what kind of fault, during which phase, how many attempts
were made, and whether the failure point was ultimately *quarantined*
(its outcome lost) or healed by a retry.  The :class:`IncidentLog`
collects them across the post-failure phase; the detector attaches
the log's contents to the report, whose ``degraded`` flag is true
exactly when at least one incident was quarantined — partial results
are never silently presented as complete.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass


class IncidentKind(enum.Enum):
    """Taxonomy of absorbed harness faults.

    ``HANG``: an execution ran past its deadline (step or wall-clock
    budget) and was killed; typically a livelocked recovery loop on a
    corrupted crash image.

    ``WORKER_DEATH``: a pool worker died (broken pipe / nonzero exit,
    or a chaos-injected crash).  Transient — the key is requeued on a
    respawned worker.

    ``HARNESS_ERROR``: pipeline code raised a programming error
    (AttributeError, KeyError, ...) while running a task.
    Deterministic — quarantined after the first attempt.
    """

    HANG = "hang"
    WORKER_DEATH = "worker-death"
    HARNESS_ERROR = "harness-error"


@dataclass(frozen=True)
class Incident:
    """One absorbed harness fault, with provenance."""

    kind: IncidentKind
    #: Pipeline phase the fault occurred in ("post_exec").
    phase: str
    failure_point: int | None
    variant: int | None
    #: Failed attempts for this key so far (1 = first attempt failed).
    attempts: int
    #: True when the key's outcome was lost (no retry left, or the
    #: fault is deterministic); the report is degraded.  False when a
    #: later retry healed the fault.
    quarantined: bool
    detail: str

    def to_dict(self):
        return {
            "kind": self.kind.value,
            "phase": self.phase,
            "failure_point": self.failure_point,
            "variant": self.variant,
            "attempts": self.attempts,
            "quarantined": self.quarantined,
            "detail": self.detail,
        }

    def __str__(self):
        state = "quarantined" if self.quarantined else "retried"
        target = f"failure#{self.failure_point}"
        if self.variant is not None:
            target += f".v{self.variant}"
        return (
            f"[{self.kind.value}] {self.phase} {target} "
            f"attempt {self.attempts} {state}: {self.detail}"
        )


class IncidentLog:
    """Append-only, thread-safe incident collection for one run."""

    def __init__(self):
        self._incidents = []
        self._lock = threading.Lock()

    def record(self, incident):
        with self._lock:
            self._incidents.append(incident)
        return incident

    @property
    def incidents(self):
        with self._lock:
            return list(self._incidents)

    def __len__(self):
        with self._lock:
            return len(self._incidents)

    def __iter__(self):
        return iter(self.incidents)

    @property
    def degraded(self):
        """True when at least one failure point's outcome was lost."""
        return any(incident.quarantined for incident in self.incidents)

    def quarantined_points(self):
        """``(failure_point, variant)`` pairs whose outcome was lost."""
        return {
            (incident.failure_point, incident.variant)
            for incident in self.incidents
            if incident.quarantined
        }
