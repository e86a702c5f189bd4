"""Bug records and detection reports."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro._location import UNKNOWN_LOCATION, SourceLocation


class BugKind(enum.Enum):
    """The bug taxonomy of the paper (Figure 5), plus crashes.

    ``CROSS_FAILURE_RACE``: the post-failure stage read data modified by
    the pre-failure stage that was not guaranteed to be persisted
    (Section 3.1, Eq. 1) — including reads of allocated-but-never-
    initialized PM.

    ``CROSS_FAILURE_SEMANTIC``: the post-failure stage read persisted
    but semantically inconsistent data — uncommitted or stale under the
    program's crash-consistency mechanism (Section 3.2, Eq. 3).

    ``PERFORMANCE``: unnecessary PM operations in the pre-failure stage
    (redundant writebacks/fences, duplicated TX_ADD — Section 5.4).

    ``POST_FAILURE_CRASH``: the recovery/resumption code itself crashed,
    as in Bug 4's failed pool open.
    """

    CROSS_FAILURE_RACE = "cross-failure race"
    CROSS_FAILURE_SEMANTIC = "cross-failure semantic bug"
    PERFORMANCE = "performance bug"
    POST_FAILURE_CRASH = "post-failure crash"


@dataclass(frozen=True)
class Bug:
    """One detected bug occurrence."""

    kind: BugKind
    detail: str
    address: int = 0
    size: int = 0
    failure_point: int | None = None
    reader_ip: SourceLocation = UNKNOWN_LOCATION
    writer_ip: SourceLocation = UNKNOWN_LOCATION

    def dedup_key(self):
        """Bugs with the same key are one *distinct* bug reported at
        multiple failure points."""
        return (self.kind, self.reader_ip, self.writer_ip, self.detail)

    def __str__(self):
        parts = [f"[{self.kind.value}]"]
        if self.size:
            parts.append(f"addr={self.address:#x}+{self.size}")
        if self.failure_point is not None:
            parts.append(f"failure#{self.failure_point}")
        parts.append(self.detail)
        if self.reader_ip is not UNKNOWN_LOCATION:
            parts.append(f"reader={self.reader_ip}")
        if self.writer_ip is not UNKNOWN_LOCATION:
            parts.append(f"writer={self.writer_ip}")
        return " ".join(parts)


@dataclass
class DetectionStats:
    """Run statistics (used by the Figure 12/13 benches)."""

    failure_points: int = 0
    pre_trace_events: int = 0
    post_trace_events: int = 0
    #: Post-failure runs the backend actually replayed.  Can be lower
    #: than the number of runs when a replay was quarantined or a run's
    #: failure point has no marker in the pre-failure trace
    #: (``post_trace_events`` still counts every produced run — the
    #: marker-less count surfaces as the ``orphaned_post_runs`` metric).
    post_runs_analyzed: int = 0
    #: Post-failure executions skipped by crash-image dedup (their
    #: findings were cloned from a class representative).
    post_runs_deduped: int = 0
    #: Backend replays skipped by replay-prefix memoization (their
    #: bugs were cloned from an identical earlier replay).
    replays_deduped: int = 0
    benign_races: int = 0
    #: How the post-failure schedule was chosen
    #: (``DetectorConfig.plan_mode``).
    plan_mode: str = "exhaustive"
    #: Failure points whose post-failure run actually executed.  Equal
    #: to ``failure_points`` in exhaustive mode; the exhaustive-vs-plan
    #: delta (``failure_points_skipped_by_plan``) is what crash plans
    #: saved.
    failure_points_executed: int = 0
    failure_points_skipped_by_plan: int = 0
    pre_failure_seconds: float = 0.0
    post_failure_seconds: float = 0.0
    backend_seconds: float = 0.0

    @property
    def total_seconds(self):
        return (
            self.pre_failure_seconds
            + self.post_failure_seconds
            + self.backend_seconds
        )


@dataclass
class DetectionReport:
    """Everything a detection run produced."""

    workload_name: str = ""
    bugs: list = field(default_factory=list)
    stats: DetectionStats = field(default_factory=DetectionStats)
    #: Harness faults absorbed during the run
    #: (``repro.resilience.Incident``): worker deaths, deadline hangs,
    #: quarantined harness errors.  Empty on a fault-free run.
    incidents: list = field(default_factory=list)
    #: The run's ``repro.obs.Telemetry`` (spans, metrics, audit log);
    #: attached by the detector, excluded from ``to_dict``.
    telemetry: object | None = None

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def of_kind(self, kind):
        return [bug for bug in self.bugs if bug.kind is kind]

    @property
    def races(self):
        return self.of_kind(BugKind.CROSS_FAILURE_RACE)

    @property
    def semantic_bugs(self):
        return self.of_kind(BugKind.CROSS_FAILURE_SEMANTIC)

    @property
    def perf_bugs(self):
        return self.of_kind(BugKind.PERFORMANCE)

    @property
    def crashes(self):
        return self.of_kind(BugKind.POST_FAILURE_CRASH)

    def unique_bugs(self, kind=None):
        """Distinct bugs (first occurrence of each dedup key)."""
        seen = set()
        unique = []
        for bug in self.bugs:
            if kind is not None and bug.kind is not kind:
                continue
            key = bug.dedup_key()
            if key not in seen:
                seen.add(key)
                unique.append(bug)
        return unique

    @property
    def degraded(self):
        """True when at least one failure point's outcome was lost
        (quarantined): the report is incomplete and says so, rather
        than silently presenting partial results as a full run."""
        return any(
            incident.quarantined for incident in self.incidents
        )

    @property
    def has_cross_failure_bugs(self):
        return any(
            bug.kind in (
                BugKind.CROSS_FAILURE_RACE,
                BugKind.CROSS_FAILURE_SEMANTIC,
                BugKind.POST_FAILURE_CRASH,
            )
            for bug in self.bugs
        )

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def summary(self):
        unique = self.unique_bugs()
        counts = {}
        for bug in unique:
            counts[bug.kind] = counts.get(bug.kind, 0) + 1
        pieces = [
            f"{count} {kind.value}(s)" for kind, count in counts.items()
        ] or ["no bugs"]
        text = (
            f"{self.workload_name}: {', '.join(pieces)} across "
            f"{self.stats.failure_points} failure point(s), "
            f"{self.stats.benign_races} benign race read(s)"
        )
        if self.incidents:
            state = "DEGRADED" if self.degraded else "recovered"
            text += (
                f" [{state}: {len(self.incidents)} incident(s) "
                f"absorbed]"
            )
        return text

    def format(self, unique=True):
        lines = [self.summary()]
        bugs = self.unique_bugs() if unique else self.bugs
        for bug in bugs:
            lines.append(f"  {bug}")
        return "\n".join(lines)

    def to_dict(self, unique=True):
        """Machine-readable report (for ``xfdetector run --json``)."""
        bugs = self.unique_bugs() if unique else self.bugs
        return {
            "workload": self.workload_name,
            "bugs": [
                {
                    "kind": bug.kind.value,
                    "detail": bug.detail,
                    "address": bug.address,
                    "size": bug.size,
                    "failure_point": bug.failure_point,
                    "reader": str(bug.reader_ip),
                    "writer": str(bug.writer_ip),
                }
                for bug in bugs
            ],
            "incidents": [
                incident.to_dict() for incident in self.incidents
            ],
            "degraded": self.degraded,
            "stats": {
                "failure_points": self.stats.failure_points,
                "pre_trace_events": self.stats.pre_trace_events,
                "post_trace_events": self.stats.post_trace_events,
                "post_runs_analyzed": self.stats.post_runs_analyzed,
                "post_runs_deduped": self.stats.post_runs_deduped,
                "replays_deduped": self.stats.replays_deduped,
                "benign_races": self.stats.benign_races,
                "plan_mode": self.stats.plan_mode,
                "failure_points_executed":
                    self.stats.failure_points_executed,
                "failure_points_skipped_by_plan":
                    self.stats.failure_points_skipped_by_plan,
                "pre_failure_seconds": self.stats.pre_failure_seconds,
                "post_failure_seconds":
                    self.stats.post_failure_seconds,
                "backend_seconds": self.stats.backend_seconds,
            },
        }

    def to_json(self, unique=True, indent=2):
        import json

        return json.dumps(self.to_dict(unique), indent=indent)
