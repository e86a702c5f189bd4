"""The XFDetector facade: frontend + backend orchestration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._location import UNKNOWN_LOCATION
from repro.core.config import DetectorConfig
from repro.core.frontend import Frontend
from repro.core.replay import TraceReplayer, lower_trace
from repro.core.report import Bug, BugKind, DetectionReport
from repro.core.shadow import ShadowCheckpointCache, ShadowPM
from repro.exec.base import resolve_executor
from repro.obs import resolve_telemetry
from repro.resilience import IncidentLog
from repro.trace.events import KIND_CODE, EventKind

#: Marker instruction code in compiled replay programs.
_FP_CODE = KIND_CODE[EventKind.FAILURE_POINT]


@dataclass
class PreReplay:
    """What the one pre-failure replay leaves for the backend."""

    #: Pre-failure bugs (performance bugs), in trace order.
    bugs: list
    #: fid -> number of pre-failure bugs found before its marker: where
    #: the failure point's post-failure bugs splice in.
    bug_offsets: dict
    #: The pre-failure audit records, and fid -> how many preceded its
    #: marker (audited runs only).
    audit_records: list = field(default_factory=list)
    audit_offsets: dict = field(default_factory=dict)
    #: Shadow checkpoints at every marker with a live post task.
    checkpoints: ShadowCheckpointCache = field(
        default_factory=ShadowCheckpointCache
    )
    seconds: float = 0.0


def _markers(program):
    """``(index, fid)`` of each FAILURE_POINT marker in a replay
    program, in order."""
    return [
        (index, int(instr[3]))
        for index, instr in enumerate(program)
        if instr[0] == _FP_CODE
    ]


def replay_pre_trace(config, telemetry, pre_recorder, live_fids):
    """Replay the pre-failure trace once, checkpointing the shadow at
    each marker in ``live_fids``.

    The frontend calls this right before it dispatches the post-failure
    tasks, so every checkpoint a task forks exists up front.  It runs
    once per run, also when no task is planned: its performance bugs
    are part of the report.  Under audit the shadow's transitions go
    to the run's audit log, and each marker's position in it is kept
    for splicing the post-failure records.
    """
    tel = telemetry
    audit_log = tel.audit
    shadow = ShadowPM(
        platform=config.platform,
        audit=(
            audit_log.scoped(stage="pre")
            if audit_log is not None else None
        ),
        transition_counter=tel.metrics.counter("shadow_transitions_total"),
    )
    shell = DetectionReport()
    replayer = TraceReplayer(
        shadow, config, "pre", shell,
        has_roi=pre_recorder.has_roi, metrics=tel.metrics,
    )
    pre = PreReplay(shell.bugs, {})
    with tel.span("pre_replay") as span:
        program = lower_trace(pre_recorder)
        start = 0
        for index, fid in _markers(program):
            replayer.run_program(program[start:index])
            start = index
            pre.bug_offsets[fid] = len(shell.bugs)
            if audit_log is not None:
                pre.audit_offsets[fid] = len(audit_log.records)
            if fid in live_fids:
                pre.checkpoints.capture(fid, shadow)
        replayer.run_program(program[start:])
        replayer.finish()
    if audit_log is not None:
        pre.audit_records = audit_log.records
    pre.seconds = span.duration
    return pre


class ShadowCursor:
    """A warm worker's rolling shadow over the pre-failure trace.

    :meth:`fork` replays the trace forward to a failure point's marker
    and forks the live shadow there.  The program prefix and the
    replayer are the ones :func:`replay_pre_trace` runs, so each fork
    equals the checkpoint the parent captured at that marker, without
    the checkpoint crossing the pipe.  Forks in fid order cost one
    replay of the trace in all; a fid behind the cursor (a retry or
    fallback wave) restarts it from an empty shadow.

    The replayer has a private report and transition counter, no
    metrics and no audit hook: the parent's replay already reported,
    counted and audited the pre-failure trace.
    """

    def __init__(self, config, recorder):
        self._config = config
        self._has_roi = recorder.has_roi
        self._program = lower_trace(recorder)
        #: fid -> index of its FAILURE_POINT marker in the program.
        self._markers = {
            fid: index for index, fid in _markers(self._program)
        }
        self._restart()

    def _restart(self):
        self._shadow = ShadowPM(platform=self._config.platform)
        self._replayer = TraceReplayer(
            self._shadow, self._config, "pre", DetectionReport(),
            has_roi=self._has_roi,
        )
        self._position = 0

    def fork(self, fid, transition_counter=None):
        """A fork of the shadow as it stands at ``fid``'s marker,
        counting its transitions into ``transition_counter``."""
        index = self._markers[fid]
        if index < self._position:
            self._restart()
        self._replayer.run_program(self._program[self._position:index])
        self._position = index
        return self._shadow.fork_for_replay(transition_counter)


class XFDetector:
    """Cross-failure bug detector (the paper's tool).

    ``run(workload)`` executes the full Figure 7 pipeline: trace the
    pre-failure stage with failure injection, replay it against the
    shadow PM, run the post-failure stage per failure point while a
    fork of that point's shadow checkpoint checks each operation, and
    report cross-failure races, semantic bugs, and performance bugs.

    Every run is instrumented through ``repro.obs``: a span tree
    profiles the stages, the metrics registry counts the pipeline's
    decisions, and (when ``config.audit`` is set) the shadow PM logs
    every FSM transition.  The run's telemetry is attached to the
    returned report as ``report.telemetry``.

    Backend scheduling: one schedule.  :func:`replay_pre_trace` replays
    the pre-failure trace once, capturing a shadow checkpoint at each
    ``FAILURE_POINT`` marker with a live task; each post-failure task
    then checks its recovery against a fork of its checkpoint as it
    runs — independent tasks a ``repro.exec`` executor can fan out.
    :meth:`analyze` splices bugs, and under audit each task's audit
    records, back in marker order, so reports and audit logs are
    identical regardless of ``config.jobs``.  The naive whole-detector
    oracle in ``tests/oracle.py`` is the reference this schedule is
    checked against.
    """

    def __init__(self, config=None):
        self.config = config if config is not None else DetectorConfig()
        self.telemetry = resolve_telemetry(self.config)

    def run(self, workload):
        executor = resolve_executor(self.config, self.telemetry)
        # Spawn warm workers before the pre-failure stage runs: the
        # forked children stay minimal (no copy-on-write image of the
        # trace, snapshot store, or checkpoints).
        prewarm = getattr(executor, "prewarm", None)
        if prewarm is not None:
            prewarm()
        tel = self.telemetry
        workload_name = getattr(
            workload, "name", type(workload).__name__
        )
        tel.emit(
            "run_started", workload=workload_name,
            jobs=self.config.jobs, executor=executor.kind,
        )
        try:
            with tel.span("run", workload=workload_name):
                frontend_result = Frontend(
                    self.config, telemetry=self.telemetry,
                    executor=executor,
                ).run(workload)
                report = self.analyze(frontend_result)
            tel.emit(
                "run_finished", workload=workload_name,
                findings=len(report.bugs),
                stats=_deterministic_stats(report.stats),
            )
            return report
        finally:
            executor.close()

    # ------------------------------------------------------------------
    # Backend
    # ------------------------------------------------------------------

    def analyze(self, frontend_result):
        """Splice a frontend run's checked outcomes into the report.

        Pre-failure bugs found before a marker precede that failure
        point's post-failure bugs; under audit the tasks' audit records
        land at the same marker offsets.  Runs whose failure point has
        no marker in the pre-failure trace are never analyzed (the
        ``orphaned_post_runs`` gauge counts them); quarantined runs are
        absent (their incidents carry the provenance).  Every newly
        completed run is journaled here.
        """
        tel = self.telemetry
        report = DetectionReport(
            frontend_result.workload_name, telemetry=tel
        )
        stats = report.stats
        stats.failure_points = len(frontend_result.failure_points)
        stats.plan_mode = getattr(
            self.config, "plan_mode", "exhaustive"
        )
        planned = [
            fp for fp in frontend_result.failure_points
            if getattr(fp, "planned", True)
        ]
        stats.failure_points_executed = len(planned)
        stats.failure_points_skipped_by_plan = (
            stats.failure_points - len(planned)
        )
        stats.pre_trace_events = len(frontend_result.pre_recorder)
        stats.post_trace_events = sum(
            run.events for run in frontend_result.post_runs
        )
        stats.pre_failure_seconds = frontend_result.pre_seconds
        stats.post_failure_seconds = frontend_result.post_seconds
        stats.post_runs_deduped = stats.replays_deduped = getattr(
            frontend_result, "post_runs_deduped", 0
        )
        incident_log = getattr(frontend_result, "incidents", None)
        if incident_log is None:
            incident_log = IncidentLog()
        journal = getattr(frontend_result, "journal", None)
        pre = frontend_result.pre_replay

        # Canonical order: by failure point, base run first, then
        # variants — the order the frontend produces, re-imposed here
        # so hand-built results analyze identically.
        ordered_runs = sorted(
            frontend_result.post_runs,
            key=lambda run: (
                run.failure_point.fid,
                run.variant is not None,
                run.variant or 0,
            ),
        )
        tasks = [
            run for run in ordered_runs
            if run.failure_point.fid in pre.bug_offsets
        ]
        tel.metrics.gauge("orphaned_post_runs").set(
            len(ordered_runs) - len(tasks)
        )
        stats.post_runs_analyzed = len(tasks)
        tel.emit("phase_started", phase="backend")
        try:
            with tel.span("backend") as backend_span:
                for bug in pre.bugs:
                    _emit_finding(tel, bug)
                bug_chunks = []
                for run in tasks:
                    fid = run.failure_point.fid
                    run_bugs = list(run.bugs)
                    for bug in run_bugs:
                        _emit_finding(tel, bug)
                    stats.benign_races += run.benign_races
                    if run.crash is not None:
                        run_bugs.append(self._crash_bug(run))
                        _emit_finding(tel, run_bugs[-1])
                    bug_chunks.append((fid, run_bugs))
                    if journal is not None and run.journal_entry is None:
                        journal.record_post(
                            fid, run.variant,
                            events=run.events,
                            has_roi=run.has_roi,
                            crash_repr=(
                                repr(run.crash.original)
                                if run.crash is not None else None
                            ),
                            bugs=run.bugs,
                            benign_races=run.benign_races,
                        )
                report.bugs = _splice(
                    pre.bugs, pre.bug_offsets, bug_chunks
                )[0]
                audit_log = tel.audit
                if audit_log is not None:
                    audit_log.adopt(*_splice(
                        pre.audit_records, pre.audit_offsets,
                        [
                            (run.failure_point.fid, run.audit or [])
                            for run in tasks
                        ],
                    ))
        finally:
            if journal is not None:
                journal.close()
        stats.backend_seconds = pre.seconds + backend_span.duration
        tel.emit(
            "phase_finished", phase="backend",
            seconds=stats.backend_seconds,
        )
        report.incidents = incident_log.incidents
        tel.metrics.gauge("post_trace_events").set(
            stats.post_trace_events
        )
        tel.metrics.gauge("benign_race_reads").set(stats.benign_races)
        return report

    def _crash_bug(self, post_run):
        """A crashed post-failure execution is itself a finding."""
        tel = self.telemetry
        tel.metrics.inc("bugs_reported_total")
        tel.metrics.inc("bugs_reported.post_failure_crash")
        return Bug(
            kind=BugKind.POST_FAILURE_CRASH,
            detail=str(post_run.crash),
            failure_point=post_run.failure_point.fid,
            reader_ip=UNKNOWN_LOCATION,
            writer_ip=UNKNOWN_LOCATION,
        )


def _emit_finding(telemetry, bug):
    """Publish one bug as a live ``finding`` event.

    Payload is restricted to deterministic content (kind, failure
    point, detail, source locations) so the event stream's normalized
    projection is identical at any pool width.  Without a bus nothing
    is formatted: a finding-heavy run renders thousands of locations.
    """
    if telemetry.bus is None:
        return
    telemetry.emit(
        "finding",
        bug_kind=bug.kind.name,
        fid=bug.failure_point,
        detail=bug.detail,
        reader=str(bug.reader_ip),
        writer=str(bug.writer_ip),
    )


def _splice(pre_items, offsets, chunks):
    """Merge per-replay chunks into the pre-replay's items in marker
    order.

    ``offsets[fid]`` counts the pre-replay items that preceded marker
    ``fid``; ``chunks`` are ``(fid, items)`` pairs in task order
    (fid-ascending, so offsets never decrease).  Returns the merged
    list and, per fid, the position its first chunk landed at.
    """
    merged = []
    starts = {}
    cursor = 0
    for fid, items in chunks:
        offset = offsets[fid]
        merged.extend(pre_items[cursor:offset])
        cursor = offset
        starts.setdefault(fid, len(merged))
        merged.extend(items)
    merged.extend(pre_items[cursor:])
    return merged, starts


def _deterministic_stats(stats):
    """The run-stats payload of ``run_finished``: every counter, no
    timings (wall-clock fields would break the event stream's
    determinism projection, which only scrubs envelope-level keys)."""
    return {
        "failure_points": stats.failure_points,
        "pre_trace_events": stats.pre_trace_events,
        "post_trace_events": stats.post_trace_events,
        "post_runs_analyzed": stats.post_runs_analyzed,
        "post_runs_deduped": stats.post_runs_deduped,
        "replays_deduped": stats.replays_deduped,
        "benign_races": stats.benign_races,
        "plan_mode": stats.plan_mode,
        "failure_points_executed": stats.failure_points_executed,
        "failure_points_skipped_by_plan":
            stats.failure_points_skipped_by_plan,
    }
