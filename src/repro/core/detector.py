"""The XFDetector facade: frontend + backend orchestration."""

from __future__ import annotations

import dataclasses

from repro._location import UNKNOWN_LOCATION
from repro.core.config import DetectorConfig
from repro.core.frontend import Frontend
from repro.core.replay import StopAnalysis, TraceReplayer, lower_trace
from repro.core.report import Bug, BugKind, DetectionReport
from repro.core.shadow import ShadowCheckpointCache, ShadowPM
from repro.exec.base import (
    SerialExecutor,
    graft_outcomes,
    resolve_executor,
)
from repro.exec.worker import (
    ReplayPhaseContext,
    run_replay_task,
    strip_config,
)
from repro.obs import resolve_telemetry
from repro.resilience import (
    IncidentLog,
    PhaseSupervisor,
    ResilienceContext,
    deserialize_bug,
)
from repro.trace.events import KIND_CODE, EventKind

#: Marker instruction code in compiled replay programs.
_FP_CODE = KIND_CODE[EventKind.FAILURE_POINT]


class XFDetector:
    """Cross-failure bug detector (the paper's tool).

    ``run(workload)`` executes the full Figure 7 pipeline: trace the
    pre-failure stage with failure injection, run the post-failure stage
    per failure point, replay both traces against the shadow PM, and
    report cross-failure races, semantic bugs, and performance bugs.

    Every run is instrumented through ``repro.obs``: a span tree
    profiles the stages, the metrics registry counts the pipeline's
    decisions, and (when ``config.audit`` is set) the shadow PM logs
    every FSM transition.  The run's telemetry is attached to the
    returned report as ``report.telemetry``.

    Backend scheduling: the default path replays the pre-failure trace
    once, capturing a shadow checkpoint at each ``FAILURE_POINT``
    marker, and then replays every post-failure trace against a fork of
    its checkpoint — independent tasks a ``repro.exec`` executor can
    fan out.  Bugs are merged back in the schedule the classic
    interleaved replay would have produced, so reports are
    byte-identical regardless of ``config.jobs``.  Audit and fail-fast
    runs use the interleaved replay directly (the audit log records the
    in-process schedule; fail-fast stops mid-schedule).
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
                report = self.analyze(
                    frontend_result, executor=executor
                )
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

    def analyze(self, frontend_result, executor=None):
        """Replay traces from a frontend run and produce the report."""
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
            len(run.recorder) for run in frontend_result.post_runs
        )
        stats.pre_failure_seconds = frontend_result.pre_seconds
        stats.post_failure_seconds = frontend_result.post_seconds
        stats.post_runs_deduped = getattr(
            frontend_result, "post_runs_deduped", 0
        )
        incident_log = getattr(frontend_result, "incidents", None)
        if incident_log is None:
            incident_log = IncidentLog()
        journal = getattr(frontend_result, "journal", None)

        # Canonical replay order: by failure point, base run first,
        # then variants — the order the frontend produces, re-imposed
        # here so hand-built results analyze identically.
        ordered_runs = sorted(
            frontend_result.post_runs,
            key=lambda run: (
                run.failure_point.fid,
                run.variant is not None,
                run.variant or 0,
            ),
        )

        try:
            if self.config.fail_fast or tel.audit is not None:
                self._analyze_interleaved(
                    frontend_result, ordered_runs, report
                )
            else:
                self._analyze_checkpointed(
                    frontend_result, ordered_runs, report, executor,
                    incident_log, journal,
                )
        finally:
            if journal is not None:
                journal.close()

        report.incidents = incident_log.incidents
        tel.metrics.gauge("post_trace_events").set(
            stats.post_trace_events
        )
        tel.metrics.gauge("benign_race_reads").set(stats.benign_races)
        return report

    # -- interleaved replay (audit / fail-fast) -------------------------

    def _analyze_interleaved(self, frontend_result, ordered_runs,
                             report):
        """The classic schedule: fork and replay each post-failure
        trace inline at its ``FAILURE_POINT`` marker during the
        pre-failure replay."""
        tel = self.telemetry
        stats = report.stats
        post_by_fid = {}
        for run in ordered_runs:
            post_by_fid.setdefault(run.failure_point.fid, []).append(run)

        tel.emit(
            "phase_started", phase="backend", points=len(ordered_runs)
        )
        with tel.span("backend") as backend_span:
            audit = (
                tel.audit.scoped(stage="pre")
                if tel.audit is not None else None
            )
            shadow = ShadowPM(
                platform=self.config.platform,
                audit=audit,
                transition_counter=tel.metrics.counter(
                    "shadow_transitions_total"
                ),
            )
            pre_has_roi = _has_roi(frontend_result.pre_recorder)
            tel.metrics.inc(
                "replays_roi_scoped" if pre_has_roi
                else "replays_whole_trace"
            )
            pre_replayer = TraceReplayer(
                shadow, self.config, "pre", report,
                has_roi=pre_has_roi, metrics=tel.metrics,
            )
            try:
                for event in frontend_result.pre_recorder:
                    if event.kind is EventKind.FAILURE_POINT:
                        for run in post_by_fid.get(int(event.info), []):
                            stats.post_runs_analyzed += 1
                            cursor = len(report.bugs)
                            self._analyze_failure_point(
                                shadow, report, run
                            )
                            for bug in report.bugs[cursor:]:
                                _emit_finding(tel, bug)
                            tel.emit(
                                "point_completed", phase="backend",
                                fid=run.failure_point.fid,
                                variant=run.variant,
                            )
                    pre_replayer.process(event)
            except StopAnalysis:
                pass

        # The per-point deltas above covered every bug carrying a
        # failure point; pre-failure findings (perf bugs found between
        # markers, which carry none) are emitted here.
        for bug in report.bugs:
            if bug.failure_point is None:
                _emit_finding(tel, bug)
        tel.emit("phase_finished", phase="backend")
        stats.backend_seconds = backend_span.duration
        tel.metrics.gauge("orphaned_post_runs").set(
            len(ordered_runs) - stats.post_runs_analyzed
        )

    def _analyze_failure_point(self, shadow, report, post_run):
        if post_run is None:
            return
        tel = self.telemetry
        fid = post_run.failure_point.fid
        attrs = {"fid": fid}
        if post_run.variant is not None:
            attrs["variant"] = post_run.variant
        with tel.span("post_replay", **attrs):
            fork = shadow.copy()
            if tel.audit is not None:
                tel.audit.mark_fork(fid)
                fork.audit = tel.audit.scoped(
                    stage="post", failure_point=fid
                )
            post_has_roi = _has_roi(post_run.recorder)
            tel.metrics.inc(
                "replays_roi_scoped" if post_has_roi
                else "replays_whole_trace"
            )
            replayer = TraceReplayer(
                fork,
                self.config,
                "post",
                report,
                failure_point=fid,
                has_roi=post_has_roi,
                metrics=tel.metrics,
            )
            for event in post_run.recorder:
                replayer.process(event)
            if post_run.crash is not None:
                self._append_crash_bug(report, post_run)

    # -- checkpointed replay (executor-friendly) ------------------------

    def _analyze_checkpointed(self, frontend_result, ordered_runs,
                              report, executor, incident_log=None,
                              journal=None):
        """Checkpoint the shadow at each marker during one pre-failure
        replay, then replay every post-failure trace against a fork of
        its checkpoint as an independent executor task.

        Bugs are spliced back into the interleaved schedule's order
        (pre-failure bugs found before a marker precede that failure
        point's post-failure bugs), so the report is byte-identical to
        the classic path and independent of the executor.  Runs spliced
        from a resume journal skip the replay entirely; quarantined
        runs are dropped (their incidents carry the provenance); and
        every newly completed run is journaled the moment it is merged,
        so a killed run loses at most the point being merged.
        """
        if incident_log is None:
            incident_log = IncidentLog()
        tel = self.telemetry
        stats = report.stats
        dedup_on = getattr(self.config, "dedup", False)

        # The pre-failure trace is lowered into a compiled replay
        # program exactly once; the marker scan below, the pre-replay,
        # and any checkpoint rebuilds all execute the same program.
        pre_program = lower_trace(frontend_result.pre_recorder)

        # Tasks are fixed before the pre-replay so replay-level
        # dedup can decide, at each marker, which runs need a live
        # checkpoint and which clone an earlier identical replay.
        marker_fids = {
            int(instr[3])
            for instr in pre_program
            if instr[0] == _FP_CODE
        }
        tasks = [
            run for run in ordered_runs
            if run.failure_point.fid in marker_fids
        ]
        tel.emit(
            "phase_started", phase="backend",
            points=sum(
                1 for run in tasks
                if getattr(run, "journal_entry", None) is None
            ),
        )
        with tel.span("backend") as backend_span:
            shadow = ShadowPM(
                platform=self.config.platform,
                transition_counter=tel.metrics.counter(
                    "shadow_transitions_total"
                ),
            )
            pre_has_roi = _has_roi(frontend_result.pre_recorder)
            tel.metrics.inc(
                "replays_roi_scoped" if pre_has_roi
                else "replays_whole_trace"
            )
            pre_replayer = TraceReplayer(
                shadow, self.config, "pre", report,
                has_roi=pre_has_roi, metrics=tel.metrics,
            )
            tel.metrics.gauge("orphaned_post_runs").set(
                len(ordered_runs) - len(tasks)
            )
            runs_at = {}
            for task_index, run in enumerate(tasks):
                runs_at.setdefault(
                    run.failure_point.fid, []
                ).append(task_index)
            # Merged LOAD ranges per exec-dedup class with >1 live
            # member: the shadow read set a digest must cover.
            readsets = _class_readsets(tasks) if dedup_on else {}

            checkpoints = ShadowCheckpointCache(
                self._checkpoint_rebuilder(pre_program, pre_has_roi)
            )
            replay_seen = {}  # (class id, digest) -> source task index
            clone_of = {}  # task index -> source task index
            insert_at = {}
            # Dispatch the compiled program directly (same table
            # ``run_program`` uses) so the marker handling can stay
            # inline without re-testing every instruction twice.
            dispatch = pre_replayer._dispatch
            for instr in pre_program:
                code, addr, size, info, ip, tid = instr
                if code == _FP_CODE:
                    fid = int(info)
                    insert_at[fid] = len(report.bugs)
                    need_live = not dedup_on
                    digests = {}
                    for task_index in runs_at.get(fid, ()):
                        run = tasks[task_index]
                        if getattr(run, "journal_entry", None) is not None:
                            continue
                        cid = (
                            getattr(run, "dedup_class", None)
                            if dedup_on else None
                        )
                        readset = readsets.get(cid)
                        if readset is not None:
                            digest = digests.get(cid)
                            if digest is None:
                                digest = shadow.region_digest(readset)
                                digests[cid] = digest
                            source = replay_seen.get((cid, digest))
                            if source is not None:
                                clone_of[task_index] = source
                                continue
                            replay_seen[(cid, digest)] = task_index
                        need_live = True
                    if need_live:
                        checkpoints.capture(fid, shadow)
                    else:
                        checkpoints.note_skipped(fid)
                dispatch[code](addr, size, info, ip, tid)
            pre_bugs = list(report.bugs)
            for bug in pre_bugs:
                _emit_finding(tel, bug)
            if checkpoints.skipped:
                tel.metrics.inc(
                    "replay_checkpoints_skipped", checkpoints.skipped
                )

            results, replays_deduped = self._replay_tasks(
                tasks, checkpoints, executor, incident_log, clone_of
            )
            stats.replays_deduped = replays_deduped
            stats.post_runs_analyzed = sum(
                1 for result in results if result is not None
            )

            merged = []
            cursor = 0
            current_fid = None
            for run, result in zip(tasks, results):
                if result is None:
                    continue  # quarantined: outcome lost
                bugs, benign_races = result
                fid = run.failure_point.fid
                if fid != current_fid:
                    offset = insert_at[fid]
                    merged.extend(pre_bugs[cursor:offset])
                    cursor = offset
                    current_fid = fid
                merged.extend(bugs)
                for bug in bugs:
                    _emit_finding(tel, bug)
                stats.benign_races += benign_races
                if run.crash is not None:
                    self._append_crash_bug(report, run, into=merged)
                    _emit_finding(tel, merged[-1])
                if journal is not None:
                    journal.record_post(
                        fid, run.variant,
                        events=len(run.recorder),
                        has_roi=_has_roi(run.recorder),
                        crash_repr=(
                            repr(run.crash.original)
                            if run.crash is not None else None
                        ),
                        bugs=bugs,
                        benign_races=benign_races,
                    )
            merged.extend(pre_bugs[cursor:])
            report.bugs = merged

        stats.backend_seconds = backend_span.duration
        tel.emit(
            "phase_finished", phase="backend",
            seconds=backend_span.duration,
        )

    def _checkpoint_rebuilder(self, pre_program, pre_has_roi):
        """The cache's slow path: rebuild the shadow state at one
        skipped marker by replaying the pre-failure program prefix
        into a scratch shadow (fresh counter and report — the live
        pre-replay already accounted for these events)."""

        def rebuild(fid):
            shadow = ShadowPM(platform=self.config.platform)
            replayer = TraceReplayer(
                shadow, self.config, "pre", DetectionReport(),
                has_roi=pre_has_roi,
            )
            dispatch = replayer._dispatch
            for code, addr, size, info, ip, tid in pre_program:
                if code == _FP_CODE and int(info) == fid:
                    return shadow.checkpoint()
                dispatch[code](addr, size, info, ip, tid)
            raise KeyError(fid)

        return rebuild

    def _replay_tasks(self, tasks, checkpoints, executor,
                      incident_log, clone_of=None):
        """Run every post-failure replay task; returns one
        ``(bugs, benign_races)`` pair per task, in task order —
        rebuilt straight from the journal for resumed runs, cloned
        from the source replay for deduped runs (with per-member
        failure-point provenance rewritten), None for quarantined
        ones — plus the number of replays deduped."""
        tel = self.telemetry
        clone_of = clone_of or {}
        keys = []
        runs_map = {}
        journaled = {}
        for index, run in enumerate(tasks):
            key = (run.failure_point.fid, run.variant, index)
            keys.append(key)
            entry = getattr(run, "journal_entry", None)
            if entry is not None:
                journaled[key] = (
                    [deserialize_bug(bug) for bug in entry["bugs"]],
                    entry["benign_races"],
                )
                continue
            # Post-failure traces ship to workers pre-lowered: the
            # compilation cost is paid once here, not per retry/fork.
            runs_map[key] = (
                lower_trace(run.recorder), _has_roi(run.recorder)
            )
        live_keys = [
            key for key in keys
            if key not in journaled and key[2] not in clone_of
        ]
        completed = {}
        if live_keys:
            resilience = ResilienceContext.from_config(
                self.config, "post_replay"
            )
            supervisor = PhaseSupervisor(
                "post_replay", self.config, incident_log, resilience,
                tel,
            )
            ctx = ReplayPhaseContext(
                strip_config(self.config), checkpoints, runs_map,
                resilience,
            )
            submit = self._replay_submit(
                executor if executor is not None else SerialExecutor(),
                ctx,
            )
            completed = supervisor.run(submit, live_keys)
            if clone_of:
                # A quarantined source replay speaks for nobody: its
                # clones replay live (rebuilding their checkpoint if
                # the marker's was skipped) in a fallback wave.
                fallback = [
                    key for key in keys
                    if key[2] in clone_of
                    and keys[clone_of[key[2]]] not in completed
                ]
                if fallback:
                    tel.metrics.inc(
                        "dedup_fallback_replays", len(fallback)
                    )
                    completed.update(supervisor.run(submit, fallback))
        results = []
        replays_deduped = 0
        for key in keys:
            if key in journaled:
                results.append(journaled[key])
                continue
            if key in completed:
                value = completed[key].value
                results.append((value.bugs, value.benign_races))
                continue
            source_index = clone_of.get(key[2])
            source = (
                completed.get(keys[source_index])
                if source_index is not None else None
            )
            if source is None:
                results.append(None)  # quarantined: outcome lost
                continue
            value = source.value
            fid = key[0]
            bugs = [
                dataclasses.replace(bug, failure_point=fid)
                if bug.failure_point is not None else bug
                for bug in value.bugs
            ]
            results.append((bugs, value.benign_races))
            # The clone's own replay would have produced the same
            # task-local counters event for event; merging the
            # source's registry once per clone keeps run totals
            # identical to a dedup-off run.
            tel.metrics.merge(value.metrics)
            tel.metrics.inc("replays_deduped")
            tel.metrics.inc(
                "replay_events_skipped", len(runs_map[key][0])
            )
            tel.emit(
                "dedup_hit", stage="post_replay",
                fid=fid, variant=key[1],
            )
            replays_deduped += 1
        return results, replays_deduped

    def _replay_submit(self, executor, ctx):
        """A supervisor submit callable: run one replay wave on
        ``executor``, graft each completed task's ``post_replay`` span
        tree (fork/replay children), and merge its task-local metrics
        — completed tasks only, so a retried task merges once."""
        tel = self.telemetry

        def submit(wave):
            outcomes = executor.run_phase(ctx, run_replay_task, wave)
            graft_outcomes(tel, outcomes)
            for outcome in outcomes:
                if outcome.value is not None:
                    tel.metrics.merge(outcome.value.metrics)
            return outcomes

        return submit

    def _append_crash_bug(self, report, post_run, into=None):
        """A crashed post-failure execution is itself a finding."""
        tel = self.telemetry
        tel.metrics.inc("bugs_reported_total")
        tel.metrics.inc("bugs_reported.post_failure_crash")
        bug = Bug(
            kind=BugKind.POST_FAILURE_CRASH,
            detail=str(post_run.crash),
            failure_point=post_run.failure_point.fid,
            reader_ip=UNKNOWN_LOCATION,
            writer_ip=UNKNOWN_LOCATION,
        )
        (report.bugs if into is None else into).append(bug)


def _emit_finding(telemetry, bug):
    """Publish one bug as a live ``finding`` event.

    Payload is restricted to deterministic content (kind, failure
    point, detail, source locations) so the event stream's normalized
    projection is identical at any pool width.
    """
    telemetry.emit(
        "finding",
        bug_kind=bug.kind.name,
        fid=bug.failure_point,
        detail=bug.detail,
        reader=str(bug.reader_ip),
        writer=str(bug.writer_ip),
    )


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


def _class_readsets(tasks):
    """Merged pre-fork shadow read sets per exec-dedup class.

    Two replays with the same crash image and the same post-failure
    trace can still differ through the pre-fork shadow state they read
    (``LOAD`` events consult commit variables, persistence state, and
    writer provenance at the forked checkpoint).  Replay-level dedup
    therefore keys on a digest of exactly those shadow regions — the
    union of every LOAD range in the class's traces.  Classes with a
    single live member never amortize anything, so they get no read
    set and replay live.
    """
    by_class = {}
    for run in tasks:
        cid = getattr(run, "dedup_class", None)
        if cid is None or getattr(run, "journal_entry", None) is not None:
            continue
        by_class.setdefault(cid, []).append(run)
    readsets = {}
    for cid, runs in by_class.items():
        if len(runs) < 2:
            continue
        ranges = set()
        # Deduped members carry their representative's recorder, so
        # the first member's LOAD set covers the class.
        for event in runs[0].recorder:
            if event.kind is EventKind.LOAD:
                ranges.add((event.addr, event.addr + event.size))
        readsets[cid] = tuple(sorted(ranges))
    return readsets


def _has_roi(recorder):
    """Whether the trace confines detection to RoI-marked regions.

    Recorders note ``ROI_BEGIN`` markers at append time (``has_roi``),
    so the common case is a flag read; the O(n) scan remains only as a
    fallback for plain event iterables.
    """
    flag = getattr(recorder, "has_roi", None)
    if flag is not None:
        return flag
    return any(
        event.kind is EventKind.ROI_BEGIN for event in recorder
    )
