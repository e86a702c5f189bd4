"""Execution frontend: runs workload stages and produces traces.

The original frontend suspends the pre-failure process at each failure
point, copies the PM pool, and spawns a post-failure process on the
copy (Figure 8a).  Workload execution here is deterministic, so we run
the pre-failure stage once end-to-end while the injector records a
delta snapshot at every failure point, then run one post-failure
execution per failure point (plus sampled crash-state variants) on its
restored crash image — semantically the same schedule with the same
complexity O(F · P) (Section 5.4).

The post-failure executions are mutually independent, so the stage is
*planned* first — a canonical list of ``(fid, variant, mask)`` task
keys.  The detector's pre-failure replay then checkpoints the shadow PM
at every marker with a live task, and the tasks fan out over a
``repro.exec`` executor: each runs recovery on its crash image while a
fork of its checkpoint checks every operation as it executes (Section
5.4's backend, fused with the run it checks).  Results are consumed in
key order, so the produced ``PostRun`` list (and therefore the report)
is identical whether the tasks ran serially or on the warm process
pool.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.core.injector import FailureInjector
from repro.core.interface import DetectionComplete, XFInterface
from repro.errors import CrashSummary, DetectorError, PostFailureCrash
from repro.exec.base import graft_outcomes, resolve_executor
from repro.exec.worker import (
    PostPhaseContext,
    run_post_task,
    strip_config,
)
from repro.obs import resolve_telemetry
from repro.pm.memory import PersistentMemory
from repro.resilience import (
    IncidentLog,
    PhaseSupervisor,
    ResilienceContext,
    RunJournal,
    deserialize_bug,
    run_checksum,
)
from repro.trace.recorder import TraceRecorder


@dataclass
class ExecutionContext:
    """What a workload stage gets to work with."""

    memory: PersistentMemory
    interface: XFInterface
    #: "pre" or "post".
    stage: str


@dataclass
class PostRun:
    """Result of one post-failure execution, checked as it ran.

    ``variant`` is None for the run on the configured crash-image mode
    and a small integer for each additional sampled crash state
    (``DetectorConfig.crash_state_variants``).
    """

    failure_point: object
    #: Operations the recovery issued (its trace is never kept).
    events: int = 0
    #: True when the recovery opened a region of interest.
    has_roi: bool = False
    #: The run's findings, in the order its reads found them (the
    #: recovery crash, if any, is reported separately by the backend).
    bugs: list = field(default_factory=list)
    benign_races: int = 0
    crash: Exception | None = None
    seconds: float = 0.0
    variant: int | None = None
    #: When this run was spliced from a resume journal instead of
    #: executed, the journal record its outcome was rebuilt from.
    journal_entry: dict | None = None
    #: Crash-state equivalence class id (``repro.dedup``), or None
    #: when the run was audited or journaled.
    dedup_class: int | None = None
    #: True when this run's outcome was cloned from its class
    #: representative instead of executed.
    deduped: bool = False
    #: The run's audit records under audit, else None.
    audit: list | None = None

    def __repr__(self):
        return f"PostRun({self.describe()})"

    def describe(self):
        """One-line human description, dedup provenance included."""
        fid = getattr(self.failure_point, "fid", self.failure_point)
        bits = [f"fid={fid}"]
        if self.variant is not None:
            bits.append(f"variant={self.variant}")
        bits.append(f"events={self.events}")
        if self.crash is not None:
            bits.append("crashed")
        if self.journal_entry is not None:
            bits.append("journaled")
        if self.dedup_class is not None:
            bits.append(f"dedup_class={self.dedup_class}")
            if self.deduped:
                bits.append("cloned")
        return ", ".join(bits)


@dataclass
class FrontendResult:
    """Everything the frontend hands the backend."""

    workload_name: str
    pre_recorder: TraceRecorder
    failure_points: list
    post_runs: list
    pre_seconds: float = 0.0
    post_seconds: float = 0.0
    uses_roi: bool = False
    #: The run's shared ``IncidentLog``, or None for hand-built results.
    incidents: object | None = None
    #: The run's ``RunJournal``, or None when journaling is off.
    journal: object | None = None
    #: Post-failure executions skipped by crash-state dedup (their
    #: ``PostRun``s carry the representative's cloned outcome).
    post_runs_deduped: int = 0
    #: Number of distinct crash-state classes, or None when audited
    #: (or when no post-failure task ran live).
    dedup_classes: int | None = None
    #: The applied ``repro.analysis.plans.CrashPlanSet``, or None in
    #: exhaustive mode / when inference degraded.
    plan_set: object | None = None
    #: The ``repro.analysis.mech.MechReport`` behind the plan set.
    mech_report: object | None = None
    #: The pre-failure replay (``repro.core.detector.PreReplay``): the
    #: pre-failure bugs and where each marker's post runs splice in.
    pre_replay: object | None = None

    def __repr__(self):
        return f"FrontendResult({self.describe()})"

    def describe(self):
        """One-line human description, dedup stats included."""
        bits = [
            f"workload={self.workload_name!r}",
            f"failure_points={len(self.failure_points)}",
            f"post_runs={len(self.post_runs)}",
            f"pre_events={len(self.pre_recorder)}",
        ]
        if self.dedup_classes is not None:
            bits.append(
                f"dedup_classes={self.dedup_classes}"
                f" ({self.post_runs_deduped} cloned)"
            )
        return ", ".join(bits)


def _variant_masks(fid, total_bits, count):
    """Sampled pmreorder-style survivor masks for one failure point.

    Returns ``(masks, skipped)``: up to ``count`` distinct masks drawn
    from a deterministic per-failure-point LCG stream, and how many of
    the requested variants the mask space could not supply.  The
    all-survive mask is excluded (the base run covers it), so only
    ``2**total_bits - 1`` distinct crash states exist; when ``count``
    exceeds that, the remainder is *skipped* rather than silently
    under-produced by an attempt budget.

    The LCG (a=1103515245, c=12345, mod 2**31) is full-period in its
    low bits, so drawing until ``target`` masks are seen terminates
    without an attempt cap.
    """
    all_ones = (1 << total_bits) - 1
    target = min(count, all_ones)
    state = (fid * 2654435761 + 40503) & 0xFFFFFFFF
    masks = []
    seen = set()
    while len(masks) < target:
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        mask = state & all_ones
        if mask in seen or mask == all_ones:
            continue
        seen.add(mask)
        masks.append(mask)
    return masks, count - target


class Frontend:
    """Drives the pre- and post-failure stages of one workload."""

    def __init__(self, config, telemetry=None, executor=None):
        self.config = config
        self.telemetry = (
            telemetry if telemetry is not None
            else resolve_telemetry(config)
        )
        #: Optional pre-resolved ``repro.exec`` executor.  When None the
        #: frontend resolves (and closes) one per run from the config.
        self.executor = executor
        #: Harness faults absorbed by this run (shared with the
        #: backend, which keeps recording during replay).
        self.incident_log = IncidentLog()

    def run(self, workload):
        tel = self.telemetry
        journal = RunJournal.from_config(self.config)
        if journal is not None and getattr(self.config, "audit", False):
            # A point resumed from the journal is never replayed, so it
            # has no audit records: a spliced resume would falsify the
            # audit log.
            raise DetectorError(
                "run journaling (--journal/--resume) is not supported "
                "with audit"
            )
        pre_recorder = TraceRecorder("pre")
        memory = PersistentMemory(
            pre_recorder, self.config.capture_ips,
            platform=self.config.platform,
        )
        injector = FailureInjector(self.config, telemetry=tel)
        memory.add_ordering_listener(injector)
        memory.add_observer(injector)
        uses_roi = getattr(workload, "uses_roi", False)
        memory.roi_active = not uses_roi

        context = ExecutionContext(
            memory=memory,
            interface=XFInterface(memory, stage="pre"),
            stage="pre",
        )

        # Setup (pool creation, initial inserts) is not under test:
        # failure injection and detection are suppressed, mirroring the
        # paper's scripts that populate the PM image before testing
        # starts.  Shadow-PM state is still built from the setup trace.
        tel.emit("phase_started", phase="setup")
        with tel.span("setup") as setup_span:
            memory.skip_failure_depth += 1
            context.interface.skip_detection_begin()
            workload.setup(context)
            context.interface.skip_detection_end()
            memory.skip_failure_depth -= 1
        tel.emit(
            "phase_finished", phase="setup",
            seconds=setup_span.duration,
        )

        tel.emit("phase_started", phase="pre_failure")
        with tel.span("pre_failure") as pre_span:
            try:
                workload.pre_failure(context)
            except DetectionComplete:
                pass
        tel.emit(
            "phase_finished", phase="pre_failure",
            seconds=pre_span.duration,
        )
        # Image copying belongs to spawning the post-failure runs
        # (Figure 8a step 3), not to the pre-failure execution.
        pre_seconds = (
            setup_span.duration + pre_span.duration
            - injector.snapshot_seconds
        )

        workload_name = getattr(
            workload, "name", type(workload).__name__
        )
        plan_set, mech_report = self._build_crash_plans(
            workload_name, pre_recorder, injector, tel
        )
        # No failure point can be added past this line; freezing the
        # store makes publication to shared memory (and the raw byte
        # offsets workers hold into it) safe.
        injector.seal()
        if journal is not None:
            # The checksum needs the pre-failure trace, so a resume
            # journal is validated (and refused on mismatch) here,
            # before any post-failure work is spent.
            journal.begin(
                run_checksum(self.config, workload_name, pre_recorder),
                workload_name,
            )

        plan = self._post_plan(injector)
        journaled = {}
        if journal is not None and journal.entries:
            for key in plan:
                entry = journal.entry_for(key[0], key[1])
                if entry is not None:
                    journaled[key] = entry
            if journaled:
                tel.metrics.inc("journal.points_resumed", len(journaled))
        # The backend's pre-failure replay runs here, once, so every
        # checkpoint a post-failure task forks exists before dispatch.
        from repro.core.detector import replay_pre_trace

        pre_replay = replay_pre_trace(
            self.config, tel, pre_recorder,
            {key[0] for key in plan if key not in journaled},
        )
        post_runs, post_seconds, deduped, dedup_classes = \
            self._post_stage(
                workload, injector, uses_roi, plan, journaled,
                pre_replay.checkpoints, pre_recorder,
            )
        tel.metrics.gauge("pre_trace_events").set(len(pre_recorder))

        return FrontendResult(
            workload_name=workload_name,
            pre_recorder=pre_recorder,
            failure_points=injector.failure_points,
            post_runs=post_runs,
            pre_seconds=pre_seconds,
            post_seconds=post_seconds,
            uses_roi=uses_roi,
            incidents=self.incident_log,
            journal=journal,
            post_runs_deduped=deduped,
            dedup_classes=dedup_classes,
            plan_set=plan_set,
            mech_report=mech_report,
            pre_replay=pre_replay,
        )

    def _build_crash_plans(self, workload_name, pre_recorder,
                           injector, tel):
        """Mechanism inference + crash plans for this run, or
        ``(None, None)`` in exhaustive mode.

        An unknown ``plan_mode`` is a configuration error; an
        inference *failure* on a valid mode degrades to exhaustive
        (plans are an optimization, never a correctness dependency).
        """
        mode = getattr(self.config, "plan_mode", "exhaustive")
        if mode == "exhaustive":
            return None, None
        from repro.analysis.plans import PLAN_MODES

        if mode not in PLAN_MODES:
            raise DetectorError(
                f"unknown plan_mode {mode!r} (one of {PLAN_MODES})"
            )
        with tel.span("mech_inference"):
            try:
                from repro.analysis.mech import infer_mechanisms
                from repro.analysis.plans import build_crash_plans

                mech_report = infer_mechanisms(
                    pre_recorder, target=f"mech:{workload_name}"
                )
                plan_set = build_crash_plans(
                    mech_report, injector.failure_points, mode
                )
            except Exception:
                return None, None
        injector.apply_crash_plan(plan_set)
        metrics = tel.metrics
        metrics.gauge("plans_emitted").set(plan_set.plans_emitted)
        metrics.gauge("plans_pruned_vs_exhaustive").set(
            plan_set.skipped
        )
        metrics.gauge("invariant_violations").set(
            len(mech_report.violations)
        )
        return plan_set, mech_report

    # ------------------------------------------------------------------
    # Post-failure stage
    # ------------------------------------------------------------------

    def _post_plan(self, injector):
        """The canonical task list of the post-failure stage.

        One ``(fid, None, None)`` base run per failure point on the
        configured crash-image mode, followed by its sampled crash-state
        variants ``(fid, variant, survivor_mask)``.  Masks are computed
        here, in the parent, so every executor runs the exact same
        crash states.
        """
        keys = []
        count = getattr(self.config, "crash_state_variants", 0)
        window = getattr(self.config, "failure_point_window", None)
        skipped_total = 0
        for failure_point in injector.failure_points:
            if not getattr(failure_point, "planned", True):
                continue  # collapsed by the run's crash plan
            fid = failure_point.fid
            if window is not None and not window[0] <= fid < window[1]:
                continue  # outside this shard's range
            keys.append((fid, None, None))
            if not count:
                continue
            total_bits = injector.store.volatile_bits(fid)
            if total_bits == 0:
                continue
            masks, skipped = _variant_masks(fid, total_bits, count)
            skipped_total += skipped
            for variant, mask in enumerate(masks):
                keys.append((fid, variant, mask))
        if skipped_total:
            self.telemetry.metrics.inc(
                "crash_variants_skipped", skipped_total
            )
        return keys

    def _post_stage(self, workload, injector, uses_roi, plan, journaled,
                    checkpoints, pre_recorder):
        """Run every planned post-failure task on an executor.

        Each task restores its crash image, forks its failure point's
        shadow checkpoint and checks recovery's operations as they run.
        It records its own ``post_run`` span tree and the submit
        callable grafts it into the run profile (tagged with the worker
        when a pool ran it).  A :class:`PhaseSupervisor` drives the
        submissions, so harness faults quarantine individual keys
        instead of aborting the stage, and points completed by a resume
        journal are rebuilt from their records without executing at
        all.  Either way the results are consumed in plan order, so the
        returned ``PostRun`` list is schedule-independent.
        """
        tel = self.telemetry
        post_seconds = injector.snapshot_seconds
        if not plan:
            return [], post_seconds, 0, None
        keys = [key for key in plan if key not in journaled]
        tel.emit(
            "phase_started", phase="post_exec", points=len(keys)
        )

        # Crash-state dedup: bucket the live keys by (mask, crash-image
        # fingerprint); only class representatives run at first.  A
        # member clones its representative's outcome when the shadow
        # state the representative read is equal at both checkpoints,
        # and runs itself otherwise.  Audited runs never clone: a clone
        # would have no audit records of its own.
        index = None
        if keys and tel.audit is None:
            from repro.dedup import DedupIndex

            index = DedupIndex.build(keys, injector.store)
            tel.metrics.gauge("dedup_post_classes").set(
                index.dedup_classes
            )

        completed = {}
        fallback = ()
        if keys:
            executor = self.executor
            owned = executor is None
            if owned:
                executor = resolve_executor(self.config, tel)
            resilience = ResilienceContext.from_config(
                self.config, "post_exec"
            )
            shared_reps = frozenset(
                index.rep_for(key) for key in keys
                if index is not None and index.rep_for(key) != key
            )
            ctx = PostPhaseContext(
                strip_config(self.config), workload, injector.store,
                uses_roi, resilience, checkpoints, tel.audit is not None,
                shared_reps, pre_recorder,
            )
            supervisor = PhaseSupervisor(
                "post_exec", self.config, self.incident_log,
                resilience, tel,
            )
            try:
                submit = self._submit(executor, ctx)
                exec_keys = keys if index is None else index.rep_keys()
                completed = supervisor.run(submit, exec_keys)
                if index is not None:
                    fallback = index.fallback_keys(
                        completed,
                        _same_reads(completed, checkpoints),
                    )
                    if fallback:
                        tel.metrics.inc(
                            "dedup_fallback_runs", len(fallback)
                        )
                        completed.update(
                            supervisor.run(submit, fallback)
                        )
            finally:
                if owned:
                    executor.close()

        fps = {fp.fid: fp for fp in injector.failure_points}
        fallback = set(fallback)
        post_runs = []
        deduped_count = 0
        for key in plan:
            fid, variant = key[0], key[1]
            entry = journaled.get(key)
            if entry is not None:
                post_runs.append(
                    PostRun(
                        failure_point=fps[fid],
                        events=entry["events"],
                        has_roi=entry["has_roi"],
                        bugs=[
                            deserialize_bug(bug) for bug in entry["bugs"]
                        ],
                        benign_races=entry["benign_races"],
                        crash=_rebuild_crash(fid, entry["crash"]),
                        variant=variant,
                        journal_entry=entry,
                    )
                )
                continue
            dedup_class = (
                index.class_of.get(key) if index is not None else None
            )
            outcome = completed.get(key)
            deduped = False
            if outcome is not None:
                value = outcome.value
                bugs = value.bugs
                seconds = value.seconds
            else:
                # Cloned member: the representative's outcome with this
                # key's own provenance.  Its bugs are re-tagged and its
                # crash rebuilt with the member fid, so both match an
                # undeduplicated run byte for byte.
                rep = (
                    index.rep_for(key)
                    if index is not None and key not in fallback
                    else key
                )
                rep_outcome = completed.get(rep) if rep != key else None
                if rep_outcome is None:
                    continue  # quarantined: outcome lost, incident logged
                value = rep_outcome.value
                bugs = [
                    dataclasses.replace(bug, failure_point=fid)
                    if bug.failure_point is not None else bug
                    for bug in value.bugs
                ]
                seconds = 0.0
                deduped = True
                deduped_count += 1
                # The clone's own run would have counted the same
                # task-local metrics event for event.
                tel.metrics.merge(value.metrics)
                tel.metrics.inc("post_runs_deduped")
                tel.metrics.inc("replay_events_skipped", value.events)
                tel.emit(
                    "dedup_hit", stage="post_exec",
                    fid=fid, variant=variant, dedup_class=dedup_class,
                )
            crash = _rebuild_crash(fid, value.crash_repr)
            tel.metrics.inc("post_runs")
            if crash is not None:
                tel.metrics.inc("post_run_crashes")
            tel.metrics.histogram("post_run_trace_events").observe(
                value.events
            )
            post_seconds += seconds
            post_runs.append(
                PostRun(
                    failure_point=fps[fid],
                    events=value.events,
                    has_roi=value.has_roi,
                    bugs=bugs,
                    benign_races=value.benign_races,
                    crash=crash,
                    seconds=seconds,
                    variant=variant,
                    dedup_class=dedup_class,
                    deduped=deduped,
                    audit=value.audit,
                )
            )
        dedup_classes = index.dedup_classes if index is not None else None
        tel.emit("phase_finished", phase="post_exec")
        return post_runs, post_seconds, deduped_count, dedup_classes

    def _submit(self, executor, ctx):
        """A supervisor submit callable: run one wave on ``executor``,
        graft each completed task's span tree (a ``post_run`` root
        with materialize/recovery children) into the run profile, so
        pool runs profile exactly like serial ones, and merge its
        task-local metrics — completed tasks only, so a retried task
        merges once."""
        tel = self.telemetry

        def submit(wave):
            outcomes = executor.run_phase(ctx, run_post_task, wave)
            graft_outcomes(tel, outcomes)
            for outcome in outcomes:
                if outcome.value is not None:
                    tel.metrics.merge(outcome.value.metrics)
            return outcomes

        return submit


def _rebuild_crash(fid, crash_repr):
    """The ``PostFailureCrash`` of a run whose crash travelled as a
    repr: rebuilt from the repr either way, so the message is
    byte-identical across in-process and forked workers."""
    if crash_repr is None:
        return None
    return PostFailureCrash(fid, CrashSummary(crash_repr))


def _same_reads(completed, checkpoints):
    """The dedup carry-over test: a representative's outcome holds for
    a class member when the shadow state the representative's run read
    — its LOAD ranges — is equal at both failure points' checkpoints.
    The two runs then execute the same recovery on the same crash
    image and check every read against the same state."""
    digests = {}

    def same(rep, key):
        reads = completed[rep].value.reads
        digest = digests.get(rep)
        if digest is None:
            digest = digests[rep] = checkpoints[rep[0]].region_digest(
                reads
            )
        return checkpoints[key[0]].region_digest(reads) == digest

    return same
