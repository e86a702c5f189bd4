"""Execution frontend: runs workload stages and produces traces.

The original frontend suspends the pre-failure process at each failure
point, copies the PM pool, and spawns a post-failure process on the
copy (Figure 8a).  Workload execution here is deterministic, so we run
the pre-failure stage once end-to-end while the injector records a
delta snapshot at every failure point, then run one post-failure
execution per failure point (plus sampled crash-state variants) on its
materialized image — semantically the same schedule with the same
complexity O(F · P) (Section 5.4).

The post-failure executions are mutually independent, so the stage is
*planned* first — a canonical list of ``(fid, variant, mask)`` task
keys — and then fanned out over a ``repro.exec`` executor.  Results are
consumed in key order, so the produced ``PostRun`` list (and therefore
the report) is identical whether the tasks ran serially or on the warm
process pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.injector import FailureInjector
from repro.core.interface import DetectionComplete, XFInterface
from repro.errors import CrashSummary, DetectorError, PostFailureCrash
from repro.exec.base import graft_outcomes, resolve_executor
from repro.exec.worker import (
    PostPhaseContext,
    PostTaskOutcome,
    run_post_task,
    strip_config,
)
from repro.obs import resolve_telemetry
from repro.pm.memory import PersistentMemory
from repro.resilience import (
    IncidentLog,
    JournaledTrace,
    PhaseSupervisor,
    ResilienceContext,
    RunJournal,
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
    #: Free-form per-run options from DetectorConfig.workload_options.
    options: dict = field(default_factory=dict)


@dataclass
class PostRun:
    """Result of one post-failure execution.

    ``variant`` is None for the run on the configured crash-image mode
    and a small integer for each additional sampled crash state
    (``DetectorConfig.crash_state_variants``).
    """

    failure_point: object
    recorder: TraceRecorder
    crash: Exception | None = None
    seconds: float = 0.0
    variant: int | None = None
    #: When this run was spliced from a resume journal instead of
    #: executed, the journal record (the backend skips its replay and
    #: rebuilds the recorded bugs from it).
    journal_entry: dict | None = None
    #: Crash-state equivalence class id (``repro.dedup``), or None
    #: when dedup is off / the run was journaled.
    dedup_class: int | None = None
    #: True when this run's outcome was cloned from its class
    #: representative instead of executed.
    deduped: bool = False

    def __repr__(self):
        return f"PostRun({self.describe()})"

    def describe(self):
        """One-line human description, dedup provenance included."""
        fid = getattr(self.failure_point, "fid", self.failure_point)
        bits = [f"fid={fid}"]
        if self.variant is not None:
            bits.append(f"variant={self.variant}")
        bits.append(f"events={len(self.recorder)}")
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
    #: The run's shared ``IncidentLog`` (the backend keeps recording
    #: into it during replay), or None for hand-built results.
    incidents: object | None = None
    #: The run's ``RunJournal``, or None when journaling is off.
    journal: object | None = None
    #: Post-failure executions skipped by crash-state dedup (their
    #: ``PostRun``s carry the representative's cloned outcome).
    post_runs_deduped: int = 0
    #: Number of distinct crash-state classes, or None with dedup off.
    dedup_classes: int | None = None
    #: The applied ``repro.analysis.plans.CrashPlanSet``, or None in
    #: exhaustive mode / when inference degraded.
    plan_set: object | None = None
    #: The ``repro.analysis.mech.MechReport`` behind the plan set.
    mech_report: object | None = None

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
        if journal is not None and (
            getattr(self.config, "audit", False)
            or getattr(self.config, "fail_fast", False)
        ):
            # The interleaved backend replays everything inline; there
            # is no per-point completion to journal, and a spliced
            # resume would falsify the audit log / fail-fast schedule.
            raise DetectorError(
                "run journaling (--journal/--resume) is not supported "
                "with audit or fail_fast"
            )
        pre_recorder = TraceRecorder("pre")
        memory = PersistentMemory(
            pre_recorder, self.config.capture_ips,
            platform=self.config.platform,
        )
        prune_plan = self._build_prune_plan(workload, tel)
        injector = FailureInjector(
            self.config, telemetry=tel, prune_plan=prune_plan
        )
        memory.add_ordering_listener(injector)
        memory.add_observer(injector)
        uses_roi = getattr(workload, "uses_roi", False)
        memory.roi_active = not uses_roi

        context = ExecutionContext(
            memory=memory,
            interface=XFInterface(memory, stage="pre"),
            stage="pre",
            options=dict(self.config.workload_options),
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

        post_runs, post_seconds, deduped, dedup_classes = \
            self._post_stage(workload, injector, uses_roi, journal)
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
        )

    def _build_prune_plan(self, workload, tel):
        """The static prune plan for this run, or None.

        Imported lazily so the detector has no hard dependency on the
        analyzer; any analysis failure degrades to "prune nothing".
        """
        if not getattr(self.config, "static_prune", False):
            return None
        with tel.span("static_analysis"):
            try:
                from repro.analysis.pruning import build_prune_plan

                plan = build_prune_plan(workload)
            except Exception:
                return None
        if plan is None:
            return None
        tel.metrics.gauge("analysis.certified_lines").set(len(plan))
        if plan.report is not None:
            tel.metrics.gauge("analysis.findings").set(
                len(plan.report.findings)
            )
        return plan

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

    def _post_stage(self, workload, injector, uses_roi, journal=None):
        """Run every planned post-failure execution on an executor.

        Each task records its own ``post_run`` span tree and the
        submit callable grafts it into the run profile (tagged with the
        worker when a pool ran it).  A
        :class:`PhaseSupervisor` drives the submissions, so harness
        faults quarantine individual keys instead of aborting the
        stage, and points completed by a resume journal are spliced in
        without executing at all.  Either way the results are consumed
        in plan order, so the returned ``PostRun`` list is
        schedule-independent.
        """
        tel = self.telemetry
        plan = self._post_plan(injector)
        post_seconds = injector.snapshot_seconds
        if not plan:
            return [], post_seconds, 0, None
        journaled = {}
        keys = plan
        if journal is not None and journal.entries:
            keys = []
            for key in plan:
                entry = journal.entry_for(key[0], key[1])
                if entry is not None:
                    journaled[key] = entry
                else:
                    keys.append(key)
            if journaled:
                tel.metrics.inc(
                    "journal.points_resumed", len(journaled)
                )

        tel.emit(
            "phase_started", phase="post_exec", points=len(keys)
        )

        # Crash-state dedup: bucket the live keys by (mask, crash-image
        # fingerprint); only class representatives execute, in plan
        # order, and members clone their outcome below.
        index = None
        if keys and getattr(self.config, "dedup", False):
            from repro.dedup import DedupIndex

            index = DedupIndex.build(keys, injector.store)
            tel.metrics.gauge("dedup_post_classes").set(
                index.dedup_classes
            )

        completed = {}
        if keys:
            executor = self.executor
            owned = executor is None
            if owned:
                executor = resolve_executor(self.config, tel)
            resilience = ResilienceContext.from_config(
                self.config, "post_exec"
            )
            ctx = PostPhaseContext(
                strip_config(self.config), workload, injector.store,
                uses_roi, resilience,
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
                    # A quarantined representative speaks for nobody:
                    # its members run themselves in a fallback wave
                    # rather than silently losing the whole class.
                    fallback = index.fallback_keys(completed)
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
        post_runs = []
        deduped_count = 0
        for key in plan:
            entry = journaled.get(key)
            if entry is not None:
                crash = None
                if entry["crash"] is not None:
                    crash = PostFailureCrash(
                        key[0], CrashSummary(entry["crash"])
                    )
                post_runs.append(
                    PostRun(
                        failure_point=fps[key[0]],
                        recorder=JournaledTrace(
                            entry["events"], entry["has_roi"]
                        ),
                        crash=crash,
                        seconds=0.0,
                        variant=key[1],
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
            else:
                # Cloned member: synthesize the outcome from the class
                # representative with this key's own provenance.  The
                # recorder is shared read-only; the crash is rebuilt
                # below with the member fid, so its message matches an
                # undeduplicated run byte for byte.
                value = None
                if index is not None:
                    rep = index.rep_for(key)
                    rep_outcome = (
                        completed.get(rep) if rep != key else None
                    )
                    if rep_outcome is not None:
                        source = rep_outcome.value
                        value = PostTaskOutcome(
                            key[0], key[1], source.recorder,
                            source.crash_repr, 0.0,
                        )
                        deduped = True
                        deduped_count += 1
                        tel.metrics.inc("post_runs_deduped")
                        tel.emit(
                            "dedup_hit", stage="post_exec",
                            fid=key[0], variant=key[1],
                            dedup_class=dedup_class,
                        )
                if value is None:
                    continue  # quarantined: outcome lost, incident logged
            crash = None
            if value.crash_repr is not None:
                # Rebuilt from the repr either way, so the message is
                # byte-identical across in-process and forked workers.
                crash = PostFailureCrash(
                    value.fid, CrashSummary(value.crash_repr)
                )
            tel.metrics.inc("post_runs")
            if crash is not None:
                tel.metrics.inc("post_run_crashes")
            tel.metrics.histogram("post_run_trace_events").observe(
                len(value.recorder)
            )
            post_seconds += value.seconds
            post_runs.append(
                PostRun(
                    failure_point=fps[value.fid],
                    recorder=value.recorder,
                    crash=crash,
                    seconds=value.seconds,
                    variant=value.variant,
                    dedup_class=dedup_class,
                    deduped=deduped,
                )
            )
        dedup_classes = index.dedup_classes if index is not None else None
        tel.emit("phase_finished", phase="post_exec")
        return post_runs, post_seconds, deduped_count, dedup_classes

    def _submit(self, executor, ctx):
        """A supervisor submit callable: run one wave on ``executor``
        and graft each completed task's span tree (a ``post_run`` root
        with materialize/recovery children) into the run profile, so
        pool runs profile exactly like serial ones."""
        tel = self.telemetry

        def submit(wave):
            outcomes = executor.run_phase(ctx, run_post_task, wave)
            graft_outcomes(tel, outcomes)
            return outcomes

        return submit
