"""A deliberately naive whole-detector oracle.

The reference the production detector (``repro.core.XFDetector``) is
checked against.  It reads the paper's pipeline (Figure 7, Section 5.4)
as literally as possible and shares none of the production engine's
machinery for speed: no delta ``SnapshotStore``, no ``ImageMemo``, no
shadow checkpoints, no coalescing ``ShadowPM``, no crash-state dedup,
no crash plans, no journal and no executor.

* The pre-failure stage runs once, with ``FailureInjector`` placing
  failure points by the paper's rules.
* At each failure point the oracle takes full crash images of every
  pool (``PersistentMemory.snapshot_images``) and runs that point's
  post-failure executions right there, as the paper's frontend forks a
  post-failure process at the failure point (Figure 8a).  Each starts
  from fresh ``PMPool``s built from the images (the configured
  crash-image mode, or a sampled crash-state variant); only the
  post-failure traces are kept.
* Each post-failure replay starts from scratch: a new
  ``ReferenceShadowPM`` replays the pre-failure trace prefix up to the
  failure point's marker, then the post-failure trace, whose reads
  take the plain segment walk (``ReferenceReadReplayer``), not the
  production replayer's clean proof.
* Bugs come out in marker order: pre-failure bugs found before a marker
  precede that failure point's post-failure bugs.

Keep this module boring; it is meant to be obviously right, not fast.
"""

from __future__ import annotations

from repro._location import UNKNOWN_LOCATION
from repro.core.frontend import ExecutionContext, _variant_masks
from repro.core.injector import FailureInjector
from repro.core.interface import DetectionComplete, XFInterface
from repro.core.replay import TraceReplayer
from repro.core.report import Bug, BugKind, DetectionReport
from repro.errors import CrashSummary, PostFailureCrash
from repro.pm.memory import PersistentMemory
from repro.pm.pool import PMPool
from repro.trace.events import KIND_CODE, EventKind
from repro.trace.recorder import TraceRecorder

from tests.unit.read_ref import ReferenceReadReplayer
from tests.unit.shadow_ref import ReferenceShadowPM

_FAILURE_POINT = KIND_CODE[EventKind.FAILURE_POINT]


class PostFailureStage:
    """Snapshot store for ``FailureInjector`` that, instead of storing
    a snapshot, runs the failure point's post-failure executions on
    its full crash images (no deltas, no fingerprints)."""

    def __init__(self, workload, config, uses_roi):
        self.workload = workload
        self.config = config
        self.uses_roi = uses_roi
        #: fid -> [(post-failure trace, crash or None) per crash state]
        self.runs = []

    def capture(self, memory):
        fid = len(self.runs)
        images = memory.snapshot_images()
        self.runs.append([
            _post_failure_run(
                self.workload, self.config, fid, images, mask,
                self.uses_roi,
            )
            for mask in _crash_states(fid, images, self.config)
        ])
        return fid


def oracle_bugs(workload, config):
    """The bug list of one detection run of ``workload`` (a fresh
    instance) under ``config``, in report order."""
    if config.plan_mode != "exhaustive":
        raise ValueError("the oracle runs exhaustive schedules only")
    if config.failure_point_window is not None:
        raise ValueError("the oracle runs every failure point")
    uses_roi = getattr(workload, "uses_roi", False)
    post_stage = PostFailureStage(workload, config, uses_roi)
    pre_trace = _pre_failure_stage(workload, config, uses_roi, post_stage)
    program = _instructions(pre_trace)
    report = DetectionReport()
    pre = TraceReplayer(
        ReferenceShadowPM(config.platform), config, "pre", report,
        has_roi=pre_trace.has_roi,
    )
    for position, instruction in enumerate(program):
        if instruction[0] == _FAILURE_POINT:
            fid = int(instruction[3])
            for post_trace, crash in post_stage.runs[fid]:
                _replay_post(
                    program[:position], post_trace, fid, config,
                    pre_trace.has_roi, report,
                )
                if crash is not None:
                    report.bugs.append(Bug(
                        kind=BugKind.POST_FAILURE_CRASH,
                        detail=str(crash),
                        failure_point=fid,
                        reader_ip=UNKNOWN_LOCATION,
                        writer_ip=UNKNOWN_LOCATION,
                    ))
        pre.run_program([instruction])
    return report.bugs


def _pre_failure_stage(workload, config, uses_roi, post_stage):
    """Setup (no failure points, no detection) plus the pre-failure
    stage with failure injection; returns the pre-failure trace."""
    trace = TraceRecorder("pre")
    memory = PersistentMemory(
        trace, config.capture_ips, platform=config.platform
    )
    injector = FailureInjector(config, snapshot_store=post_stage)
    memory.add_ordering_listener(injector)
    memory.add_observer(injector)
    memory.roi_active = not uses_roi
    context = ExecutionContext(
        memory=memory,
        interface=XFInterface(memory, stage="pre"),
        stage="pre",
    )
    memory.skip_failure_depth += 1
    context.interface.skip_detection_begin()
    workload.setup(context)
    context.interface.skip_detection_end()
    memory.skip_failure_depth -= 1
    try:
        workload.pre_failure(context)
    except DetectionComplete:
        pass
    return trace


def _crash_states(fid, images, config):
    """None (the configured crash-image mode) and then the sampled
    crash-state survivor masks, in the paper-extension's order."""
    states = [None]
    bits = sum(len(image.volatile_lines) for image in images)
    if config.crash_state_variants and bits:
        masks, _skipped = _variant_masks(
            fid, bits, config.crash_state_variants
        )
        states.extend(masks)
    return states


def _post_failure_run(workload, config, fid, images, mask, uses_roi):
    """Run recovery on fresh pools; returns ``(trace, crash)`` where
    ``crash`` is a ``PostFailureCrash`` or None."""
    trace = TraceRecorder("post")
    memory = PersistentMemory(
        trace, config.capture_ips, platform=config.platform
    )
    bit = 0
    for image in images:
        if mask is None:
            data = image.bytes_for(config.crash_image_mode)
        else:
            width = len(image.volatile_lines)
            data = image.variant_bytes((mask >> bit) & ((1 << width) - 1))
            bit += width
        memory.map_pool(
            PMPool(image.pool_name, image.size, image.base, data=data)
        )
    memory.roi_active = not uses_roi
    context = ExecutionContext(
        memory=memory,
        interface=XFInterface(memory, stage="post"),
        stage="post",
    )
    try:
        workload.post_failure(context)
    except DetectionComplete:
        pass
    except Exception as exc:  # recovery crashed: a finding
        return trace, PostFailureCrash(fid, CrashSummary(repr(exc)))
    return trace, None


def _replay_post(prefix, post_trace, fid, config, pre_has_roi, report):
    """Replay the pre-failure prefix into a new reference shadow, then
    the post-failure trace against it, appending its bugs."""
    shadow = ReferenceShadowPM(config.platform)
    TraceReplayer(
        shadow, config, "pre", DetectionReport(), has_roi=pre_has_roi
    ).run_program(prefix)
    ReferenceReadReplayer(
        shadow, config, "post", report, failure_point=fid,
        has_roi=post_trace.has_roi,
    ).run_program(_instructions(post_trace))


def _instructions(trace):
    """The trace's events as replay instructions, one by one."""
    return [
        (KIND_CODE[event.kind], event.addr, event.size, event.info,
         event.ip, event.tid)
        for event in trace
    ]
