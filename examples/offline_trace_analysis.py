#!/usr/bin/env python3
"""Offline trace analysis: the decoupled frontend/backend workflow.

The paper decouples tracing from detection (Section 5.5): the backend
can attach to any tracing framework.  This example demonstrates the
split explicitly — record the pre-failure trace and one post-failure
trace per failure point, serialize them to text files, then later
parse them back and replay them through the backend's shadow PM
without re-executing the workload.

(The online pipeline never keeps post-failure traces: each recovery is
checked against its failure point's shadow checkpoint as it runs.
Here the "tracing framework" is a plain ``TraceRecorder`` run by hand.)

Run:  python examples/offline_trace_analysis.py
"""

import os
import tempfile

from repro.core import DetectorConfig, XFDetector
from repro.core.frontend import ExecutionContext, Frontend
from repro.core.interface import DetectionComplete, XFInterface
from repro.core.replay import TraceReplayer, lower_trace
from repro.core.report import DetectionReport
from repro.core.shadow import ShadowPM
from repro.pm.memory import PersistentMemory
from repro.pm.pool import PMPool
from repro.trace.events import KIND_CODE, EventKind
from repro.trace.recorder import TraceRecorder
from repro.trace.serialize import format_trace, parse_trace
from repro.workloads import LinkedListWorkload


def make_workload():
    return LinkedListWorkload(
        recovery="naive", init_size=2, test_size=1,
        faults={"unlogged_length"},
    )


def trace_recovery(workload, failure_point, config):
    """Run recovery on the failure point's crash image, recording its
    post-failure trace."""
    recorder = TraceRecorder("post")
    memory = PersistentMemory(recorder)
    for image in failure_point.images:
        memory.map_pool(PMPool(
            image.pool_name, image.size, image.base,
            data=image.bytes_for(config.crash_image_mode),
        ))
    context = ExecutionContext(
        memory=memory,
        interface=XFInterface(memory, stage="post"),
        stage="post",
    )
    try:
        workload.post_failure(context)
    except DetectionComplete:
        pass
    return recorder


def read_trace(path, stage):
    recorder = TraceRecorder(stage)
    with open(path) as handle:
        recorder.events = parse_trace(handle.read())
    return recorder


def main():
    config = DetectorConfig()

    # --- online phase: execute and trace --------------------------------
    workload = make_workload()
    frontend_result = Frontend(config).run(workload)
    workdir = tempfile.mkdtemp(prefix="xfd-traces-")
    pre_path = os.path.join(workdir, "pre.trace")
    with open(pre_path, "w") as handle:
        handle.write(format_trace(frontend_result.pre_recorder.events))
    post_paths = {}
    for failure_point in frontend_result.failure_points:
        recorder = trace_recovery(workload, failure_point, config)
        path = os.path.join(workdir, f"post-{failure_point.fid}.trace")
        with open(path, "w") as handle:
            handle.write(format_trace(recorder.events))
        post_paths[failure_point.fid] = path
    print(f"traces written to {workdir}")
    print(f"  pre-failure trace: {len(frontend_result.pre_recorder)} "
          f"events")
    print(f"  post-failure traces: {len(post_paths)}")

    # --- offline phase: parse the text traces and analyze ---------------
    # Replay the pre-failure trace once; at each failure-point marker,
    # replay that point's post-failure trace against a copy of the
    # shadow PM as it stands there.
    pre_recorder = read_trace(pre_path, "pre")
    report = DetectionReport(frontend_result.workload_name)
    report.stats.failure_points = len(post_paths)
    shadow = ShadowPM()
    pre = TraceReplayer(
        shadow, config, "pre", report, has_roi=pre_recorder.has_roi
    )
    for event in pre_recorder:
        if event.kind is EventKind.FAILURE_POINT:
            fid = int(event.info)
            post_recorder = read_trace(post_paths[fid], "post")
            TraceReplayer(
                shadow.copy(), config, "post", report,
                failure_point=fid, has_roi=post_recorder.has_roi,
            ).run_program(lower_trace(post_recorder))
        pre.run_program([
            (KIND_CODE[event.kind], event.addr, event.size, event.info,
             event.ip, event.tid)
        ])
    print("\noffline analysis of the serialized traces:")
    print(report.format())

    # Sanity: identical verdict to the online pipeline.
    online = XFDetector(config).run(make_workload())
    assert (
        {b.dedup_key() for b in online.bugs}
        == {b.dedup_key() for b in report.bugs}
    )
    print("\noffline verdict matches the online pipeline.")


if __name__ == "__main__":
    main()
