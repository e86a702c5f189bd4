"""Warm workers roll their own shadow checkpoints (ShadowCursor).

A warm pool ships the pre-failure trace, not one shadow checkpoint per
failure point: each worker replays the trace forward to every task's
marker and forks there.  Three guarantees: (a) every fork equals the
checkpoint the parent captured at that marker, in every shadow map,
commit variable and FSM field, walking forward, skipping fids and
restarting behind the cursor; (b) a task counts the same shadow
transitions on either side of the pipe; (c) a batch message carries
keys only, never shadow state.
"""

import pickle
from multiprocessing.connection import Connection

import pytest

from repro.core import DetectorConfig
from repro.core.detector import ShadowCursor
from repro.core.frontend import Frontend
from repro.exec.base import SerialExecutor
from repro.exec.pool import WarmProcessExecutor
from repro.pm.cacheline import PlatformMode
from repro.workloads import (
    BTreeWorkload,
    HashmapAtomicWorkload,
    HashmapTxWorkload,
)
from tests.integration.test_roi import RoIWorkload

needs_fork = pytest.mark.skipif(
    not WarmProcessExecutor.available(),
    reason="fork start method required",
)

_MAPS = ("persistence", "consistency", "tlast", "writer",
         "uninitialized", "post_written")


def _state(shadow):
    """Everything a fork carries into a post-failure run."""
    return {
        "maps": {
            name: list(getattr(shadow, name).iter_ranges())
            for name in _MAPS
        },
        "commit_vars": {
            name: (
                var.var_range, list(var.members),
                var.last_commit_epoch, var.prev_commit_epoch,
            )
            for name, var in shadow.commit_vars.items()
        },
        "epoch": shadow.epoch,
        "pending": sorted(shadow._pending_lines),
        "stores_since_fence": shadow._stores_since_fence,
    }


CASES = {
    "tx": (HashmapTxWorkload, {"skip_add_count"}, {}),
    "commit-vars": (HashmapAtomicWorkload, {"swapped_dirty"}, {}),
    "eadr": (
        HashmapAtomicWorkload, {"skip_persist_count"},
        {"platform": PlatformMode.EADR},
    ),
    "roi": (RoIWorkload, (), {}),
    "plans": (BTreeWorkload, {"skip_add_leaf"}, {"plan_mode": "hybrid"}),
}


def _frontend(case):
    """The case's config, frontend result, and the fids the parent
    checkpointed, in marker order."""
    cls, faults, options = CASES[case]
    workload = (
        cls(faults=faults, test_size=3) if faults else cls()
    )
    config = DetectorConfig(**options)
    result = Frontend(config).run(workload)
    checkpoints = result.pre_replay.checkpoints
    fids = [
        fp.fid for fp in result.failure_points if fp.fid in checkpoints
    ]
    return config, result, fids


class TestCursorEqualsCheckpoints:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_marker_forward(self, case):
        config, result, fids = _frontend(case)
        checkpoints = result.pre_replay.checkpoints
        assert fids
        cursor = ShadowCursor(config, result.pre_recorder)
        for fid in fids:
            assert _state(cursor.fork(fid)) == _state(checkpoints[fid])

    @pytest.mark.parametrize("case", ["commit-vars", "eadr", "plans"])
    def test_skipping_and_restarting(self, case):
        """Every third fid, then back behind the cursor (a retry or
        fallback wave restarts it), then the same fid twice."""
        config, result, fids = _frontend(case)
        checkpoints = result.pre_replay.checkpoints
        assert len(fids) > 3
        walk = fids[::3] + [fids[1], fids[1]] + fids[-2:]
        cursor = ShadowCursor(config, result.pre_recorder)
        for fid in walk:
            assert _state(cursor.fork(fid)) == _state(checkpoints[fid])

    def test_plan_skips_fids(self):
        """Crash plans leave markers without a checkpoint, which the
        cursor walks past in the tests above."""
        _config, result, fids = _frontend("plans")
        assert 0 < len(fids) < len(result.failure_points)


class _Recording:
    """Mixin recording each phase's ``(key, outcome)`` pairs."""

    def run_phase(self, context, func, keys):
        outcomes = super().run_phase(context, func, keys)
        self.recorded.extend(zip(keys, outcomes))
        return outcomes


class _RecordingSerial(_Recording, SerialExecutor):
    def __init__(self):
        self.recorded = []


class _RecordingWarm(_Recording, WarmProcessExecutor):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.recorded = []


def _transitions(executor, case):
    cls, faults, options = CASES[case]
    config = DetectorConfig(**options)
    workload = cls(faults=faults, test_size=3) if faults else cls()
    try:
        Frontend(config, executor=executor).run(workload)
    finally:
        executor.close()
    return {
        key: outcome.value.metrics.value("shadow_transitions_total")
        for key, outcome in executor.recorded
    }


@needs_fork
class TestTransitionCounts:
    @pytest.mark.parametrize("case", ["tx", "commit-vars"])
    def test_per_task_counts_match_across_the_pipe(self, case):
        serial = _transitions(_RecordingSerial(), case)
        warm = _transitions(_RecordingWarm(2, batch_size=3), case)
        assert serial and warm == serial
        assert sum(serial.values()) > 0


@needs_fork
class TestNoShadowStateInThePipe:
    def test_batch_messages_stay_small(self, monkeypatch):
        sent = []
        original = Connection.send

        def send(self, obj):
            if isinstance(obj, tuple) and obj and obj[0] in (
                "batch", "ctx"
            ):
                sent.append(obj)
            return original(self, obj)

        monkeypatch.setattr(Connection, "send", send)
        config = DetectorConfig(jobs=2, batch_size=8)
        executor = WarmProcessExecutor(2, batch_size=8)
        workload = HashmapAtomicWorkload(
            faults={"swapped_dirty"}, test_size=6
        )
        try:
            Frontend(config, executor=executor).run(workload)
        finally:
            executor.close()
        batches = [message for message in sent if message[0] == "batch"]
        assert len(batches) > 2
        for message in batches:
            assert len(pickle.dumps(message)) < 4096
        contexts = [message for message in sent if message[0] == "ctx"]
        assert contexts
        for message in contexts:
            context, _func = pickle.loads(message[2])
            assert context.checkpoints is None
