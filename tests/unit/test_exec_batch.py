"""Batched dispatch and the warm persistent pool (repro.exec)."""

import concurrent.futures
import os
import time

import pytest

from repro.core.config import DetectorConfig
from repro.exec import (
    SerialExecutor,
    WarmProcessExecutor,
    plan_batches,
    resolve_executor,
)
from repro.obs import Telemetry

needs_fork = pytest.mark.skipif(
    not WarmProcessExecutor.available(),
    reason="fork start method required",
)


class TestPlanBatches:
    def test_contiguous_chunks_in_key_order(self):
        keys = [(fid, None, None) for fid in range(10)]
        batches = plan_batches(keys, 4)
        assert batches == [keys[0:4], keys[4:8], keys[8:10]]

    def test_batch_size_one_is_singletons(self):
        keys = [(fid, None, None) for fid in range(3)]
        assert plan_batches(keys, 1) == [[key] for key in keys]
        assert plan_batches(keys, 0) == [[key] for key in keys]

    def test_backward_fid_jump_closes_the_batch(self):
        # A dedup fallback wave (or a variant sweep restart) re-issues
        # earlier fids; the memo cursor must never be asked to walk
        # backwards inside a batch.
        keys = [(0, None, None), (3, None, None), (1, None, None),
                (2, None, None)]
        batches = plan_batches(keys, 10)
        assert batches == [
            [(0, None, None), (3, None, None)],
            [(1, None, None), (2, None, None)],
        ]

    def test_repeated_fid_stays_in_batch(self):
        # Variants of one failure point share a fid; equal fids are
        # forward motion, not a jump.
        keys = [(1, None, None), (1, 0, 7), (1, 1, 3), (2, None, None)]
        assert plan_batches(keys, 10) == [keys]

    def test_non_tuple_keys_batch_by_size(self):
        assert plan_batches(list(range(5)), 2) == [[0, 1], [2, 3], [4]]

    def test_empty(self):
        assert plan_batches([], 4) == []


def _double(_context, key):
    return key * 2


def _fail_odd(_context, key):
    if key % 2:
        raise ValueError(f"odd key {key}")
    return key * 2


def _die_on_three(_context, key):
    """Kill the worker outright on key 3 — a real mid-batch death."""
    if key == 3:
        os._exit(7)
    return key * 2


def _always_die(_context, _key):
    os._exit(7)


def _die_on_one(_context, key):
    """Die on key 1, late enough that every worker already holds a
    second batch queued behind its first."""
    if key == 1:
        time.sleep(0.3)
        os._exit(7)
    return key * 2


def _die_on_nine(_context, key):
    """Die on key 9: the second key of its worker's second batch (at
    batch size 4 on two workers), after batch 1 shipped."""
    if key == 9:
        os._exit(7)
    return key * 2


class Ctx:
    """A picklable phase context."""

    factor = 2


def _scale(context, key):
    return key * context.factor


@needs_fork
class TestBatchedExecutors:
    def test_warm_batched_matches_serial(self):
        keys = list(range(17))
        reference = [
            o.value for o in SerialExecutor().run_phase(
                None, _double, keys
            )
        ]
        for batch_size in (1, 4, 16, 100):
            executor = WarmProcessExecutor(4, batch_size=batch_size)
            try:
                outcomes = executor.run_phase(None, _double, keys)
            finally:
                executor.close()
            assert [o.value for o in outcomes] == reference

    def test_batch_error_stays_per_key(self):
        # One crashed task must not take its batchmates down.
        executor = WarmProcessExecutor(2, batch_size=8)
        try:
            outcomes = executor.run_phase(
                None, _fail_odd, list(range(6))
            )
        finally:
            executor.close()
        assert [o.value for o in outcomes] == [0, None, 4, None, 8, None]
        assert [type(o.error) for o in outcomes[1::2]] == [ValueError] * 3

    def test_process_batched_roundtrip(self):
        executor = WarmProcessExecutor(2, batch_size=4)
        try:
            outcomes = executor.run_phase(Ctx(), _scale, list(range(9)))
        finally:
            executor.close()
        assert [o.value for o in outcomes] == [k * 2 for k in range(9)]
        assert all(o.worker.startswith("pid-") for o in outcomes)


@needs_fork
class TestWarmProcessExecutor:
    def test_two_phases_reuse_workers(self):
        executor = WarmProcessExecutor(2, batch_size=3)
        try:
            executor.prewarm()
            pids_before = {
                w.process.pid for w in executor._workers
            }
            first = executor.run_phase(None, _double, list(range(7)))
            second = executor.run_phase(None, _double, list(range(5)))
            assert [o.value for o in first] == [k * 2 for k in range(7)]
            assert [o.value for o in second] == [k * 2 for k in range(5)]
            pids_after = {w.process.pid for w in executor._workers}
            assert pids_after == pids_before  # nobody respawned
            labels = {o.worker for o in first + second}
            assert labels <= {f"pid-{pid}" for pid in pids_before}
        finally:
            executor.close()
        assert not executor._workers

    def test_per_key_errors_ship_back(self):
        executor = WarmProcessExecutor(2, batch_size=4)
        try:
            outcomes = executor.run_phase(
                None, _fail_odd, list(range(6))
            )
            assert [o.value for o in outcomes] == \
                [0, None, 4, None, 8, None]
            for outcome in outcomes[1::2]:
                assert isinstance(outcome.error, ValueError)
        finally:
            executor.close()

    def test_unpicklable_phase_runs_inline(self):
        class Unpicklable:
            def __reduce__(self):
                raise TypeError("not today")

        telemetry = Telemetry()
        executor = WarmProcessExecutor(
            2, batch_size=4, telemetry=telemetry
        )
        try:
            outcomes = executor.run_phase(
                Unpicklable(), _double, list(range(4))
            )
        finally:
            executor.close()
        assert [o.value for o in outcomes] == [0, 2, 4, 6]
        assert all(o.worker == "main" for o in outcomes)
        assert telemetry.metrics.value("exec.warm_fallbacks") == 1
        assert not executor._workers  # nothing was forked for it

    def test_closure_task_runs_inline(self):
        """A task function that cannot pickle (a closure) runs on the
        serial schedule: same outcomes, no worker, one fallback."""
        offset = 5

        def shifted(_context, key):
            if key == 2:
                raise ValueError("key 2 fails inline too")
            return key + offset

        keys = list(range(6))
        reference = SerialExecutor().run_phase(None, shifted, keys)
        telemetry = Telemetry()
        executor = WarmProcessExecutor(2, telemetry=telemetry)
        try:
            outcomes = executor.run_phase(None, shifted, keys)
        finally:
            executor.close()
        assert [o.value for o in outcomes] == \
            [o.value for o in reference]
        assert [type(o.error) for o in outcomes] == \
            [type(o.error) for o in reference]
        assert all(o.worker == "main" for o in outcomes)
        assert telemetry.metrics.value("exec.warm_fallbacks") == 1

    def test_death_charges_only_the_running_key(self):
        """A worker dying on key 3 of an 8-key batch costs key 3 alone:
        its batchmates — done-but-unshipped and not-yet-run — are
        requeued on a replacement worker within the same phase."""
        executor = WarmProcessExecutor(2, batch_size=8)
        try:
            outcomes = executor.run_phase(
                None, _die_on_three, list(range(8))
            )
        finally:
            executor.close()
        assert [o.value for o in outcomes] == \
            [0, 2, 4, None, 8, 10, 12, 14]
        assert isinstance(
            outcomes[3].error, concurrent.futures.BrokenExecutor
        )
        assert all(
            o.error is None for i, o in enumerate(outcomes) if i != 3
        )

    def test_death_with_a_batch_queued_charges_only_the_running_key(
        self
    ):
        """Each worker holds two batches; the one dying on key 1 costs
        key 1 alone, and the batch queued behind it runs uncharged on
        a replacement."""
        executor = WarmProcessExecutor(2, batch_size=4)
        try:
            outcomes = executor.run_phase(
                None, _die_on_one, list(range(16))
            )
        finally:
            executor.close()
        assert [o.value for o in outcomes] == [
            None if k == 1 else k * 2 for k in range(16)
        ]
        assert isinstance(
            outcomes[1].error, concurrent.futures.BrokenExecutor
        )
        assert all(
            o.error is None for i, o in enumerate(outcomes) if i != 1
        )

    def test_death_in_the_second_batch_keeps_the_first(self):
        """A worker that ships batch 1 and then dies in batch 2 keeps
        batch 1's outcomes and costs only the key it was running."""
        executor = WarmProcessExecutor(2, batch_size=4)
        try:
            outcomes = executor.run_phase(
                None, _die_on_nine, list(range(16))
            )
        finally:
            executor.close()
        assert [o.value for o in outcomes] == [
            None if k == 9 else k * 2 for k in range(16)
        ]
        assert isinstance(
            outcomes[9].error, concurrent.futures.BrokenExecutor
        )
        assert sum(o.error is not None for o in outcomes) == 1

    def test_phase_drains_when_every_worker_dies(self):
        """Deaths never strand a phase: each one charges one key and the
        worker set is topped back up before the next dispatch."""
        executor = WarmProcessExecutor(2, batch_size=2)
        try:
            outcomes = executor.run_phase(
                None, _always_die, list(range(5))
            )
        finally:
            executor.close()
        assert len(outcomes) == 5
        for outcome in outcomes:
            assert isinstance(
                outcome.error, concurrent.futures.BrokenExecutor
            )
            assert "died mid-batch" in str(outcome.error)

    def test_empty_phase(self):
        executor = WarmProcessExecutor(2)
        try:
            assert executor.run_phase(None, _double, []) == []
        finally:
            executor.close()

    def test_close_is_idempotent(self):
        executor = WarmProcessExecutor(2)
        executor.prewarm()
        executor.close()
        executor.close()


@needs_fork
class TestResolveWarm:
    def test_process_defaults_to_warm(self):
        config = DetectorConfig(jobs=2)
        executor = resolve_executor(config)
        try:
            assert isinstance(executor, WarmProcessExecutor)
            assert executor.batch_size == config.batch_size
        finally:
            executor.close()

    def test_pool_gets_batch_size(self):
        config = DetectorConfig(jobs=2, batch_size=5)
        executor = resolve_executor(config)
        try:
            assert executor.batch_size == 5
        finally:
            executor.close()


class TestEnvDefaults:
    def test_xfd_batch_size(self, monkeypatch):
        monkeypatch.setenv("XFD_BATCH_SIZE", "16")
        assert DetectorConfig().batch_size == 16

    def test_xfd_batch_size_invalid_degrades(self, monkeypatch):
        monkeypatch.setenv("XFD_BATCH_SIZE", "many")
        assert DetectorConfig().batch_size == 8
        monkeypatch.setenv("XFD_BATCH_SIZE", "-3")
        assert DetectorConfig().batch_size == 1

    def test_xfd_batch_size_default(self, monkeypatch):
        monkeypatch.delenv("XFD_BATCH_SIZE", raising=False)
        assert DetectorConfig().batch_size == 8
