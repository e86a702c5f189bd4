"""Chaos self-test mode: synthetic worker faults (``XFD_CHAOS``).

The resilience layer's own correctness is only testable if harness
faults can be produced on demand.  ``XFD_CHAOS=crash:0.1,hang:0.05``
injects them at the top of every post-failure execution and replay
task:

* ``crash`` — the worker dies.  In a forked process worker this is a
  real ``os._exit`` (the parent charges the dying key, replaces the
  worker, and requeues its batchmates); inline tasks simulate it by
  raising :class:`~repro.errors.ChaosCrash`, which the supervisor
  classifies identically (``WORKER_DEATH``, transient).
* ``hang`` — the task livelocks.  With a deadline configured the
  worker spins inside the cooperative budget until
  :class:`~repro.errors.DeadlineExceeded` fires naturally, exercising
  the real watchdog path; with no deadline it raises immediately so
  chaos can never hang a run that opted out of deadlines.

Decisions are **deterministic**: a pure hash of (phase, fid, variant,
attempt) against the configured rate.  The same run under any executor
rolls the same faults, and a retried key rolls a fresh decision — so
transient chaos heals exactly the way a real transient fault does, and
the determinism suite can assert byte-identical reports for completed
points.
"""

from __future__ import annotations

import os
import time

from repro.errors import ChaosCrash, DeadlineExceeded

_FAULT_KINDS = ("crash", "hang")


def _mix(*parts):
    """FNV-1a over the decision coordinates: stable across processes
    and executors (unlike ``hash()``, which is salted)."""
    state = 2166136261
    for part in parts:
        for byte in str(part).encode():
            state = ((state ^ byte) * 16777619) & 0xFFFFFFFF
    return state


class ChaosPolicy:
    """Parsed ``XFD_CHAOS`` spec: fault kind -> injection rate."""

    def __init__(self, rates):
        self.rates = dict(rates)

    @classmethod
    def parse(cls, spec):
        """Parse ``"crash:0.1,hang:0.05"``; returns None when the spec
        is empty or contains no valid clause (the env var is an ops
        knob — malformed clauses are dropped, not fatal)."""
        if not spec:
            return None
        rates = {}
        for clause in str(spec).split(","):
            clause = clause.strip()
            if not clause:
                continue
            kind, _, raw = clause.partition(":")
            kind = kind.strip().lower()
            if kind not in _FAULT_KINDS:
                continue
            try:
                rate = float(raw)
            except ValueError:
                continue
            if rate > 0:
                rates[kind] = min(rate, 1.0)
        return cls(rates) if rates else None

    def decides(self, kind, phase, fid, variant, attempt):
        """Deterministic roll: does ``kind`` fire for this task
        attempt?"""
        rate = self.rates.get(kind)
        if not rate:
            return False
        roll = _mix(kind, phase, fid, variant, attempt) % 100000
        return roll < rate * 100000

    def inject(self, phase, fid, variant, attempt, *, forked,
               deadline=None, sleep=time.sleep):
        """Fire at most one fault for this task attempt, crash first.

        ``forked`` selects real worker death (``os._exit``) over the
        simulated :class:`ChaosCrash`.  ``deadline`` is the task's
        cooperative :class:`Deadline` (or None): a hang chaos spins
        against it so the genuine deadline machinery produces the
        ``DeadlineExceeded``.
        """
        if self.decides("crash", phase, fid, variant, attempt):
            if forked:
                from repro.resilience.deadline import EXIT_CHAOS

                os._exit(EXIT_CHAOS)
            raise ChaosCrash(
                f"chaos: injected worker crash "
                f"(phase={phase}, fid={fid}, attempt={attempt})",
                phase=phase,
            )
        if self.decides("hang", phase, fid, variant, attempt):
            if deadline is None or deadline.max_seconds is None:
                raise DeadlineExceeded(
                    f"chaos: injected hang with no wall deadline "
                    f"configured (phase={phase}, fid={fid}, "
                    f"attempt={attempt})"
                )
            while True:  # ends via DeadlineExceeded
                sleep(0.001)
                deadline.check_time()

    def __repr__(self):
        spec = ",".join(
            f"{kind}:{rate}" for kind, rate in sorted(self.rates.items())
        )
        return f"ChaosPolicy({spec})"
