"""Deadline watchdogs: wall-clock budgets for pipeline executions.

Two layers of defense against a post-failure execution that never
terminates (e.g. a corrupted B-Tree turning a ``while True`` traversal
into a livelock):

* **Cooperative**: a :class:`Deadline` attached to the PM runtime is
  ticked on every traced operation; exceeding the wall-clock budget
  raises :class:`~repro.errors.DeadlineExceeded`, which the
  resilience layer records as a ``HANG`` incident.  This catches every
  loop that touches PM — which a recovery traversal must.
* **Hard**: a :class:`Watchdog` monitor thread fires an action when
  the wall budget (plus grace) elapses without the task completing.
  Forked process workers use it with ``os._exit`` so even a spin that
  never touches PM kills only that worker; the parent detects the
  death and retries the key it was running.  Inline (serial) tasks
  cannot be killed safely, so they rely on the cooperative layer
  alone.
"""

from __future__ import annotations

import threading
import time

from repro.errors import DeadlineExceeded

#: Exit status a hard watchdog uses to kill a hung forked worker.
EXIT_HANG = 87
#: Exit status chaos mode uses to simulate an abrupt worker crash.
EXIT_CHAOS = 86

#: Hard watchdogs fire at ``max_seconds * HARD_KILL_FACTOR +
#: HARD_KILL_SLACK`` so the cooperative layer always gets the first
#: chance to turn the hang into a typed, attributable incident.
HARD_KILL_FACTOR = 4.0
HARD_KILL_SLACK = 0.5


class Deadline:
    """A wall-clock budget enforced cooperatively.

    ``tick()`` is called from the interpreter loop (one tick per traced
    PM operation); it raises :class:`DeadlineExceeded` once the budget
    is exhausted.  ``steps`` counts the ticks so the error says how far
    the task got.  A deadline without a budget never expires.
    """

    __slots__ = ("max_seconds", "steps", "_started", "_clock")

    def __init__(self, max_seconds=None, clock=time.monotonic):
        self.max_seconds = max_seconds
        self.steps = 0
        self._clock = clock
        self._started = clock()

    @property
    def elapsed(self):
        return self._clock() - self._started

    def tick(self):
        """Count one interpreter step and enforce the budget."""
        self.steps += 1
        self.check_time()

    def check_time(self):
        """Enforce the wall-clock budget without counting a step."""
        if self.max_seconds is None:
            return
        elapsed = self.elapsed
        if elapsed > self.max_seconds:
            raise DeadlineExceeded(
                f"deadline exceeded ({elapsed:.3f}s > "
                f"{self.max_seconds:.3f}s)",
                steps=self.steps, seconds=elapsed,
            )


class Watchdog:
    """A monitor thread that fires ``action`` after ``seconds``.

    ``cancel()`` (or exiting the context manager) disarms it; the
    daemon thread then exits promptly.  The action runs on the monitor
    thread — keep it async-signal-simple (``os._exit``, setting a
    flag, counting a metric).
    """

    def __init__(self, seconds, action):
        self.seconds = seconds
        self.action = action
        self.fired = False
        self._cancelled = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="xfd-watchdog", daemon=True
        )
        self._thread.start()

    def _run(self):
        if not self._cancelled.wait(self.seconds):
            self.fired = True
            self.action()

    def cancel(self):
        self._cancelled.set()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.cancel()
        return False
