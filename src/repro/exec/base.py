"""Executor protocol, the serial reference executor, and resolution.

An executor runs one *phase*: a batch of independent tasks, each
``func(context, key)``, sharing one read-only context.  ``run_phase``
returns one :class:`TaskOutcome` per key, **in key order** — that
ordering is what makes the pipeline's reports byte-identical across
executors.
"""

from __future__ import annotations


class TaskOutcome:
    """One task's result plus scheduling telemetry.

    A task that failed carries its exception in ``error`` (with
    ``value`` None) instead of raising through ``run_phase`` — fault
    policy belongs to the :class:`~repro.resilience.PhaseSupervisor`,
    not the executors, and one crashed task must not discard its
    siblings' completed work.
    """

    __slots__ = ("value", "queue_wait", "worker", "error")

    def __init__(self, value, queue_wait=0.0, worker="main", error=None):
        self.value = value
        #: Seconds between submission and a worker picking the task
        #: up (in the warm pool, from its batch's dispatch: a queued
        #: batch's wait includes the batch running ahead of it).
        self.queue_wait = queue_wait
        #: Label of the worker that ran the task: ``"main"`` inline,
        #: ``pid-N`` in the warm pool.
        self.worker = worker
        #: The exception the task raised, or None on success.
        self.error = error


def plan_batches(keys, batch_size):
    """Group task keys into contiguous dispatch batches.

    Keys arrive in canonical order — fid-ascending, dedup
    representatives before fallback waves — and a batch must preserve
    that so a worker's memo cursor only ever advances forward within
    one dispatch.  A batch therefore closes at ``batch_size`` keys or
    wherever the fid sequence steps backwards (a new dedup fallback
    wave or a variant sweep restarting), whichever comes first.
    Non-tuple keys (toy phases in tests) batch purely by size.
    """
    batches = []
    size = max(1, int(batch_size or 1))
    current = []
    last_fid = None
    for key in keys:
        fid = key[0] if isinstance(key, tuple) and key else None
        backwards = (
            fid is not None and last_fid is not None and fid < last_fid
        )
        if current and (len(current) >= size or backwards):
            batches.append(current)
            current = []
        current.append(key)
        if fid is not None:
            last_fid = fid
    if current:
        batches.append(current)
    return batches


class SerialExecutor:
    """Runs every task inline, in order — the reference schedule."""

    kind = "serial"
    jobs = 1

    def run_phase(self, context, func, keys):
        outcomes = []
        for key in keys:
            try:
                outcomes.append(TaskOutcome(func(context, key)))
            except Exception as exc:
                outcomes.append(TaskOutcome(None, error=exc))
        return outcomes

    def close(self):
        pass


def graft_outcomes(telemetry, outcomes):
    """Graft the span trees that completed tasks shipped back into the
    run's profile.

    Inline outcomes (worker ``"main"``) are grafted untagged in one
    call, which keeps their roots in run order and their relative
    timing intact.  Pool outcomes are grafted one by one, tagged with
    the worker that ran them, and their queue waits feed the
    ``exec.queue_wait_seconds`` timer — so a serial run records no
    ``exec.*`` metric at all.
    """
    inline = []
    wait_timer = None
    for outcome in outcomes:
        value = outcome.value
        if value is None:
            continue
        if outcome.worker == "main":
            inline.extend(value.spans)
            continue
        if wait_timer is None:
            wait_timer = telemetry.metrics.timer(
                "exec.queue_wait_seconds"
            )
        telemetry.spans.graft(value.spans, worker=outcome.worker)
        wait_timer.observe(outcome.queue_wait)
    telemetry.spans.graft(inline)


def resolve_executor(config, telemetry=None):
    """The executor for one detection run, from ``config.jobs``.

    Serial runs when ``jobs <= 1`` or when the platform has no
    ``fork`` start method.  Every other run gets the warm process
    pool — audited runs included: post-failure tasks ship their
    audit records back in their outcomes.
    """
    from repro.exec.pool import WarmProcessExecutor

    jobs = int(getattr(config, "jobs", 1) or 1)
    if jobs <= 1 or not WarmProcessExecutor.available():
        return SerialExecutor()
    return WarmProcessExecutor(
        jobs,
        batch_size=int(getattr(config, "batch_size", 1) or 1),
        telemetry=telemetry,
    )
