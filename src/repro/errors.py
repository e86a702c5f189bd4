"""Exception hierarchy for the repro package.

All exceptions raised intentionally by this library derive from
:class:`ReproError`, so callers can catch library failures without
swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class PMError(ReproError):
    """Base class for persistent-memory substrate errors."""


class PMAddressError(PMError):
    """An access referenced memory outside any mapped PM pool."""

    def __init__(self, address, size=1, reason="address not mapped"):
        self.address = address
        self.size = size
        super().__init__(
            f"PM access [{address:#x}, {address + size:#x}): {reason}"
        )


class PMAlignmentError(PMError):
    """An operation violated an alignment requirement (e.g. flush base)."""


class PoolError(PMError):
    """Base class for object-pool errors."""


class PoolCorruptionError(PoolError):
    """Pool metadata failed validation while opening a pool.

    This is how the paper's Bug 4 manifests: a failure injected in the
    middle of pool creation leaves incomplete metadata and the
    post-failure open fails.
    """


class PoolLayoutError(PoolError):
    """Pool opened with a layout name different from the one it was
    created with."""


class OutOfPMError(PoolError):
    """The PM allocator could not satisfy an allocation request."""


class TransactionError(ReproError):
    """Misuse of the transactional API (e.g. TX_ADD outside TX_BEGIN)."""


class AbortedTransactionError(TransactionError):
    """A transaction was explicitly aborted; updates were rolled back."""


class DetectorError(ReproError):
    """Misuse or internal failure of the XFDetector engine."""


class TraversalLimitError(ReproError):
    """A workload traversal exceeded its step budget.

    Raised by workload data-structure walks instead of spinning forever
    when cyclic corruption (e.g. a node whose child pointer loops back
    onto itself in a crash image) makes a structural loop non-
    terminating.  Deliberately a :class:`ReproError`: a post-failure
    traversal that cannot terminate is itself evidence of a
    cross-failure bug, so the frontend reports it as a finding with a
    diagnosable message rather than a watchdog kill.
    """


class DeadlineExceeded(ReproError):
    """A pipeline execution ran past its wall-clock budget.

    Raised cooperatively by the PM runtime (every traced operation
    ticks the active :class:`repro.resilience.Deadline`) when a
    post-failure execution or replay livelocks — e.g. corrupted
    pointers sending recovery into an unbounded spin.  Unlike
    :class:`TraversalLimitError` this is *not* a finding: the detector
    records it as a ``HANG`` incident with the failure point's
    provenance and continues the run.
    """

    def __init__(self, detail, steps=None, seconds=None):
        self.detail = detail
        self.steps = steps
        self.seconds = seconds
        super().__init__(detail)

    def __reduce__(self):
        # Explicit so instances raised inside forked pool workers
        # unpickle cleanly in the parent.
        return (DeadlineExceeded, (self.detail, self.steps, self.seconds))


class HarnessError(ReproError):
    """The detection harness itself failed while running a task.

    Wraps programming errors originating in pipeline code (executor,
    snapshot store, PM runtime internals) so they are never
    misclassified as workload findings: the resilience layer turns
    them into quarantine incidents instead of bogus
    ``POST_FAILURE_CRASH`` bugs.  ``transient`` marks faults worth
    retrying (worker deaths); deterministic harness exceptions are
    quarantined after the first attempt.
    """

    transient = False

    def __init__(self, detail, phase=None):
        self.detail = detail
        self.phase = phase
        super().__init__(detail)

    def __reduce__(self):
        return (type(self), (self.detail, self.phase))


class ChaosCrash(HarnessError):
    """A synthetic worker fault injected by chaos mode (``XFD_CHAOS``).

    Simulates an abrupt worker death on the serial executor, which
    cannot actually lose a process; warm pool workers simulate the real
    thing with ``os._exit`` instead.  Transient by
    definition — a retry gets a fresh attempt number and a fresh
    chaos roll.
    """

    transient = True


class JournalError(ReproError):
    """A run journal could not be read, parsed, or written."""


class JournalMismatchError(JournalError):
    """A resume journal's config+trace checksum does not match this
    run: the journal was recorded for a different workload, sizing,
    configuration, or code revision, so its completed outcomes cannot
    be trusted to splice into this report."""


class AnnotationError(DetectorError):
    """Misuse of the Table 2 annotation interface (e.g. unbalanced RoI)."""


class FailureInjected(ReproError):
    """Raised inside the pre-failure stage to stop execution at an
    injected failure point.

    This exception is internal control flow of the frontend: workload
    code must not catch it.  It deliberately derives from
    :class:`ReproError` (not BaseException) so that an over-broad
    ``except Exception`` in workload code is detected by the frontend,
    which re-validates that the failure actually unwound the stack.
    """

    def __init__(self, failure_point_id):
        self.failure_point_id = failure_point_id
        super().__init__(f"injected failure point #{failure_point_id}")


class CrashSummary:
    """Repr-preserving carrier for a crash that crossed a process
    boundary.

    Worker processes ship a crashed post-failure execution home as
    ``repr(exc)`` (exception instances do not pickle reliably);
    rebuilding ``PostFailureCrash(fid, CrashSummary(text))`` then
    produces a message byte-identical to the in-process one, keeping
    reports independent of the executor.
    """

    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text

    def __repr__(self):
        return self.text

    def __str__(self):
        return self.text


class PostFailureCrash(ReproError):
    """The post-failure stage itself crashed (e.g. segfault analogue such
    as dereferencing a null persistent pointer).

    The frontend converts unexpected exceptions from recovery/resumption
    code into this error and attaches it to the report, because a
    crashing recovery is itself evidence of a cross-failure bug (see the
    Figure 1 discussion of pop() on an empty list).
    """

    def __init__(self, failure_point_id, original):
        self.failure_point_id = failure_point_id
        self.original = original
        super().__init__(
            f"post-failure execution for failure point #{failure_point_id} "
            f"crashed: {original!r}"
        )
