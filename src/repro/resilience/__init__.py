"""repro.resilience: fault-tolerant detection runs.

Four cooperating mechanisms keep a long detection run alive through
harness faults without compromising the byte-identical-report
guarantee for the failure points that complete:

* **Deadline watchdogs** (:mod:`repro.resilience.deadline`): a
  wall-clock budget ticked cooperatively by the PM runtime, backed by
  a hard monitor thread in forked pool workers.
* **Quarantine-and-continue** (:mod:`repro.resilience.supervisor`):
  failed keys are classified, retried with bounded exponential backoff
  when transient, quarantined when deterministic — and every absorbed
  fault becomes a typed :class:`Incident` on the report, with
  ``degraded`` set whenever an outcome was lost.
* **Resumable run journal** (:mod:`repro.resilience.journal`):
  completed outcomes checkpointed to NDJSON under a config+trace
  checksum; ``run --resume`` skips them.
* **Chaos self-test** (:mod:`repro.resilience.chaos`): deterministic
  synthetic worker crashes and hangs (``XFD_CHAOS``) to exercise all
  of the above on demand.
"""

from repro.resilience.chaos import ChaosPolicy
from repro.resilience.deadline import (
    EXIT_CHAOS,
    EXIT_HANG,
    HARD_KILL_FACTOR,
    HARD_KILL_SLACK,
    Deadline,
    Watchdog,
)
from repro.resilience.incidents import Incident, IncidentKind, IncidentLog
from repro.resilience.journal import (
    RunJournal,
    deserialize_bug,
    read_journal_records,
    run_checksum,
    serialize_bug,
)
from repro.resilience.supervisor import (
    PhaseSupervisor,
    ResilienceContext,
    classify_failure,
    jitter_unit,
)

__all__ = [
    "ChaosPolicy",
    "Deadline",
    "Watchdog",
    "EXIT_CHAOS",
    "EXIT_HANG",
    "HARD_KILL_FACTOR",
    "HARD_KILL_SLACK",
    "Incident",
    "IncidentKind",
    "IncidentLog",
    "RunJournal",
    "read_journal_records",
    "run_checksum",
    "serialize_bug",
    "deserialize_bug",
    "PhaseSupervisor",
    "ResilienceContext",
    "classify_failure",
    "jitter_unit",
]
