"""Crash-state equivalence classes of post-failure task keys.

The frontend's post-failure plan is a list of ``(fid, variant, mask)``
keys.  Two keys whose crash images are fingerprint-identical and whose
survivor masks match start recovery from the same bytes; workload
execution is deterministic, so their post-failure runs issue the same
operations, and with equal shadow state over the run's read set they
report the same findings.  A :class:`DedupIndex` buckets the keys so
only one representative per class runs first.
"""

from __future__ import annotations


class DedupIndex:
    """Equivalence classes over one post-failure plan.

    Class ids are small integers assigned in plan order, so they are
    deterministic across executors and stable enough to print in
    ``PostRun`` reprs.  Keys spliced from a resume journal never reach
    the index: it classifies only the keys that run live.
    """

    def __init__(self):
        #: key -> class id, in plan order.
        self.class_of = {}
        #: class id -> [member keys, in plan order].
        self.members = {}
        self._reps = {}  # class id -> representative (first member)

    @classmethod
    def build(cls, keys, store):
        index = cls()
        by_state = {}
        for key in keys:
            state = (key[2], store.fingerprint(key[0]))
            cid = by_state.setdefault(state, len(index.members))
            index.class_of[key] = cid
            index.members.setdefault(cid, []).append(key)
            index._reps.setdefault(cid, key)
        return index

    # -- queries --------------------------------------------------------

    def __len__(self):
        return len(self.members)

    @property
    def dedup_classes(self):
        return len(self.members)

    @property
    def deduped(self):
        """How many keys the representatives speak for."""
        return len(self.class_of) - len(self.members)

    def rep_for(self, key):
        return self._reps[self.class_of[key]]

    def rep_keys(self):
        """The representatives, in plan order (dict insertion order:
        class ids are assigned as keys are scanned)."""
        return list(self._reps.values())

    def fallback_keys(self, completed, carries_over=None):
        """Members that must run themselves, class by class in plan
        order: their representative never completed (quarantined), or
        ``carries_over(rep, key)`` says its outcome does not hold for
        them.

        A quarantined representative speaks for nobody, and silently
        dropping a whole class would turn one harness fault into many
        missing outcomes.
        """
        keys = []
        for cid, members in self.members.items():
            rep = self._reps[cid]
            done = rep in completed
            keys.extend(
                key for key in members
                if key != rep and not (
                    done and (
                        carries_over is None or carries_over(rep, key)
                    )
                )
            )
        return keys

    def __repr__(self):
        return (
            f"DedupIndex({len(self.class_of)} key(s) in "
            f"{len(self.members)} class(es), {self.deduped} deduped)"
        )
