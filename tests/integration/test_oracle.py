"""The production detector against the naive whole-detector oracle.

``tests/oracle.py`` reads the paper's pipeline literally: full crash
images per failure point, fresh pools per post-failure run, and a
reference shadow that replays the pre-failure prefix from scratch for
every post-failure replay.  Production's bug list must equal the
oracle's element for element:

* every workload, fault-free and with each of its faults, at the
  default config;
* one fault per workload under each non-default knob, one at a time,
  and under one pair of knobs;
* a derandomized property over workload, fault and sizes.

The pool width follows ``XFD_JOBS``, so the warm-pool leg of the
tier-1 suite checks the warm pool against the same oracle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DetectorConfig, XFDetector
from repro.pm.cacheline import PlatformMode
from repro.pm.image import CrashImageMode
from repro.pmdk import ObjectPool
from repro.workloads import ALL_WORKLOADS
from tests.integration.test_roi import RoIRoot, RoIWorkload
from tests.oracle import oracle_bugs

TEST_SIZE = 3


def assert_matches_oracle(name, fault, config, **sizes):
    return assert_workload_matches_oracle(
        lambda: ALL_WORKLOADS[name](
            faults={fault} if fault else (), **sizes
        ),
        config,
    )


def assert_workload_matches_oracle(make, config):
    """``make`` builds a fresh workload instance per run."""
    production = XFDetector(config).run(make()).bugs
    assert production == oracle_bugs(make(), config)
    return production


FAULT_CASES = [
    (name, fault)
    for name, cls in ALL_WORKLOADS.items()
    for fault in [None, *cls.FAULTS]
]


@pytest.mark.parametrize(
    "name,fault", FAULT_CASES,
    ids=[f"{name}:{fault or 'clean'}" for name, fault in FAULT_CASES],
)
def test_every_fault_matches_oracle(name, fault):
    assert_matches_oracle(
        name, fault, DetectorConfig(), test_size=TEST_SIZE
    )


#: Each knob set alone: those that change what a run detects, and
#: ``audit``, which must not.  One pair: the persisted-only base run
#: and its crash-state variants restore through the same image memo.
KNOBS = {
    "crash_states": {"crash_state_variants": 2},
    "persisted_only": {"crash_image_mode": CrashImageMode.PERSISTED_ONLY},
    "persisted_only_crash_states": {
        "crash_image_mode": CrashImageMode.PERSISTED_ONLY,
        "crash_state_variants": 2,
    },
    "eadr": {"platform": PlatformMode.EADR},
    "audit": {"audit": True},
    "every_read": {"first_read_only": False},
    "trust_zeroing": {"trust_allocator_zeroing": True},
    "empty_points": {"skip_empty_failure_points": False},
}

#: One fault per workload for the knob sweep: the first listed.
KNOB_FAULTS = {
    name: next(iter(cls.FAULTS)) for name, cls in ALL_WORKLOADS.items()
}


@pytest.mark.parametrize("knob", list(KNOBS))
@pytest.mark.parametrize("name", list(ALL_WORKLOADS))
def test_knobs_match_oracle(name, knob):
    assert_matches_oracle(
        name, KNOB_FAULTS[name], DetectorConfig(**KNOBS[knob]),
        test_size=TEST_SIZE,
    )


def test_cyclic_crash_state_matches_oracle():
    """rbtree's ``skip_fixup_adds`` crash-state variants leave a cycle
    of child pointers: recovery's audit walk must end in a
    ``TraversalLimitError`` crash, not walk forever."""
    bugs = assert_matches_oracle(
        "rbtree", "skip_fixup_adds",
        DetectorConfig(crash_state_variants=2), test_size=TEST_SIZE,
    )
    assert any("TraversalLimitError" in bug.detail for bug in bugs)


class ReadsBeforeRoI(RoIWorkload):
    """Recovery reads both fields before it opens its region."""

    name = "roi-reads-first"

    def post_failure(self, ctx):
        root = ObjectPool.open(ctx.memory, "roi", "roi", RoIRoot).root
        _ = (root.inside, root.outside)
        super().post_failure(ctx)


class NoPostRoI(RoIWorkload):
    """An RoI workload whose recovery never opens a region."""

    name = "roi-no-post-region"

    def post_failure(self, ctx):
        root = ObjectPool.open(ctx.memory, "roi", "roi", RoIRoot).root
        _ = (root.inside, root.outside)


class CrashBeforeRoI(RoIWorkload):
    """Recovery reads, then crashes before it reaches its region."""

    name = "roi-crash-first"

    def post_failure(self, ctx):
        root = ObjectPool.open(ctx.memory, "roi", "roi", RoIRoot).root
        _ = (root.inside, root.outside)
        raise ValueError("recovery crashed before its region")


@pytest.mark.parametrize("variants", [0, 2])
@pytest.mark.parametrize(
    "workload_cls",
    [RoIWorkload, ReadsBeforeRoI, NoPostRoI, CrashBeforeRoI],
    ids=lambda cls: cls.name,
)
def test_roi_workloads_match_oracle(workload_cls, variants):
    """No workload in ``ALL_WORKLOADS`` sets ``uses_roi``.  A recorded
    post-failure trace knows up front whether it opens a region; the
    production engine checks reads as recovery runs and learns it at
    the first ``ROI_BEGIN``."""
    bugs = assert_workload_matches_oracle(
        workload_cls, DetectorConfig(crash_state_variants=variants)
    )
    assert bugs


@settings(max_examples=25, derandomize=True, deadline=None)
@given(data=st.data())
def test_random_runs_match_oracle(data):
    name = data.draw(st.sampled_from(sorted(ALL_WORKLOADS)), "workload")
    fault = data.draw(
        st.sampled_from([None, *sorted(ALL_WORKLOADS[name].FAULTS)]),
        "fault",
    )
    assert_matches_oracle(
        name, fault, DetectorConfig(),
        init_size=data.draw(st.integers(0, 4), "init_size"),
        test_size=data.draw(st.integers(0, 4), "test_size"),
    )
