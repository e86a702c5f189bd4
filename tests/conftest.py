"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core import DetectorConfig, XFDetector
from repro.exec import shm
from repro.pm.memory import PersistentMemory
from repro.pm.pool import PMPool
from repro.trace.recorder import TraceRecorder


@pytest.fixture
def memory():
    """A fresh PM runtime with a pre-stage recorder."""
    return PersistentMemory(TraceRecorder("pre"), capture_ips=True)


@pytest.fixture
def pool(memory):
    """A 1 MiB raw pool mapped at the standard hint address."""
    return memory.map_pool(PMPool("test", size=1 << 20))


@pytest.fixture
def detector():
    return XFDetector(DetectorConfig())


@pytest.fixture
def config():
    return DetectorConfig()


@pytest.fixture(scope="module", autouse=True)
def _shm_leak_guard():
    """Fail the module that leaves a shared-memory segment behind.

    Reads this process's segment registry, not a ``/dev/shm`` listing:
    any other detector run on the host creates ``psm_*`` segments too.
    Leaked segments are released before failing, so the next module
    starts clean and only the leaking one fails.
    """
    yield
    leaked = shm.live_segments()
    for name in leaked:
        shm._release(name)
    if leaked:
        pytest.fail(f"shared-memory segments outlived the module: {leaked}")
