"""Shared fixtures: simulation environments with controllable fault setup."""

from __future__ import annotations

import pytest

from repro.apps.base import Environment
from repro.core.fault_model import FaultModel
from repro.core.recovery import NO_DETECTION, RecoveryPolicy
from repro.cpu.processor import Processor
from repro.harness.experiment import clear_golden_cache
from repro.mem.allocator import BumpAllocator
from repro.mem.faults import FaultInjector
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.view import MemView

#: Allocation base used by test environments (0 stays a null pointer).
TEST_ALLOCATION_BASE = 0x1000


def build_test_environment(
    scale: float = 0.0,
    policy: RecoveryPolicy = NO_DETECTION,
    cycle_time: float = 1.0,
    seed: int = 1,
    memory_size: int = 1 << 21,
) -> Environment:
    """A fresh simulation stack; ``scale == 0`` disables fault injection."""
    processor = Processor()
    injector = FaultInjector(model=FaultModel.calibrated(), seed=seed,
                             scale=scale)
    hierarchy = MemoryHierarchy(processor, injector, policy=policy,
                                cycle_time=cycle_time,
                                memory_size=memory_size)
    allocator = BumpAllocator(TEST_ALLOCATION_BASE,
                              memory_size - TEST_ALLOCATION_BASE)
    return Environment(processor=processor, hierarchy=hierarchy,
                       view=MemView(hierarchy), allocator=allocator)


@pytest.fixture
def env() -> Environment:
    """Fault-free environment at the nominal clock."""
    return build_test_environment()


@pytest.fixture
def make_env():
    """Factory fixture for environments with custom fault setup."""
    return build_test_environment


@pytest.fixture(autouse=True)
def _fresh_golden_cache():
    """Isolate the experiment-level golden cache between tests."""
    clear_golden_cache()
    yield
    clear_golden_cache()

