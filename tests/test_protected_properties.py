"""End-to-end correctness properties of protected hierarchies.

Strong invariants under randomised workloads and fault streams:

* under SEC-DED, *single-bit* faults (read or write) can never deliver a
  wrong value -- every read matches a flat reference memory;
* under parity + two-strike, *read* faults (transient) can never deliver
  a wrong value either: the retry absorbs them;
* without detection, the same fault streams do corrupt data (the
  properties above are not vacuous).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.recovery import NO_DETECTION, SECDED, TWO_STRIKE
from repro.cpu.processor import Processor
from repro.mem.faults import FaultEvent, FaultInjector
from repro.mem.hierarchy import MemoryHierarchy


class SingleBitInjector(FaultInjector):
    """Injects single-bit faults with a fixed per-access probability."""

    def __init__(self, seed: int, probability: float,
                 writes_only: bool = False, reads_only: bool = False):
        super().__init__(seed=seed, scale=1.0)
        self._rng = random.Random(seed)
        self.probability = probability
        self.writes_only = writes_only
        self.reads_only = reads_only
        self._next_is_write = False

    def draw(self, cycle_time, bits):
        if self._rng.random() >= self.probability:
            return None
        return FaultEvent(bit_positions=(self._rng.randrange(bits),))


def run_random_program(policy, injector, operations, seed):
    """Random aligned word reads/writes; returns mismatch count."""
    hierarchy = MemoryHierarchy(Processor(), injector, policy=policy,
                                memory_size=1 << 16)
    rng = random.Random(seed)
    reference = {}
    mismatches = 0
    for _ in range(operations):
        address = rng.randrange(0, 2048) * 4
        if rng.random() < 0.5:
            value = rng.getrandbits(32)
            hierarchy.write(address, value, 4)
            reference[address] = value
        else:
            got = hierarchy.read(address, 4)
            expected = reference.get(address, None)
            if expected is not None and got != expected:
                mismatches += 1
    return mismatches, hierarchy


class ReadOnlyFaultInjector(SingleBitInjector):
    """Faults only on reads (transient); writes always store cleanly.

    The hierarchy draws exactly once per logical access, so gating on
    the access kind needs cooperation: the hierarchy calls record_kind
    *after* draw, so instead we gate by peeking at the caller via an
    explicit toggle the test sets around writes.
    """


class TestSecdedNeverWrong:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_single_bit_faults_always_corrected(self, seed):
        injector = SingleBitInjector(seed=seed, probability=0.10)
        mismatches, hierarchy = run_random_program(
            SECDED, injector, operations=600, seed=seed)
        assert mismatches == 0
        assert hierarchy.corrected_faults > 0  # property is not vacuous

    def test_same_stream_corrupts_without_detection(self):
        corrupted_somewhere = False
        for seed in (1, 2, 3, 4, 5):
            injector = SingleBitInjector(seed=seed, probability=0.10)
            mismatches, _ = run_random_program(
                NO_DETECTION, injector, operations=600, seed=seed)
            corrupted_somewhere |= mismatches > 0
        assert corrupted_somewhere

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_property_random_seeds(self, seed):
        injector = SingleBitInjector(seed=seed, probability=0.08)
        mismatches, hierarchy = run_random_program(
            SECDED, injector, operations=250, seed=seed)
        # Single-bit faults per access can still *accumulate*: two hits
        # on the same word of a dirty line form a double error, which
        # SEC-DED detects but cannot correct -- recovery invalidates the
        # line and the dirty data is lost (the read then sees stale L2
        # contents; seed 616 realises this).  That is detected loss, not
        # silent corruption: every mismatch must be covered by a
        # recovery invalidation, and nothing may slip through unflagged.
        assert hierarchy.undetected_corruptions == 0
        assert mismatches <= hierarchy.recovery_invalidations


class TestParityAbsorbsTransients:
    class ReadFaultOnly(FaultInjector):
        """Single-bit faults on a fraction of accesses, reads only.

        Uses the fact that the hierarchy's write path draws exactly once
        per write after storing: we expose a flag the hierarchy's
        sequence toggles implicitly -- the draw for a write happens with
        the same bits argument, so we distinguish by counting: the test
        wraps hierarchy.write to disable the injector around stores.
        """

        def __init__(self, seed, probability):
            super().__init__(seed=seed, scale=1.0)
            self._rng = random.Random(seed)
            self.probability = probability
            self.suspended = False

        def draw(self, cycle_time, bits):
            if self.suspended:
                return None
            if self._rng.random() >= self.probability:
                return None
            return FaultEvent(bit_positions=(self._rng.randrange(bits),))

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_wrong_values_bounded_by_recovery_invalidations(self, seed):
        # Retries absorb transient read faults -- *except* when both
        # strikes fault on the same access and recovery invalidates a
        # dirty line, rolling the word back to its stale L2 copy.  That
        # data-loss hazard is inherent to the paper's scheme; the
        # invariant is that it is the ONLY way a wrong value escapes.
        injector = self.ReadFaultOnly(seed=seed, probability=0.10)
        hierarchy = MemoryHierarchy(Processor(), injector,
                                    policy=TWO_STRIKE, memory_size=1 << 16)
        rng = random.Random(seed)
        reference = {}
        mismatches = 0
        for _ in range(600):
            address = rng.randrange(0, 2048) * 4
            if rng.random() < 0.5:
                value = rng.getrandbits(32)
                injector.suspended = True     # stores are clean
                hierarchy.write(address, value, 4)
                injector.suspended = False
                reference[address] = value
            elif address in reference:
                if hierarchy.read(address, 4) != reference[address]:
                    mismatches += 1
        assert hierarchy.detected_faults > 0  # property is not vacuous
        assert mismatches <= hierarchy.recovery_invalidations
