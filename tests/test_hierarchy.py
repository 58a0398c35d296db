"""The clumsy memory hierarchy: faults, parity, strikes, recovery."""

import pytest

from repro.core import constants
from repro.core.recovery import (
    NO_DETECTION,
    ONE_STRIKE,
    SECDED,
    THREE_STRIKE,
    TWO_STRIKE,
)
from repro.cpu.processor import Processor
from repro.mem.errors import MemoryAccessError
from repro.mem.faults import FaultEvent, FaultInjector
from repro.mem.hierarchy import MemoryHierarchy


class ScriptedInjector(FaultInjector):
    """Injector returning a scripted sequence of events (None = clean)."""

    def __init__(self, script):
        super().__init__(seed=0, scale=1.0)
        self._script = list(script)

    def draw(self, cycle_time, bits):
        if self._script:
            return self._script.pop(0)
        return None


def make_hierarchy(policy=NO_DETECTION, script=(), cycle_time=1.0):
    processor = Processor()
    injector = ScriptedInjector(script)
    hierarchy = MemoryHierarchy(processor, injector, policy=policy,
                                cycle_time=cycle_time, memory_size=1 << 20)
    return hierarchy, processor


ODD = FaultEvent(bit_positions=(3,))
EVEN = FaultEvent(bit_positions=(1, 9))


class TestFaultFreeOperation:
    def test_read_your_writes(self):
        hierarchy, _ = make_hierarchy()
        hierarchy.write(0x100, 0xCAFEBABE, 4)
        assert hierarchy.read(0x100, 4) == 0xCAFEBABE

    def test_latency_accounting_at_nominal(self):
        hierarchy, processor = make_hierarchy()
        hierarchy.write(0x100, 1, 4)       # write: no load stall; L1 miss
        miss_cycles = processor.cycles
        assert miss_cycles == pytest.approx(
            constants.L2_HIT_LATENCY_CYCLES + 100.0)  # L2 + memory fill
        hierarchy.read(0x100, 4)           # hit: 2-cycle load stall
        assert processor.cycles == pytest.approx(miss_cycles + 2.0)

    def test_overclocked_load_latency_has_single_cycle_floor(self):
        for cycle_time, expected in ((0.75, 1.5), (0.5, 1.0), (0.25, 1.0)):
            hierarchy, processor = make_hierarchy(cycle_time=cycle_time)
            hierarchy.write(0x100, 1, 4)
            before = processor.cycles
            hierarchy.read(0x100, 4)
            assert processor.cycles - before == pytest.approx(expected)

    def test_out_of_range_read_raises(self):
        hierarchy, _ = make_hierarchy()
        with pytest.raises(MemoryAccessError):
            hierarchy.read(1 << 22, 4)


class TestWildAccesses:
    def test_straddling_read_returns_deterministic_garbage(self):
        hierarchy, _ = make_hierarchy()
        first = hierarchy.read(0x1E, 4)   # crosses the 32-byte boundary
        second = hierarchy.read(0x1E, 4)
        assert first == second
        assert hierarchy.wild_reads == 2

    def test_straddling_write_is_dropped(self):
        hierarchy, _ = make_hierarchy()
        hierarchy.write(0x1E, 0xFFFFFFFF, 4)
        assert hierarchy.wild_writes == 1
        assert hierarchy.read(0x1C, 2) == 0  # memory untouched

    def test_garbage_varies_by_address(self):
        hierarchy, _ = make_hierarchy()
        assert hierarchy.read(0x1E, 4) != hierarchy.read(0x3E, 4)


class TestReadFaults:
    def test_read_fault_without_detection_returns_corrupt_value(self):
        hierarchy, _ = make_hierarchy(script=[None, ODD])
        hierarchy.write(0x100, 0b0, 4)
        assert hierarchy.read(0x100, 4) == 0b1000

    def test_read_fault_leaves_stored_copy_intact(self):
        hierarchy, _ = make_hierarchy(script=[None, ODD])
        hierarchy.write(0x100, 7, 4)
        hierarchy.read(0x100, 4)           # corrupted on the way out
        assert hierarchy.read(0x100, 4) == 7

    def test_two_strike_retry_recovers_read_fault(self):
        hierarchy, _ = make_hierarchy(policy=TWO_STRIKE, script=[None, ODD])
        hierarchy.write(0x100, 7, 4)
        assert hierarchy.read(0x100, 4) == 7
        assert hierarchy.detected_faults == 1
        assert hierarchy.recovery_invalidations == 0

    def test_one_strike_goes_straight_to_l2(self):
        hierarchy, _ = make_hierarchy(policy=ONE_STRIKE, script=[None, ODD])
        hierarchy.write(0x100, 7, 4)
        hierarchy.l1d.flush()              # L2 now holds the good copy
        assert hierarchy.read(0x100, 4) == 7
        assert hierarchy.recovery_invalidations == 1

    def test_even_weight_read_fault_escapes_parity(self):
        hierarchy, _ = make_hierarchy(policy=THREE_STRIKE,
                                      script=[None, EVEN])
        hierarchy.write(0x100, 0, 4)
        assert hierarchy.read(0x100, 4) == (1 << 1) | (1 << 9)
        assert hierarchy.detected_faults == 0


class TestWriteFaults:
    def test_write_fault_corrupts_stored_copy(self):
        hierarchy, _ = make_hierarchy(script=[ODD])
        hierarchy.write(0x100, 0, 4)
        assert hierarchy.read(0x100, 4) == 0b1000

    def test_poisoned_word_detected_on_every_read(self):
        hierarchy, _ = make_hierarchy(policy=TWO_STRIKE, script=[ODD])
        hierarchy.write(0x100, 0xFF, 4)
        hierarchy.l1d.flush()
        # Flush wrote the corrupted value to L2 and dropped the poison --
        # the corruption has escaped and reads are now consistent.
        assert hierarchy.read(0x100, 4) == 0xFF ^ 0b1000
        assert hierarchy.detected_faults == 0

    def test_poisoned_word_recovered_from_l2(self):
        # Clean copy reaches L2 first; then a poisoned rewrite is detected
        # and two-strike recovery restores the (stale but clean) L2 value.
        hierarchy, _ = make_hierarchy(policy=TWO_STRIKE,
                                      script=[None, ODD])
        hierarchy.write(0x100, 7, 4)
        hierarchy.l1d.flush()
        hierarchy.write(0x100, 7, 4)       # faulted rewrite: poisons word
        value = hierarchy.read(0x100, 4)
        assert value == 7
        assert hierarchy.recovery_invalidations == 1
        assert hierarchy.detected_faults >= 2  # both strikes fired

    def test_clean_rewrite_clears_poison(self):
        hierarchy, _ = make_hierarchy(policy=TWO_STRIKE, script=[ODD, None])
        hierarchy.write(0x100, 1, 4)       # poisoned
        hierarchy.write(0x100, 2, 4)       # clean rewrite
        assert hierarchy.read(0x100, 4) == 2
        assert hierarchy.detected_faults == 0

    def test_even_weight_write_fault_escapes_parity(self):
        hierarchy, _ = make_hierarchy(policy=THREE_STRIKE, script=[EVEN])
        hierarchy.write(0x100, 0, 4)
        assert hierarchy.read(0x100, 4) == (1 << 1) | (1 << 9)
        assert hierarchy.detected_faults == 0
        assert hierarchy.undetected_corruptions == 1


class TestEvictionContainment:
    def test_l2_stays_clean_until_writeback(self):
        hierarchy, _ = make_hierarchy(script=[None, ODD])
        hierarchy.write(0x100, 7, 4)       # clean write
        hierarchy.l1d.flush()
        hierarchy.write(0x100, 7, 4)       # poisoned write, L1 only
        assert hierarchy.l2.read(0x100, 4) == (7).to_bytes(4, "little")

    def test_poison_cleared_when_line_leaves_l1(self):
        hierarchy, _ = make_hierarchy(policy=TWO_STRIKE, script=[ODD])
        hierarchy.write(0x100, 0, 4)
        hierarchy.l1d.flush()
        assert not hierarchy.corruption


class TestClockControl:
    def test_setting_same_cycle_time_is_free(self):
        hierarchy, processor = make_hierarchy()
        hierarchy.set_cycle_time(1.0)
        assert processor.cycles == 0
        assert processor.frequency_changes == 0

    def test_change_charges_ten_cycles(self):
        hierarchy, processor = make_hierarchy()
        hierarchy.set_cycle_time(0.5)
        assert processor.cycles == constants.FREQUENCY_CHANGE_PENALTY_CYCLES
        assert hierarchy.cycle_time == 0.5
        assert processor.frequency_changes == 1

    def test_invalid_cycle_time_rejected(self):
        hierarchy, _ = make_hierarchy()
        with pytest.raises(ValueError):
            hierarchy.set_cycle_time(0.0)


class TestEnergyCharging:
    def test_parity_raises_access_energy(self):
        plain, plain_cpu = make_hierarchy(policy=NO_DETECTION)
        parity, parity_cpu = make_hierarchy(policy=TWO_STRIKE)
        for hierarchy in (plain, parity):
            hierarchy.write(0x100, 1, 4)
            hierarchy.read(0x100, 4)
        assert parity_cpu.energy.l1d > plain_cpu.energy.l1d

    def test_l2_energy_charged_on_fill_and_writeback(self):
        hierarchy, processor = make_hierarchy()
        hierarchy.write(0x100, 1, 4)       # fill
        one_fill = processor.energy.l2
        hierarchy.l1d.flush()              # writeback
        assert processor.energy.l2 == pytest.approx(one_fill * 2)


class TestL1AccessCharge:
    """A slow-path access adds exactly the energy model's L1 charge.

    The MemView lane adds the same per-clock values, so this pins the
    price of one L1 access on both lanes, and its refresh on a clock
    change.
    """

    @staticmethod
    def assert_charged(hierarchy, processor, cr, code):
        """One read and one write each add the model's charge at ``cr``."""
        hierarchy.write(0x100, 1, 4)       # resident: the accesses hit
        model = processor.energy.model
        for is_write in (False, True):
            energy = processor.energy.l1d
            cycles = processor.cycles
            if is_write:
                hierarchy.write(0x100, 0x5A, 4)
                stall = 0.0
            else:
                hierarchy.read(0x100, 4)
                stall = max(1.0, constants.L1_HIT_LATENCY_CYCLES * cr)
            assert processor.energy.l1d == (
                energy + model.l1d_access_energy(is_write, cr, code))
            assert processor.cycles == cycles + stall
        assert hierarchy.injector.stats.total == 0

    @pytest.mark.parametrize("policy", [NO_DETECTION, TWO_STRIKE, SECDED],
                             ids=lambda policy: policy.code)
    @pytest.mark.parametrize("cr", constants.RELATIVE_CYCLE_LEVELS)
    def test_slow_path_charges_the_current_clock(self, cr, policy):
        processor = Processor()
        hierarchy = MemoryHierarchy(processor, FaultInjector(seed=0),
                                    policy=policy, cycle_time=cr,
                                    memory_size=1 << 20)
        self.assert_charged(hierarchy, processor, cr, policy.code)
        other = 1.0 if cr != 1.0 else 0.25
        hierarchy.set_cycle_time(other)
        self.assert_charged(hierarchy, processor, other, policy.code)


class TestInitialLoadAndInspect:
    def test_load_initial_bypasses_cache(self):
        hierarchy, processor = make_hierarchy()
        hierarchy.load_initial(0x200, b"\x11\x22\x33\x44")
        assert processor.cycles == 0
        assert hierarchy.read(0x200, 4) == 0x44332211

    def test_load_initial_refuses_cached_ranges(self):
        hierarchy, _ = make_hierarchy()
        hierarchy.write(0x200, 1, 4)
        with pytest.raises(RuntimeError):
            hierarchy.load_initial(0x200, b"\x00" * 4)

    def test_inspect_sees_l1_over_l2_over_memory(self):
        hierarchy, _ = make_hierarchy()
        hierarchy.load_initial(0x300, b"\xAA" * 4)
        assert hierarchy.inspect(0x300, 4) == b"\xAA" * 4
        hierarchy.write(0x300, 0xBBBBBBBB, 4)
        assert hierarchy.inspect(0x300, 4) == b"\xBB" * 4

    def test_inspect_has_no_side_effects(self):
        hierarchy, processor = make_hierarchy()
        hierarchy.load_initial(0x300, b"\x01\x02\x03\x04")
        before = (processor.cycles, hierarchy.l1d.stats.accesses)
        hierarchy.inspect(0x300, 4)
        assert (processor.cycles, hierarchy.l1d.stats.accesses) == before
