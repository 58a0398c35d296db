"""Parity code and fault injector."""

import pytest
from hypothesis import given, strategies as st

from repro.core.fault_model import FaultModel
from repro.core.recovery import TWO_STRIKE
from repro.mem.faults import FaultEvent, FaultInjector
from repro.mem.parity import parity_of_bytes, parity_of_int


class TestParity:
    def test_known_values(self):
        assert parity_of_int(0) == 0
        assert parity_of_int(1) == 1
        assert parity_of_int(0b11) == 0
        assert parity_of_int(0xFFFFFFFF) == 0
        assert parity_of_int(0x80000001) == 0

    def test_bytes_and_int_agree(self):
        value = 0xDEADBEEF
        assert parity_of_bytes(value.to_bytes(4, "little")) == parity_of_int(
            value)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            parity_of_int(-1)

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF),
           st.sets(st.integers(min_value=0, max_value=31), min_size=1,
                   max_size=5))
    def test_property_flip_parity(self, value, positions):
        flipped = value
        for position in positions:
            flipped ^= 1 << position
        changed = parity_of_int(flipped) != parity_of_int(value)
        assert changed == (TWO_STRIKE.classify(len(positions))
                           == "detected")


class TestFaultEvent:
    def test_apply_flips_exactly_given_bits(self):
        event = FaultEvent(bit_positions=(0, 5))
        assert event.apply(0) == 0b100001
        assert event.apply(0b100001) == 0

    def test_flip_count(self):
        assert FaultEvent(bit_positions=(1, 2, 3)).flip_count == 3


class TestFaultInjector:
    def test_disabled_injector_never_faults(self):
        injector = FaultInjector(scale=0.0)
        assert all(injector.draw(0.25, 32) is None for _ in range(1000))
        injector = FaultInjector(scale=1.0, enabled=False)
        assert all(injector.draw(0.25, 32) is None for _ in range(1000))

    def test_seed_reproducibility(self):
        first = FaultInjector(seed=9, scale=1e4)
        second = FaultInjector(seed=9, scale=1e4)
        draws_a = [first.draw(0.25, 32) for _ in range(200)]
        draws_b = [second.draw(0.25, 32) for _ in range(200)]
        assert draws_a == draws_b

    def test_rate_scales_with_clock(self):
        def rate(cycle_time):
            injector = FaultInjector(seed=3, scale=2e4)
            trials = 30000
            hits = sum(1 for _ in range(trials)
                       if injector.draw(cycle_time, 32) is not None)
            return hits / trials
        slow = rate(1.0)
        fast = rate(0.25)
        assert fast > 20 * max(slow, 1e-6)

    def test_empirical_rate_matches_model(self):
        model = FaultModel.calibrated()
        scale = 1e4
        injector = FaultInjector(model=model, seed=5, scale=scale)
        trials = 40000
        hits = sum(1 for _ in range(trials)
                   if injector.draw(0.5, 32) is not None)
        single, double, triple = model.multiplicity_probabilities(0.5)
        expected = (single + double + triple) * scale
        assert hits / trials == pytest.approx(expected, rel=0.15)

    def test_multiplicity_ratio(self):
        # Scale chosen so no probability saturates (single ~= 0.26/access).
        injector = FaultInjector(seed=11, scale=1e4)
        for _ in range(60000):
            injector.draw(0.25, 32)
        stats = injector.stats
        assert stats.single_bit > 1000
        # 100x rarer double-bit faults; generous band for sampling noise.
        assert stats.double_bit == pytest.approx(stats.single_bit * 0.01,
                                                 rel=0.5)
        assert stats.triple_bit <= stats.double_bit

    def test_bit_positions_within_access_width(self):
        injector = FaultInjector(seed=2, scale=1e6)
        for width_bits in (8, 16, 32):
            for _ in range(500):
                event = injector.draw(0.25, width_bits)
                if event is not None:
                    assert all(0 <= position < width_bits
                               for position in event.bit_positions)
                    assert len(set(event.bit_positions)) == event.flip_count

    def test_kind_attribution(self):
        injector = FaultInjector(seed=1, scale=1e6)
        injector.record_kind(is_write=True)
        injector.record_kind(is_write=False)
        injector.record_kind(is_write=False)
        assert injector.stats.write_faults == 1
        assert injector.stats.read_faults == 2
        assert injector.stats.total == 3

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(scale=-1.0)

    def test_probability_saturation_at_extreme_scale(self):
        injector = FaultInjector(seed=4, scale=1e12)
        assert all(injector.draw(0.25, 32) is not None for _ in range(50))
