"""DVS comparison model."""

import pytest

from repro.core.dvs import (
    DVS_TRANSITION_CYCLES,
    VoltageScalingModel,
    compare_techniques,
)


class TestVoltageScalingModel:
    def test_normalised_at_unity(self):
        model = VoltageScalingModel()
        assert model.relative_frequency(1.0) == pytest.approx(1.0)
        assert model.relative_energy(1.0) == pytest.approx(1.0)

    def test_frequency_monotone_in_voltage(self):
        model = VoltageScalingModel()
        freqs = [model.relative_frequency(0.4 + 0.1 * i) for i in range(8)]
        assert all(b > a for a, b in zip(freqs, freqs[1:]))

    def test_below_threshold_no_switching(self):
        model = VoltageScalingModel()
        assert model.relative_frequency(0.3) == 0.0

    def test_voltage_for_frequency_roundtrip(self):
        model = VoltageScalingModel()
        for target in (0.5, 1.0, 2.0, 4.0):
            voltage = model.voltage_for_frequency(target)
            assert model.relative_frequency(voltage) == pytest.approx(
                target, rel=1e-6)

    def test_speed_costs_quadratic_energy(self):
        model = VoltageScalingModel()
        assert model.energy_at_frequency(2.0) > 1.5
        assert model.energy_at_frequency(0.5) < 1.0

    @pytest.mark.parametrize("kwargs", [
        dict(threshold_voltage=0.0), dict(threshold_voltage=1.0),
        dict(alpha=0.0)])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            VoltageScalingModel(**kwargs)

    def test_unreachable_frequency_rejected(self):
        with pytest.raises(ValueError):
            VoltageScalingModel().voltage_for_frequency(0.0)


class TestTechniqueComparison:
    def test_clumsy_saves_energy_dvs_pays(self):
        clumsy, dvs = compare_techniques(2.0)
        assert clumsy.relative_access_energy < 1.0   # swing shrinks
        assert dvs.relative_access_energy > 1.0      # rail rises

    def test_dvs_is_fault_free_clumsy_is_not(self):
        clumsy, dvs = compare_techniques(4.0)
        assert dvs.fault_multiplier == 1.0
        assert clumsy.fault_multiplier == pytest.approx(100.0, rel=0.01)

    def test_transition_costs(self):
        clumsy, dvs = compare_techniques(2.0)
        assert clumsy.transition_cycles == 10
        assert dvs.transition_cycles == DVS_TRANSITION_CYCLES

    def test_invalid_frequency_rejected(self):
        with pytest.raises(ValueError):
            compare_techniques(0.0)
