"""Energy model and accounting (paper Section 5.4)."""

import pytest

from repro.core import constants
from repro.core.energy import EnergyAccount, EnergyModel


@pytest.fixture
def model():
    return EnergyModel()


class TestCacheEnergyScaling:
    @pytest.mark.parametrize("cycle_time,reduction",
                             sorted(constants.CACHE_ENERGY_REDUCTION.items()))
    def test_paper_reductions(self, model, cycle_time, reduction):
        # Section 5.4: cache energy shrinks 6/19/45% at Cr = 0.75/0.5/0.25.
        assert model.cache_energy_reduction(cycle_time) == pytest.approx(
            reduction, abs=0.01)

    def test_no_reduction_at_nominal(self, model):
        assert model.cache_energy_reduction(1.0) == pytest.approx(0.0)

    def test_access_energy_scales_with_swing(self, model):
        nominal = model.l1d_access_energy(False, 1.0, code="none")
        overclocked = model.l1d_access_energy(False, 0.25, code="none")
        assert overclocked / nominal == pytest.approx(
            model.voltage.swing(0.25))


class TestParityOverhead:
    def test_read_overhead_is_23_percent(self, model):
        plain = model.l1d_access_energy(False, 1.0, code="none")
        protected = model.l1d_access_energy(False, 1.0, code="parity")
        assert protected / plain == pytest.approx(
            1.0 + constants.PARITY_READ_ENERGY_OVERHEAD)

    def test_write_overhead_is_36_percent(self, model):
        plain = model.l1d_access_energy(True, 1.0, code="none")
        protected = model.l1d_access_energy(True, 1.0, code="parity")
        assert protected / plain == pytest.approx(
            1.0 + constants.PARITY_WRITE_ENERGY_OVERHEAD)

    def test_parity_overhead_applies_at_reduced_swing(self, model):
        plain = model.l1d_access_energy(True, 0.5, code="none")
        protected = model.l1d_access_energy(True, 0.5, code="parity")
        assert protected / plain == pytest.approx(1.36)


class TestAccount:
    def test_components_accumulate(self, model):
        account = EnergyAccount(model=model)
        account.charge_core_cycles(10)
        account.l1d += model.l1d_access_energy(False, 1.0, code="none")
        account.charge_l1i_accesses(1)
        account.charge_l2_access()
        expected = (10 * model.core_energy_per_cycle
                    + model.l1d_read_energy + model.l1i_read_energy
                    + model.l2_access_energy)
        assert account.total == pytest.approx(expected)

    def test_bulk_l1i_matches_repeated_single(self, model):
        bulk = EnergyAccount(model=model)
        bulk.charge_l1i_accesses(37)
        single = EnergyAccount(model=model)
        for _ in range(37):
            single.charge_l1i_accesses(1)
        assert bulk.l1i == pytest.approx(single.l1i)

    def test_l1d_fraction(self, model):
        account = EnergyAccount(model=model)
        assert account.l1d_fraction == 0.0
        account.l1d += model.l1d_access_energy(False, 1.0, code="none")
        assert account.l1d_fraction == pytest.approx(1.0)
        account.charge_core_cycles(100)
        assert 0.0 < account.l1d_fraction < 1.0

    def test_snapshot_keys(self, model):
        snapshot = EnergyAccount(model=model).snapshot()
        assert set(snapshot) == {"core", "l1d", "l1i", "l2", "total"}

    def test_negative_charges_rejected(self, model):
        account = EnergyAccount(model=model)
        with pytest.raises(ValueError):
            account.charge_core_cycles(-1)
        with pytest.raises(ValueError):
            account.charge_l1i_accesses(-1)


class TestRepresentativeMixFraction:
    def test_l1d_share_near_paper_16_percent(self, model):
        # Phelan/Montanaro anchor: L1D ~= 16% of chip energy under a
        # packet-processing mix (~0.45 data accesses per instruction, ~55%
        # instruction share of cycles).
        account = EnergyAccount(model=model)
        instructions = 10000
        accesses = 3000     # ~0.3 data accesses/instruction (Table I ratio)
        cycles = instructions / 0.55
        account.charge_core_cycles(cycles)
        account.charge_l1i_accesses(instructions)
        for index in range(accesses):
            account.l1d += model.l1d_access_energy(index % 3 == 0, 1.0,
                                                   code="none")
        for _ in range(accesses // 20):  # ~5% miss traffic
            account.charge_l2_access()
        assert account.l1d_fraction == pytest.approx(
            constants.L1D_CHIP_ENERGY_FRACTION, abs=0.03)
