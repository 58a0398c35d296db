"""Energy accounting for the clumsy processor (paper Section 5.4).

The paper combines three published models, and only ever uses them through
a handful of ratios, which this module reproduces:

* Montanaro et al. for the overall (StrongARM-like) chip: we charge a
  constant core energy per cycle, calibrated so the L1 data cache draws
  about 16% of chip energy at the nominal clock under a representative
  packet-processing access mix (0.5 data accesses per instruction, CPI
  around 1.5 -- the Table I ratios).
* CACTI for cache access energies at full frequency: the L2 is charged a
  per-access energy several times the L1's, reflecting its 32x capacity.
* The voltage-swing model for over-clocked L1 accesses: "The energy
  consumed by the cache linearly shrinks with this decrease in the voltage
  swing", i.e. the L1D access energy is multiplied by ``Vsr(Cr)`` -- giving
  the paper's 6%/19%/45% reductions at Cr = 0.75/0.5/0.25.
* Phelan for parity: +23% energy on protected reads, +36% on writes.

All energies are in abstract units; every reported result is normalised to
the baseline configuration (Cr = 1, no detection), exactly as the paper's
Figures 9-12 are.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import constants
from repro.core.voltage import VoltageSwingModel


@dataclass(frozen=True)
class EnergyModel:
    """Per-event energies (abstract units) and the swing scaling rule."""

    l1d_read_energy: float = 2.2
    l1d_write_energy: float = 2.2
    l1i_read_energy: float = 0.6
    l2_access_energy: float = 8.0
    core_energy_per_cycle: float = 1.6
    parity_read_overhead: float = constants.PARITY_READ_ENERGY_OVERHEAD
    parity_write_overhead: float = constants.PARITY_WRITE_ENERGY_OVERHEAD
    #: SEC-DED overheads: 7 check bits per 32-bit word plus the syndrome
    #: tree, roughly double the parity cost (model assumption documented in
    #: DESIGN.md -- the paper gives no number because it dismisses ECC).
    secded_read_overhead: float = 0.46
    secded_write_overhead: float = 0.72
    voltage: VoltageSwingModel = field(default_factory=VoltageSwingModel)

    def protection_overhead(self, is_write: bool, code: str) -> float:
        """Fractional energy overhead of a protection code per access."""
        if code == "none":
            return 0.0
        if code == "parity":
            return (self.parity_write_overhead if is_write
                    else self.parity_read_overhead)
        if code == "secded":
            return (self.secded_write_overhead if is_write
                    else self.secded_read_overhead)
        raise ValueError(f"unknown protection code {code!r}")

    def l1d_access_energy(self, is_write: bool, relative_cycle_time: float,
                          code: str = "none") -> float:
        """Energy of one L1 data-cache access at clock setting ``Cr``.

        The raw access energy scales linearly with the voltage swing; the
        protection overhead applies to the scaled access (the check-bit
        logic runs at the same reduced swing as the array it protects).
        """
        base = self.l1d_write_energy if is_write else self.l1d_read_energy
        energy = base * self.voltage.swing(relative_cycle_time)
        return energy * (1.0 + self.protection_overhead(is_write, code))

    def cache_energy_reduction(self, relative_cycle_time: float) -> float:
        """Fractional cache-energy saving vs nominal (paper: 6/19/45%)."""
        return 1.0 - self.voltage.swing(relative_cycle_time)


@dataclass
class EnergyAccount:
    """Accumulates energy by component over a simulation run."""

    model: EnergyModel = field(default_factory=EnergyModel)
    core: float = 0.0
    l1d: float = 0.0
    l1i: float = 0.0
    l2: float = 0.0

    def charge_core_cycles(self, cycles: float) -> None:
        """Charge core energy for ``cycles`` executed cycles."""
        if cycles < 0:
            raise ValueError("cannot charge negative cycles")
        self.core += cycles * self.model.core_energy_per_cycle

    def charge_l1i_accesses(self, count: int) -> None:
        """Charge ``count`` instruction fetches (one per instruction)."""
        if count < 0:
            raise ValueError("cannot charge a negative access count")
        self.l1i += count * self.model.l1i_read_energy

    def charge_l2_access(self) -> None:
        """Charge one L2 access."""
        self.l2 += self.model.l2_access_energy

    @property
    def total(self) -> float:
        """Total chip energy consumed so far."""
        return self.core + self.l1d + self.l1i + self.l2

    @property
    def l1d_fraction(self) -> float:
        """Share of chip energy drawn by the L1 data cache (paper: ~16%)."""
        total = self.total
        return self.l1d / total if total > 0 else 0.0

    def snapshot(self) -> "dict[str, float]":
        """Component breakdown, for reports and tests."""
        return {"core": self.core, "l1d": self.l1d, "l1i": self.l1i,
                "l2": self.l2, "total": self.total}
