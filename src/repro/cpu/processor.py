"""Cycle and energy accounting for the packet-processor core.

The paper models "a relatively simple execution core" (StrongARM-110-like)
with local L1 caches and a shared L2.  We do not interpret an ISA; the
reimplemented NetBench kernels report their computational work as abstract
instruction counts (one cycle each, in-order), and the memory hierarchy
adds cache-access stall cycles on top.  Energy is charged per cycle for the
core (Montanaro-style) plus per instruction for the instruction cache; the
data-side energies are charged by the hierarchy.
"""

from __future__ import annotations

from repro.core import constants
from repro.core.energy import EnergyAccount, EnergyModel


class Processor:
    """Accumulates cycles, instructions, and chip energy for one run."""

    def __init__(self, energy_model: "EnergyModel | None" = None) -> None:
        self.energy = EnergyAccount(model=energy_model or EnergyModel())
        #: Total cycles accounted so far.  Public and directly mutable:
        #: the memory fast lane (see repro.mem.view) folds its stall
        #: charge in without a call; everything else goes through
        #: :meth:`execute` / :meth:`stall`.
        self.cycles = 0.0
        #: Instructions executed so far (same public-mutability contract
        #: as ``cycles``: the application framework's work() accounting
        #: folds in directly).
        self.instructions = 0
        self._frequency_changes = 0
        self._finalized = False

    # -- work feed ------------------------------------------------------------

    def execute(self, instruction_count: int) -> None:
        """Account ``instruction_count`` single-cycle instructions."""
        if instruction_count < 0:
            raise ValueError("instruction count must be non-negative")
        self.instructions += instruction_count
        self.cycles += instruction_count

    def stall(self, cycles: float) -> None:
        """Account memory (or other) stall cycles."""
        if cycles < 0:
            raise ValueError("stall cycles must be non-negative")
        self.cycles += cycles

    def frequency_change_penalty(self) -> None:
        """Charge the fixed penalty for a cache clock change (Section 4)."""
        self.cycles += constants.FREQUENCY_CHANGE_PENALTY_CYCLES
        self._frequency_changes += 1

    # -- results ------------------------------------------------------------

    def finalize(self) -> EnergyAccount:
        """Charge the cycle- and instruction-proportional energies once.

        Idempotent; returns the energy account for convenience.
        """
        if not self._finalized:
            self.energy.charge_core_cycles(self.cycles)
            self.energy.charge_l1i_accesses(self.instructions)
            self._finalized = True
        return self.energy

    @property
    def frequency_changes(self) -> int:
        """Cache clock changes charged so far."""
        return self._frequency_changes
