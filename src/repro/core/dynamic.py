"""Dynamic cache-frequency adaptation (paper Section 4).

The processor counts parity failures over *epochs* of a fixed number of
processed packets (100 in the paper).  At each epoch boundary it compares
the epoch's fault count against the count stored at the last frequency
change:

* more than ``X1 = 200%`` of the stored count -> step to the next *slower*
  clock (larger ``Cr``);
* less than ``X2 = 80%`` of the stored count -> step to the next *faster*
  clock (smaller ``Cr``);
* otherwise hold.

Counting per packet rather than per unit time lets the controller adapt to
the application's packet-processing cost.  Every actual frequency change
stores the epoch's fault count as the new reference and costs a 10-cycle
switch penalty (charged by the processor model).

Because the reference count starts at zero on a fault-free nominal clock,
the thresholds "lean towards increasing the frequency until a significant
increase in the number of faults" (Section 4): a zero reference is treated
as a reference of one fault, so fault-free epochs keep stepping the clock
up and the first epoch with a couple of faults halts the climb.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import constants
from repro.core.frequency import FrequencyLadder


@dataclass
class DynamicFrequencyController:
    """Epoch-based controller for the L1 data-cache clock."""

    ladder: FrequencyLadder = field(default_factory=FrequencyLadder)
    epoch_packets: int = constants.DYNAMIC_EPOCH_PACKETS
    x1_percent: float = constants.DYNAMIC_X1_PERCENT
    x2_percent: float = constants.DYNAMIC_X2_PERCENT
    initial_cycle_time: float = 1.0

    def __post_init__(self) -> None:
        if self.epoch_packets <= 0:
            raise ValueError("epoch length must be positive")
        if not 0 < self.x2_percent < self.x1_percent:
            raise ValueError("need 0 < X2 < X1")
        self.ladder.index_of(self.initial_cycle_time)  # validate
        self._cycle_time = self.initial_cycle_time
        self._epoch_faults = 0
        self._epoch_packet_count = 0
        self._reference_faults: "int | None" = None
        self._change_count = 0
        self._history: "list[float]" = [self.initial_cycle_time]

    # -- event feed ---------------------------------------------------------

    def record_fault(self, count: int = 1) -> None:
        """Report ``count`` detected parity failures in the current epoch."""
        if count < 0:
            raise ValueError("fault count must be non-negative")
        self._epoch_faults += count

    def packet_completed(self) -> bool:
        """Report one processed packet; returns True if the clock changed.

        Call once per packet.  At epoch boundaries the controller decides
        and, on a change, the caller must charge the 10-cycle switch
        penalty (``constants.FREQUENCY_CHANGE_PENALTY_CYCLES``).
        """
        self._epoch_packet_count += 1
        if self._epoch_packet_count < self.epoch_packets:
            return False
        changed = self._decide()
        self._epoch_packet_count = 0
        self._epoch_faults = 0
        return changed

    # -- decision ------------------------------------------------------------

    def _decide(self) -> bool:
        faults = self._epoch_faults
        reference = self._reference_faults
        # A zero (or unset) reference cannot anchor a percentage comparison;
        # treat it as a single fault so quiet epochs keep climbing.
        anchor = max(reference if reference is not None else 0, 1)
        new_cycle_time = self._cycle_time
        if faults > anchor * self.x1_percent / 100.0:
            new_cycle_time = self.ladder.slower(self._cycle_time)
        elif faults < anchor * self.x2_percent / 100.0:
            new_cycle_time = self.ladder.faster(self._cycle_time)
        if new_cycle_time == self._cycle_time:
            return False
        self._cycle_time = new_cycle_time
        self._reference_faults = faults
        self._change_count += 1
        self._history.append(new_cycle_time)
        return True

    # -- observers ------------------------------------------------------------

    @property
    def cycle_time(self) -> float:
        """The currently selected relative cycle time ``Cr``."""
        return self._cycle_time

    @property
    def change_count(self) -> int:
        """How many frequency changes have been made so far."""
        return self._change_count

    @property
    def history(self) -> "tuple[float, ...]":
        """Sequence of cycle-time settings, initial setting first."""
        return tuple(self._history)

    @property
    def epoch_faults(self) -> int:
        """Parity failures recorded so far in the open epoch."""
        return self._epoch_faults
