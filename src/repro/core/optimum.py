"""Analytic operating-point model: predict the optimal cache clock.

The paper finds the optimum (Cr = 0.5 with two-strike recovery) by
exhaustive simulation.  Given a workload *profile* -- the per-packet
instruction and memory-traffic footprint one fault-free run measures
(:mod:`repro.harness.profile`) -- the same trade-off can be written in
closed form:

* **delay(Cr)** = instructions + loads · max(1, L1_latency · Cr)
  + L1 fills · L2_latency + L2 fills · memory_latency  (cycles/packet;
  the max() is the load-use floor that saturates the gains below 0.5);
* **energy(Cr)** = core · delay + fetch · instructions
  + accesses · E_L1D · Vsr(Cr) · (1 + code overhead)
  + (fills + writebacks) · E_L2;
* **fallibility(Cr)** ≈ 1 + min(1, accesses · P_E(Cr) · scale ·
  conversion), with ``conversion`` the fraction of faults that become
  packet errors (paper Section 5.2: ~0.15 at physical rates; ~0.5 at the
  harness's scaled rates -- see the fault-anatomy extension).

The product energy·delay²·fallibility² is then minimised over a dense
``Cr`` grid.  The model is a design-space *navigator*: it reproduces the
simulated curve's shape and the location of its minimum at a millionth of
the cost, and the benches validate it against full simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import constants
from repro.core.energy import EnergyModel
from repro.core.fault_model import FaultModel, default_fault_model
from repro.core.metrics import MetricExponents, PAPER_EXPONENTS
from repro.core.recovery import NO_DETECTION, RecoveryPolicy

#: Default errors-per-fault conversion at the harness's scaled rates
#: (measured by the fault-anatomy extension bench).
DEFAULT_ERROR_CONVERSION = 0.5


@dataclass(frozen=True)
class PredictedPoint:
    """Model outputs at one relative cycle time."""

    cycle_time: float
    delay_cycles: float
    energy: float
    fallibility: float
    product: float


@dataclass(frozen=True)
class OperatingPointModel:
    """Closed-form delay/energy/fallibility as functions of ``Cr``.

    ``profile`` is any object exposing the per-packet attributes of
    :class:`repro.harness.profile.WorkloadProfile`.
    """

    profile: object
    policy: RecoveryPolicy = NO_DETECTION
    fault_scale: float = 1.0
    error_conversion: float = DEFAULT_ERROR_CONVERSION
    energy_model: EnergyModel = field(default_factory=EnergyModel)
    fault_model: FaultModel = field(default_factory=default_fault_model)
    exponents: MetricExponents = PAPER_EXPONENTS

    def delay(self, cycle_time: float) -> float:
        """Predicted cycles per packet at clock setting ``Cr``."""
        if cycle_time <= 0:
            raise ValueError("cycle time must be positive")
        profile = self.profile
        load_stall = max(1.0, constants.L1_HIT_LATENCY_CYCLES * cycle_time)
        return (profile.instructions_per_packet
                + profile.loads_per_packet * load_stall
                + profile.l1_fills_per_packet
                * constants.L2_HIT_LATENCY_CYCLES
                + profile.l2_fills_per_packet
                * constants.MEMORY_LATENCY_CYCLES)

    def energy(self, cycle_time: float) -> float:
        """Predicted chip energy per packet at ``Cr``."""
        profile = self.profile
        model = self.energy_model
        core = self.delay(cycle_time) * model.core_energy_per_cycle
        fetch = profile.instructions_per_packet * model.l1i_read_energy
        l1d = (profile.loads_per_packet
               * model.l1d_access_energy(False, cycle_time,
                                         self.policy.code)
               + profile.stores_per_packet
               * model.l1d_access_energy(True, cycle_time,
                                         self.policy.code))
        l2 = ((profile.l1_fills_per_packet + profile.writebacks_per_packet)
              * model.l2_access_energy)
        return core + fetch + l1d + l2

    def _expected_harmful_faults(self, cycle_time: float) -> float:
        """Expected unabsorbed faults per packet at ``Cr``."""
        per_access = self.fault_model.single_bit_probability(cycle_time)
        faults = (self.profile.accesses_per_packet * per_access
                  * self.fault_scale)
        if self.policy.corrects_faults or self.policy.strikes >= 2:
            # Single-bit events (the 1/(1+0.01+0.001) share) are absorbed.
            faults *= (constants.TWO_BIT_FAULT_RATIO
                       + constants.THREE_BIT_FAULT_RATIO)
        elif self.policy.strikes == 1:
            # One-strike recovers write faults but turns transient read
            # faults into lossy invalidations: roughly half absorbed.
            faults *= 0.5
        return faults

    def fallibility(self, cycle_time: float) -> float:
        """Predicted fallibility factor at ``Cr``.

        Expected unabsorbed faults per packet times the error-conversion
        rate, saturating at the factor-of-two ceiling.  ``error_conversion``
        is *erroneous packets per fault* and may exceed 1: a persistent
        corruption (the paper's nonvolatile error) turns one fault into
        many erroneous packets.  Use :meth:`calibrate_conversion` to pin
        it with a single simulation point.
        """
        faults = self._expected_harmful_faults(cycle_time)
        error_fraction = min(1.0, faults * self.error_conversion)
        return 1.0 + error_fraction

    def calibrate_conversion(self, observed_fallibility: float,
                             at_cycle_time: float) -> "OperatingPointModel":
        """Return a copy whose conversion matches one simulated point.

        The hybrid workflow: one simulation at an aggressive setting
        (``Cr = 0.25`` is the most informative) pins the conversion rate,
        and the analytic curve then locates the optimum without further
        simulation.
        """
        if observed_fallibility < 1.0:
            raise ValueError("fallibility factors are >= 1")
        faults = self._expected_harmful_faults(at_cycle_time)
        if faults <= 0:
            raise ValueError(
                "cannot calibrate against a fault-free operating point")
        from dataclasses import replace
        return replace(self,
                       error_conversion=(observed_fallibility - 1.0) / faults)

    def predict(self, cycle_time: float) -> PredictedPoint:
        """All model outputs at one setting."""
        delay = self.delay(cycle_time)
        energy = self.energy(cycle_time)
        fallibility = self.fallibility(cycle_time)
        product = (energy ** self.exponents.energy
                   * delay ** self.exponents.delay
                   * fallibility ** self.exponents.fallibility)
        return PredictedPoint(cycle_time=cycle_time, delay_cycles=delay,
                              energy=energy, fallibility=fallibility,
                              product=product)

    def curve(self, low: float = 0.25, high: float = 1.0,
              points: int = 76) -> "list[PredictedPoint]":
        """The predicted product over a dense ``Cr`` grid."""
        if not 0 < low < high:
            raise ValueError("need 0 < low < high")
        if points < 2:
            raise ValueError("need at least two grid points")
        step = (high - low) / (points - 1)
        return [self.predict(low + index * step) for index in range(points)]

    def optimum(self, low: float = 0.25, high: float = 1.0,
                points: int = 76) -> PredictedPoint:
        """The grid point minimising energy^k · delay^m · fallibility^n."""
        return min(self.curve(low, high, points),
                   key=lambda point: point.product)
