"""Noise distributions and SRAM noise-immunity curves (paper Section 3).

Three pieces of the paper's fault-physics chain live here:

* Equation (2): the probability density of the relative noise amplitude
  ``Ar`` injected by capacitively-coupled neighbour lines,
  ``P(Ar) = 28.8 * exp(-28.8 * Ar)`` (the saturated form for many coupled
  lines; :mod:`repro.core.switching` derives the discrete precursor).
* Equation (3): the relative noise duration ``Dr`` is uniform on
  ``(0, 0.1)`` -- bounded by the rise time of the aggressor signals.
* Figure 2(b): noise-immunity curves for the 6-transistor SRAM cell.  A
  noise pulse flips the cell's feedback loop when its amplitude exceeds a
  duration-dependent threshold; the threshold shrinks as the voltage swing
  shrinks.  We model the classic hyperbolic immunity curve

      A_crit(Dr, Vsr) = margin(Vsr) + kappa / Dr
      margin(Vsr)     = c0 + c1 * Vsr

  Short pulses must be larger to flip the cell (the ``kappa / Dr`` term);
  a lower swing leaves a smaller static noise margin (the linear
  ``margin`` term).  ``c1`` and ``c0`` are calibrated in
  :mod:`repro.core.fault_model` against the paper's published fault-rate
  anchors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from repro.core import constants


@dataclass(frozen=True)
class NoiseAmplitudeDistribution:
    """Exponential amplitude density of Eq. (2): ``rate * exp(-rate * Ar)``."""

    rate: float = constants.NOISE_AMPLITUDE_RATE

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")

    def pdf(self, amplitude: float) -> float:
        """Density ``P(Ar)`` at a relative amplitude ``Ar >= 0``."""
        if amplitude < 0:
            return 0.0
        return self.rate * math.exp(-self.rate * amplitude)

    def survival(self, amplitude: float) -> float:
        """``P(A > amplitude)`` -- the probability mass above a threshold."""
        if amplitude <= 0:
            return 1.0
        return math.exp(-self.rate * amplitude)

    def sample(self, rng) -> float:
        """Draw one relative amplitude using ``rng.random()``."""
        # Inverse-CDF sampling of the exponential.
        return -math.log(1.0 - rng.random()) / self.rate


@dataclass(frozen=True)
class NoiseDurationDistribution:
    """Uniform duration density of Eq. (3) on ``(0, maximum)``."""

    maximum: float = constants.NOISE_DURATION_MAX

    def __post_init__(self) -> None:
        if self.maximum <= 0:
            raise ValueError(f"maximum must be positive, got {self.maximum}")

    def pdf(self, duration: float) -> float:
        """Density ``P(Dr)``: ``1 / maximum`` inside the support, else 0."""
        if 0.0 < duration < self.maximum:
            return 1.0 / self.maximum
        return 0.0

    def sample(self, rng) -> float:
        """Draw one relative duration using ``rng.random()``."""
        return rng.random() * self.maximum


@dataclass(frozen=True)
class NoiseImmunityModel:
    """Figure 2(b): critical noise amplitude for SRAM-cell logic failure.

    Parameters
    ----------
    margin_offset, margin_slope:
        ``margin(Vsr) = margin_offset + margin_slope * Vsr`` -- the static
        (long-pulse) noise margin of the feedback loop as a function of the
        relative voltage swing.
    duration_coefficient:
        ``kappa`` in ``A_crit = margin + kappa / Dr``; controls how much
        larger a short pulse must be to flip the cell.
    """

    margin_offset: float = 0.1234
    margin_slope: float = 0.3553
    duration_coefficient: float = 0.002

    def __post_init__(self) -> None:
        if self.margin_slope < 0:
            raise ValueError("margin must not grow as the swing shrinks")
        if self.duration_coefficient < 0:
            raise ValueError("duration coefficient must be non-negative")

    def margin(self, relative_swing: float) -> float:
        """Static noise margin at a given relative voltage swing."""
        if not 0.0 < relative_swing <= 1.0:
            raise ValueError(
                f"relative swing must be in (0, 1], got {relative_swing}")
        return self.margin_offset + self.margin_slope * relative_swing

    def critical_amplitude(self, duration: float, relative_swing: float) -> float:
        """Smallest relative amplitude that flips the cell (curve of Fig 2b).

        Noise pulses with ``Ar`` above this value and relative duration
        ``duration`` cause a logic failure at the given swing.
        """
        if duration <= 0:
            return math.inf
        return self.margin(relative_swing) + self.duration_coefficient / duration

    def immunity_curve(
        self, relative_swing: float, points: int = 50,
        duration_max: float = constants.NOISE_DURATION_MAX,
    ) -> "list[tuple[float, float]]":
        """Sample ``(Dr, A_crit)`` pairs -- one curve of Figure 2(b)."""
        if points < 2:
            raise ValueError("need at least two sample points")
        pairs = []
        for i in range(1, points + 1):
            duration = duration_max * i / points
            pairs.append(
                (duration, self.critical_amplitude(duration, relative_swing)))
        return pairs


@functools.lru_cache(maxsize=1024)
def failure_probability(
    immunity: NoiseImmunityModel,
    relative_swing: float,
    amplitude: NoiseAmplitudeDistribution = NoiseAmplitudeDistribution(),
    duration: NoiseDurationDistribution = NoiseDurationDistribution(),
    steps: int = 400,
) -> float:
    """Probability that one noise event flips the cell at a given swing.

    Integrates the joint noise density over the failure region above the
    immunity curve (the area above each curve of Figure 2(b)):

        P_E(Vsr) = integral over Dr of P(Dr) * P(A > A_crit(Dr, Vsr)) dDr

    computed with the midpoint rule (the integrand is smooth and bounded).

    Memoised per process: every argument is a frozen dataclass or a
    number, and the 400-step integral sits under every
    :meth:`~repro.core.fault_model.FaultModel.calibrated` and
    ``single_bit_probability`` call.  ``failure_probability.__wrapped__``
    is the plain integral.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    width = duration.maximum / steps
    total = 0.0
    for i in range(steps):
        midpoint = (i + 0.5) * width
        a_crit = immunity.critical_amplitude(midpoint, relative_swing)
        total += duration.pdf(midpoint) * amplitude.survival(a_crit) * width
    return total
