"""Per-access fault injection for the over-clocked L1 data cache.

Each CPU-initiated access to the L1 data array may suffer a noise-induced
fault.  Following the paper's Section 5.1 methodology:

* the single-bit fault probability per bit comes from the fault model
  (formula (4) territory: 2.59e-7 per bit at the nominal clock, scaled up
  with the clock frequency);
* two-bit faults are 100x rarer and three-bit faults 1000x rarer than
  single-bit faults, per access;
* an optional ``scale`` multiplier accelerates the rates for scaled-down
  runs (see DESIGN.md: fewer simulated packets at a proportionally higher
  rate preserve expected fault counts).

A fault during a **read** corrupts only the value on its way out of the
array -- the stored copy stays intact.  A fault during a **write** corrupts
the stored copy itself; the parity generator saw the intended value, so an
odd-weight write fault is detectable on every subsequent read of the word.
The injector only decides *whether and which bits* flip; the hierarchy
applies the flips and implements detection and recovery.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.core.fault_model import FaultModel, default_fault_model

#: Gap value meaning "no fault will ever be scheduled" (probability 0).
#: Large enough that no realizable run can consume it.
_NEVER = 1 << 62


@dataclass(frozen=True)
class FaultEvent:
    """Bit positions (LSB = 0) flipped by one access-level fault."""

    bit_positions: "tuple[int, ...]"

    @property
    def flip_count(self) -> int:
        """Number of bits this event flips."""
        return len(self.bit_positions)

    def apply(self, value: int) -> int:
        """Return ``value`` with the event's bits flipped."""
        for position in self.bit_positions:
            value ^= 1 << position
        return value


@dataclass
class FaultStatistics:
    """Counts of injected faults, by access kind and multiplicity."""

    read_faults: int = 0
    write_faults: int = 0
    single_bit: int = 0
    double_bit: int = 0
    triple_bit: int = 0

    @property
    def total(self) -> int:
        """Read plus write faults injected."""
        return self.read_faults + self.write_faults


class FaultInjector:
    """Draws per-access fault events for a given cache clock setting.

    This is the *reference* injector: one Bernoulli draw per access, the
    literal reading of the paper's methodology.  Subclasses may sample
    the same per-access fault process more cheaply; a subclass that can
    promise stretches of fault-free accesses sets :attr:`supports_skip`
    and implements :meth:`acquire_skip_lease`/:meth:`refund_skip_lease`,
    which the memory hierarchy's fault-free fast lane consults.

    The paper's noise events are independent per access.  The optional
    *burst* mode models environmental episodes (supply droop, temperature
    excursion, particle shower) during which the fault rate multiplies
    for a stretch of accesses: each access starts a burst with probability
    ``burst_start_probability``; a burst lasts ``burst_length`` accesses
    and multiplies the per-access probabilities by ``burst_multiplier``.
    Bursts are what the dynamic frequency-adaptation scheme (paper
    Section 4) exists to ride out -- see the burst-response bench.
    """

    #: Whether the hierarchy's fault-free fast lane may consult
    #: :meth:`acquire_skip_lease`.  The reference injector must see every
    #: access (one RNG draw each), so it never supports skipping.
    supports_skip = False

    def __init__(
        self,
        model: "FaultModel | None" = None,
        seed: int = 0,
        scale: float = 1.0,
        enabled: bool = True,
        burst_start_probability: float = 0.0,
        burst_length: int = 0,
        burst_multiplier: float = 1.0,
    ) -> None:
        if scale < 0:
            raise ValueError(f"fault scale must be non-negative, got {scale}")
        if not 0.0 <= burst_start_probability <= 1.0:
            raise ValueError("burst start probability must be in [0, 1]")
        if burst_start_probability > 0 and burst_length < 1:
            raise ValueError("bursts need a positive length")
        if burst_multiplier < 1.0:
            raise ValueError("burst multiplier must be >= 1")
        self.model = model if model is not None else default_fault_model()
        self.scale = scale
        self.enabled = enabled
        self.burst_start_probability = burst_start_probability
        self.burst_length = burst_length
        self.burst_multiplier = burst_multiplier
        self.stats = FaultStatistics()
        self.bursts_started = 0
        self._burst_remaining = 0
        self._rng = random.Random(seed)
        # relative cycle time -> cumulative probability thresholds.
        self._thresholds: "dict[float, tuple[float, float, float]]" = {}

    def _probabilities(self, cycle_time: float) -> "tuple[float, float, float]":
        key = cycle_time
        cached = self._thresholds.get(key)
        if cached is not None:
            return cached
        # The model rates are interpreted per *access event* regardless of
        # width: the paper's base rate (2.59e-7) reproduces its near-zero
        # nominal-clock error counts only under this reading (see
        # DESIGN.md, "Substitutions"); a per-bit reading over-counts by the
        # access width and is inconsistent with Table I's fallibility band.
        single, double, triple = self.model.multiplicity_probabilities(cycle_time)
        scaled = tuple(min(p * self.scale, 1.0)
                       for p in (single, double, triple))
        self._thresholds[key] = scaled
        return scaled

    def draw(self, cycle_time: float, bits: int) -> "FaultEvent | None":
        """Decide whether this access faults, and which bits flip.

        ``bits`` is the access width in bits (8/16/32).  Returns ``None``
        for the (overwhelmingly common) fault-free access.
        """
        if not self.enabled or self.scale == 0.0:
            return None
        thresholds = self._thresholds.get(cycle_time)
        if thresholds is None:
            thresholds = self._probabilities(cycle_time)
        single, double, triple = thresholds
        if self.burst_start_probability > 0:
            if (self._burst_remaining == 0
                    and self._rng.random() < self.burst_start_probability):
                self._burst_remaining = self.burst_length
                self.bursts_started += 1
            if self._burst_remaining > 0:
                self._burst_remaining -= 1
                single = min(single * self.burst_multiplier, 1.0)
                double = min(double * self.burst_multiplier, 1.0)
                triple = min(triple * self.burst_multiplier, 1.0)
        roll = self._rng.random()
        if roll >= single + double + triple:
            return None
        if roll < triple:
            flips = 3
            self.stats.triple_bit += 1
        elif roll < triple + double:
            flips = 2
            self.stats.double_bit += 1
        else:
            flips = 1
            self.stats.single_bit += 1
        positions = tuple(self._rng.sample(range(bits), k=min(flips, bits)))
        return FaultEvent(bit_positions=positions)

    def draw_fill_fault(self, probability: float,
                        line_bits: int) -> "int | None":
        """Decide whether one L2-to-L1 line fill faults, and which bit flips.

        ``probability`` is the per-fill fault probability and
        ``line_bits`` the line's width in bits.  Returns the flipped
        bit's position in the line, or ``None`` for a clean fill.  Draws
        from the stream :meth:`draw` uses; a disabled injector draws
        nothing and returns ``None``.
        """
        if not self.enabled or self._rng.random() >= probability:
            return None
        return self._rng.randrange(line_bits)

    def record_kind(self, is_write: bool) -> None:
        """Attribute the last drawn fault to a read or a write access."""
        if is_write:
            self.stats.write_faults += 1
        else:
            self.stats.read_faults += 1


class GeometricFaultInjector(FaultInjector):
    """Skip-sampling injector: statistically equivalent, much cheaper.

    At the paper's rates almost every access is fault-free, so instead of
    drawing one Bernoulli sample per access this injector draws the
    *index of the next faulting access* directly: the number of clean
    accesses before the next fault under a per-access fault probability
    ``p`` is geometrically distributed, ``P(gap = k) = (1-p)^k * p``, and
    inverse-transform sampling gives ``gap = floor(ln(1-U) / ln(1-p))``
    for one uniform draw ``U``.  The fault-free stretch is then consumed
    by a counter decrement per access -- no RNG, no threshold compares --
    which is the regime real undervolted-SRAM fault-injection campaigns
    operate in (Soyturk et al.).  On the scheduled access the flip
    multiplicity is drawn from the same conditional distribution the
    reference injector realises (``P(k bits | fault)``), and the bit
    positions by the same ``sample`` call, so fault *content* matches the
    reference distribution exactly; see DESIGN.md ("Geometric skip
    sampling") for the equivalence argument.

    The schedule is keyed to the cycle time it was derived at: whenever
    the clock changes (the dynamic scheme retunes ``Cr`` mid-run), the
    remaining gap is discarded and re-sampled at the new rate -- valid
    because the geometric distribution is memoryless.  Burst mode modulates the rate
    per access, so with bursts configured this class transparently falls
    back to the reference per-access draw and never advertises a
    fault-free stretch.
    """

    supports_skip = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Fault-free accesses remaining before the scheduled fault.
        self._gap = 0
        #: Cycle time the current gap was sampled at (None = unscheduled).
        self._gap_cycle_time: "float | None" = None
        #: Times a live schedule was discarded for a rate change.
        self.schedule_rederivations = 0
        if self.burst_start_probability > 0.0:
            # Bursts modulate the rate per access; every access must go
            # through draw(), so never advertise a fault-free stretch.
            self.supports_skip = False

    @property
    def scheduled_gap(self) -> int:
        """Fault-free accesses promised before the next fault (observer)."""
        return self._gap

    def _per_access_mode(self) -> bool:
        """Whether this injector must see every access individually."""
        return self.burst_start_probability > 0.0

    def _reschedule(self, cycle_time: float) -> None:
        """Sample the next inter-fault gap at ``cycle_time``'s rate."""
        if self._gap_cycle_time is not None:
            self.schedule_rederivations += 1
        self._gap_cycle_time = cycle_time
        single, double, triple = self._probabilities(cycle_time)
        total = single + double + triple
        if total <= 0.0:
            self._gap = _NEVER
            return
        if total >= 1.0:
            self._gap = 0
            return
        # Inverse-transform geometric sample.  random() is in [0, 1), so
        # log1p(-u) is finite; u == 0 maps to gap 0 as the CDF requires.
        u = self._rng.random()
        self._gap = int(math.log1p(-u) / math.log1p(-total))

    # -- fast-lane protocol -------------------------------------------------

    def acquire_skip_lease(self, cycle_time: float) -> int:
        """Hand the caller the scheduled fault-free gap at ``cycle_time``.

        The returned count is a *lease*: the caller may serve that many
        accesses without consulting :meth:`draw`, decrementing a local
        counter instead of paying one injector round-trip per access.
        The lease is transferred, not copied -- the internal gap drops to
        zero -- so any access the caller cannot serve on the fast lane
        must be preceded by :meth:`refund_skip_lease` of the unspent
        remainder, after which :meth:`draw` resumes the exact schedule.
        Returns 0 when the next access is the scheduled faulting one.
        """
        if self._gap_cycle_time != cycle_time:
            self._reschedule(cycle_time)
        lease = self._gap
        self._gap = 0
        return lease

    def refund_skip_lease(self, count: int) -> None:
        """Return the unspent remainder of a lease to the schedule."""
        self._gap += count

    # -- the draw interface -------------------------------------------------

    def draw(self, cycle_time: float, bits: int) -> "FaultEvent | None":
        """Reference-compatible draw, served from the skip schedule."""
        if not self.enabled or self.scale == 0.0:
            return None
        if self._per_access_mode():
            return super().draw(cycle_time, bits)
        if self._gap_cycle_time != cycle_time:
            self._reschedule(cycle_time)
        if self._gap > 0:
            self._gap -= 1
            return None
        # This is the scheduled faulting access: draw the multiplicity
        # from the conditional law P(k bits | fault) the reference
        # injector's threshold compare realises.
        single, double, triple = self._probabilities(cycle_time)
        total = single + double + triple
        roll = self._rng.random() * min(total, 1.0)
        if roll < triple:
            flips = 3
            self.stats.triple_bit += 1
        elif roll < triple + double:
            flips = 2
            self.stats.double_bit += 1
        else:
            flips = 1
            self.stats.single_bit += 1
        positions = tuple(self._rng.sample(range(bits), k=min(flips, bits)))
        self._reschedule(cycle_time)
        return FaultEvent(bit_positions=positions)


#: Injector name -> implementation class.
_INJECTOR_CLASSES = {"reference": FaultInjector,
                     "geometric": GeometricFaultInjector}

#: Selectable injector implementations (``ExperimentConfig.injector`` /
#: the CLI's ``--injector``).  ``reference`` is the per-access Bernoulli
#: sampler the golden snapshots were frozen against; ``geometric`` is the
#: statistically equivalent skip sampler (see
#: :class:`GeometricFaultInjector`).
INJECTOR_NAMES = tuple(_INJECTOR_CLASSES)


def make_injector(name: str, **kwargs) -> FaultInjector:
    """Construct the injector ``name`` selects (see :data:`INJECTOR_NAMES`)."""
    try:
        injector_class = _INJECTOR_CLASSES[name]
    except KeyError:
        raise ValueError(
            f"unknown injector {name!r}; choose from {INJECTOR_NAMES}")
    return injector_class(**kwargs)
