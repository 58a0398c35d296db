"""Seeded spatial fault maps: measured-silicon weakness geography.

The paper's fault law is spatially flat -- every access draws from the
same Bernoulli parameter.  Real undervolted SRAMs are not flat: the
measured fault-injection campaigns ("Hardware vs Software Fault
Injection of Modern Undervolted SRAMs") find *clustered*,
address-dependent bit-error rates -- a small fraction of physically weak
rows carries most of the faults, with a secondary per-way gradient from
process variation.  This module samples such weakness geographies as
deterministic, seeded *fault maps*: pure functions from an address to a
multiplicative weakness factor applied to the analytic per-access fault
probability.

Two map families are provided:

* :class:`CorrelatedFaultMap` -- per-row / per-way variability.  A seeded
  draw marks ``weak_row_fraction`` of the rows as weak (factor
  ``weak_multiplier``); the remaining rows get the complementary factor
  that keeps the *mean* over rows exactly 1.  A deterministic linear
  ramp of half-spread ``way_spread`` across the ways models the die-
  position gradient, again with mean exactly 1.
* :class:`TieredFaultMap` -- Oobleck-style per-structure reliability
  tiers.  The address space is striped into ``band_bytes``-sized bands
  cycling through a (seed-permuted) tier multiplier list, normalised to
  mean 1; structures placed at different addresses by the bump
  allocator (route tables, NAT state, packet buffers) therefore live in
  different reliability tiers.

The mean-1 normalisation is the contract the statistical machinery
relies on: over a *uniform* address stream the marginal per-access
fault probability of a mapped injector equals
:meth:`repro.core.fault_model.FaultModel.access_fault_probability` at
the same ``Cr`` and scale (as long as ``p * weakness <= 1``, which
holds at every tested operating point), so the equivalence battery's
KS/chi-square tests and the oracle's ``faultmap`` twin can compare a
mapped injector against the reference law directly.  Spatially the
distribution is anything but flat -- that is the point -- and the
chi-square clustering test asserts exactly that.

Maps are sampled from a *dedicated* RNG (never the injector's draw
RNG), so the weakness geography of a run is a pure function of
``(seed, geometry, params)`` and map sampling can never perturb the
fault-draw sequence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Injector names whose fault law is address-dependent (the mapped
#: family registered in :mod:`repro.mem.faults`).
MAPPED_INJECTOR_NAMES = ("correlated", "tiered")

#: Tunable map parameters per mapped injector, with their defaults.
#: These are the only keys ``ExperimentConfig.fault_map_params`` may
#: carry; every value is a float.
FAULT_MAP_PARAM_DEFAULTS: "dict[str, dict[str, float]]" = {
    "correlated": {
        # Fraction of rows sampled as weak (the measured campaigns
        # report a small clustered minority of weak rows).
        "weak_row_fraction": 0.125,
        # Fault-rate multiplier of a weak row relative to the mean.
        "weak_multiplier": 4.0,
        # Half-spread of the deterministic per-way gradient (way 0 runs
        # at 1 - spread, the last way at 1 + spread).
        "way_spread": 0.2,
    },
    "tiered": {
        # Size of one reliability band; distinct structures allocated
        # by the bump allocator land in distinct bands.
        "band_bytes": 1024.0,
        # Raw tier multipliers, normalised to mean 1 at sampling time.
        "tier_strong": 0.25,
        "tier_normal": 0.75,
        "tier_weak": 2.0,
    },
}

#: Salt XORed into the experiment seed to derive the map-sampling RNG
#: (decorrelates the weakness geography from the fault-draw stream).
MAP_SEED_SALT = 0x5DEECE66D


def validate_fault_map_params(injector: str,
                              params: "dict[str, float]") -> None:
    """Reject unknown keys and out-of-range values for ``injector``.

    ``ExperimentConfig.__post_init__`` calls this so an invalid map
    parameterisation fails at config-build time, not mid-campaign.
    """
    defaults = FAULT_MAP_PARAM_DEFAULTS.get(injector)
    if defaults is None:
        if params:
            raise ValueError(
                f"fault_map_params only apply to the mapped injectors "
                f"{MAPPED_INJECTOR_NAMES}, not {injector!r}")
        return
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ValueError(
            f"unknown fault_map_params key(s) {unknown} for injector "
            f"{injector!r}; known: {sorted(defaults)}")
    merged = {**defaults, **params}
    for key, value in merged.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(
                f"fault_map_params[{key!r}] must be numeric, "
                f"got {value!r}")
    if injector == "correlated":
        fraction = merged["weak_row_fraction"]
        multiplier = merged["weak_multiplier"]
        spread = merged["way_spread"]
        if not 0.0 < fraction < 1.0:
            raise ValueError("weak_row_fraction must be in (0, 1)")
        if multiplier <= 1.0:
            raise ValueError("weak_multiplier must exceed 1")
        if fraction * multiplier > 0.9:
            # Keeps the complementary strong-row factor positive for
            # every realizable geometry (mean-1 normalisation).
            raise ValueError(
                "weak_row_fraction * weak_multiplier must stay <= 0.9 "
                "so strong rows keep a positive fault rate")
        if not 0.0 <= spread < 1.0:
            raise ValueError("way_spread must be in [0, 1)")
    elif injector == "tiered":
        if merged["band_bytes"] < 64 or merged["band_bytes"] % 64:
            raise ValueError("band_bytes must be a positive multiple of 64")
        for key in ("tier_strong", "tier_normal", "tier_weak"):
            if merged[key] <= 0:
                raise ValueError(f"{key} must be positive")


class FaultMap:
    """Address -> multiplicative weakness factor (mean 1 by contract)."""

    def weakness(self, address: int) -> float:
        """Weakness multiplier applied to the per-access fault law."""
        raise NotImplementedError


@dataclass(frozen=True)
class CorrelatedFaultMap(FaultMap):
    """Per-row / per-way weakness factors of one sampled L1 array."""

    rows: int
    line_size: int
    weak_rows: "frozenset[int]"
    weak_multiplier: float
    strong_multiplier: float
    way_factors: "tuple[float, ...]"

    @classmethod
    def sample(cls, seed: int, rows: int, ways: int, line_size: int,
               weak_row_fraction: float = 0.125,
               weak_multiplier: float = 4.0,
               way_spread: float = 0.2) -> "CorrelatedFaultMap":
        """Draw one weakness geography for a ``rows x ways`` array.

        The weak-row set comes from a dedicated RNG seeded by
        ``seed ^ MAP_SEED_SALT``; the strong-row multiplier is computed
        from the *realised* weak count so the mean over rows is exactly
        1.  The per-way gradient is a deterministic linear ramp (mean
        exactly 1), so the product of the two factors also has mean 1
        over a uniform address stream.
        """
        if rows < 2:
            raise ValueError("a correlated map needs at least two rows")
        rng = random.Random(seed ^ MAP_SEED_SALT)
        weak_count = max(1, round(weak_row_fraction * rows))
        # Keep the complementary strong factor positive even when
        # rounding overshoots on tiny arrays.
        while weak_count > 1 and weak_count * weak_multiplier >= rows:
            weak_count -= 1
        if weak_count * weak_multiplier >= rows:
            raise ValueError(
                f"weak_multiplier {weak_multiplier} infeasible for "
                f"{rows} rows")
        weak_rows = frozenset(rng.sample(range(rows), weak_count))
        strong = ((rows - weak_count * weak_multiplier)
                  / (rows - weak_count))
        if ways > 1:
            way_factors = tuple(
                1.0 + way_spread * (2.0 * way / (ways - 1) - 1.0)
                for way in range(ways))
        else:
            way_factors = (1.0,)
        return cls(rows=rows, line_size=line_size, weak_rows=weak_rows,
                   weak_multiplier=weak_multiplier,
                   strong_multiplier=strong, way_factors=way_factors)

    def row_of(self, address: int) -> int:
        """The array row (cache set) an address maps to."""
        return (address // self.line_size) % self.rows

    def weakness(self, address: int) -> float:
        row = (address // self.line_size) % self.rows
        way = (address // (self.line_size * self.rows)) % len(
            self.way_factors)
        row_factor = (self.weak_multiplier if row in self.weak_rows
                      else self.strong_multiplier)
        return row_factor * self.way_factors[way]


@dataclass(frozen=True)
class TieredFaultMap(FaultMap):
    """Reliability tiers striped across the address space."""

    band_bytes: int
    multipliers: "tuple[float, ...]"

    @classmethod
    def sample(cls, seed: int, band_bytes: int = 1024,
               tier_strong: float = 0.25, tier_normal: float = 0.75,
               tier_weak: float = 2.0) -> "TieredFaultMap":
        """Normalise the tier multipliers to mean 1 and seed-permute them.

        The permutation (from the dedicated map RNG) decides *which*
        bands carry which tier, so two seeds give different structures
        different reliability -- the sampled face of the Oobleck-style
        assignment -- while the normalised multiplier multiset, and
        therefore the uniform-address marginal, is seed-independent.
        """
        raw = [tier_strong, tier_normal, tier_weak]
        mean = sum(raw) / len(raw)
        normalised = [value / mean for value in raw]
        rng = random.Random(seed ^ MAP_SEED_SALT)
        rng.shuffle(normalised)
        return cls(band_bytes=int(band_bytes),
                   multipliers=tuple(normalised))

    def tier_of(self, address: int) -> int:
        """The tier index an address' band is assigned to."""
        return (address // self.band_bytes) % len(self.multipliers)

    def weakness(self, address: int) -> float:
        return self.multipliers[self.tier_of(address)]


def make_fault_map(injector: str, seed: int, rows: int, ways: int,
                   line_size: int,
                   params: "dict[str, float] | None" = None) -> FaultMap:
    """Sample the fault map ``injector`` uses (validated parameters)."""
    params = dict(params or {})
    validate_fault_map_params(injector, params)
    merged = {**FAULT_MAP_PARAM_DEFAULTS[injector], **params}
    if injector == "correlated":
        return CorrelatedFaultMap.sample(
            seed, rows=rows, ways=ways, line_size=line_size,
            weak_row_fraction=merged["weak_row_fraction"],
            weak_multiplier=merged["weak_multiplier"],
            way_spread=merged["way_spread"])
    if injector == "tiered":
        return TieredFaultMap.sample(
            seed, band_bytes=int(merged["band_bytes"]),
            tier_strong=merged["tier_strong"],
            tier_normal=merged["tier_normal"],
            tier_weak=merged["tier_weak"])
    raise ValueError(
        f"no fault map for injector {injector!r}; mapped injectors: "
        f"{MAPPED_INJECTOR_NAMES}")
