"""Every number the paper publishes, collected in one place.

Each constant cites the section of Mallik & Memik, *A Case for Clumsy Packet
Processors* (MICRO-37, 2004) that it comes from.  Modules elsewhere in the
library import from here instead of hard-coding magic numbers, so the mapping
between the reproduction and the paper stays auditable.
"""

from __future__ import annotations

# --------------------------------------------------------------------------
# Section 3 / Section 5.1 -- fault model anchors
# --------------------------------------------------------------------------

#: Per-bit fault probability at the full voltage swing (Cr = 1).  Section 5.1:
#: "We chose an initial fault probability of 2.59*10-7 per bit", consistent
#: with Shivakumar et al.
BASE_FAULT_PROBABILITY_PER_BIT = 2.59e-7

#: Two-bit faults are 100x rarer than single-bit faults (Section 5.1 quotes
#: 2.59e-9 against the 2.59e-7 single-bit rate).
TWO_BIT_FAULT_RATIO = 1e-2

#: Three-bit faults are 1000x rarer than single-bit faults (Section 5.1
#: quotes 2.59e-10).
THREE_BIT_FAULT_RATIO = 1e-3

#: Equation (2): the noise-amplitude density saturates, for n > 16 coupled
#: lines, to P(Ar) = 28.8 * exp(-28.8 * Ar).
NOISE_AMPLITUDE_RATE = 28.8

#: Equation (3): the relative noise duration Dr is uniform on (0, 0.1) --
#: bounded by the on-chip rise time as a fraction of the cycle time.
NOISE_DURATION_MAX = 0.1

#: Number of coupled neighbour lines beyond which the switching-combination
#: histogram of Figure 3 converges to the continuous density of Eq. (2).
SWITCHING_SATURATION_LINES = 16

# --------------------------------------------------------------------------
# Figure 1(b) -- voltage swing vs cycle time (calibration anchors)
# --------------------------------------------------------------------------

#: Section 5.4 states the cache energy shrinks by 6%, 19% and 45% at relative
#: clock cycles 0.75, 0.5 and 0.25, and that cache energy is *linear* in the
#: voltage swing.  These three points therefore pin the swing curve:
#: Vsr(0.75) = 0.94, Vsr(0.5) = 0.81, Vsr(0.25) = 0.55.
VOLTAGE_SWING_ANCHORS = ((0.25, 0.55), (0.5, 0.81), (0.75, 0.94), (1.0, 1.0))

#: The RC-charging exponent that reproduces all three anchors (the curve is
#: Vsr(Cr) = (1 - exp(-a*Cr)) / (1 - exp(-a)); a = 3 hits 0.555/0.817/0.942).
VOLTAGE_SWING_EXPONENT = 3.0

# --------------------------------------------------------------------------
# Section 4 -- architecture and the dynamic adaptation scheme
# --------------------------------------------------------------------------

#: Relative clock cycle settings supported by the hardware (Section 4:
#: frequency +50%, +100%, +300% -> Cr of 0.75, 0.5, 0.25, plus nominal).
RELATIVE_CYCLE_LEVELS = (1.0, 0.75, 0.5, 0.25)

#: Cycle penalty applied whenever the cache clock frequency is changed
#: (Section 4: "we incur a 10-cycle penalty whenever the frequency is
#: dynamically varied").
FREQUENCY_CHANGE_PENALTY_CYCLES = 10

#: Packets per decision epoch of the dynamic adaptation scheme (Section 4:
#: "after the completion of the processing of 100 packets").
DYNAMIC_EPOCH_PACKETS = 100

#: Decrease frequency when the epoch fault count exceeds X1 = 200% of the
#: count stored at the last frequency change (Section 4).
DYNAMIC_X1_PERCENT = 200.0

#: Increase frequency when the epoch fault count is below X2 = 80% of the
#: stored count (Section 4).
DYNAMIC_X2_PERCENT = 80.0

# --------------------------------------------------------------------------
# Section 4.1 -- comparison metric
# --------------------------------------------------------------------------

#: Exponents (k, m, n) of the energy^k * delay^m * fallibility^n product used
#: throughout the evaluation ("we set k to 1, m to 2, and n to 2").
METRIC_EXPONENTS = (1, 2, 2)

# --------------------------------------------------------------------------
# Section 5.1 -- simulated processor configuration (StrongARM-110-like)
# --------------------------------------------------------------------------

L1_SIZE_BYTES = 4 * 1024          #: 4 KB level-1 caches.
L1_LINE_BYTES = 32                #: 32-byte level-1 lines.
L1_ASSOCIATIVITY = 1              #: direct-mapped level-1 caches.
L1_HIT_LATENCY_CYCLES = 2         #: 2-cycle L1 data-cache latency.

L2_SIZE_BYTES = 128 * 1024        #: 128 KB unified level-2 cache.
L2_LINE_BYTES = 128               #: 128-byte level-2 lines.
L2_ASSOCIATIVITY = 4              #: 4-way set-associative level-2.
L2_HIT_LATENCY_CYCLES = 15        #: 15-cycle level-2 latency.

#: Main-memory latency charged per L2 fill.  The paper gives no figure;
#: 100 cycles is the reproduction's own choice, shared by the execute
#: kernel and the replay pricer so the two cannot drift.
MEMORY_LATENCY_CYCLES = 100.0

# --------------------------------------------------------------------------
# Section 5.4 -- energy model (Montanaro / CACTI / Phelan ratios)
# --------------------------------------------------------------------------

#: "The level-1 data cache consumes 16% of the overall chip energy."
L1D_CHIP_ENERGY_FRACTION = 0.16

#: "Parity increases the energy consumed during reads by 23%."
PARITY_READ_ENERGY_OVERHEAD = 0.23

#: "Similarly, the energy consumed during writes increases by 36%."
PARITY_WRITE_ENERGY_OVERHEAD = 0.36

#: "We assumed that each word (32-bits) is protected by a single parity bit."
PARITY_WORD_BITS = 32

#: Cache energy reductions the paper reports for the static clock settings
#: (Section 5.4), used as calibration targets and in tests.
CACHE_ENERGY_REDUCTION = {0.75: 0.06, 0.5: 0.19, 0.25: 0.45}

# --------------------------------------------------------------------------
# Section 5.2 -- behavioural anchors used as reproduction targets
# --------------------------------------------------------------------------

#: "On average we have only observed an error for approximately 15% of the
#: faults."  Used as a sanity band in tests, not as a model input.
OBSERVED_ERROR_PER_FAULT_FRACTION = 0.15

#: Table I fallibility factors at Cr = 0.5 and Cr = 0.25 (reproduction
#: targets for shape comparison; keys are application names).
TABLE1_FALLIBILITY = {
    "crc": {0.5: 1.007, 0.25: 1.052},
    "tl": {0.5: 1.016, 0.25: 1.135},
    "route": {0.5: 1.001, 0.25: 1.018},
    "drr": {0.5: 1.002, 0.25: 1.008},
    "nat": {0.5: 1.004, 0.25: 1.077},
    "md5": {0.5: 1.055, 0.25: 1.261},
    "url": {0.5: 1.003, 0.25: 1.018},
}

#: Table I cache miss rates (percent), used to validate trace/app calibration.
TABLE1_MISS_RATE_PERCENT = {
    "crc": 1.2, "tl": 9.2, "route": 5.8, "drr": 5.7,
    "nat": 7.1, "md5": 3.8, "url": 11.2,
}

#: Application names in the order Table I lists them.
NETBENCH_APPS = ("crc", "tl", "route", "drr", "nat", "md5", "url")
