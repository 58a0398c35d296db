"""Statistical equivalence of the injector family.

The geometric injector claims to sample the *same* per-access fault
process as the reference injector, just factored differently (gap
sampling instead of per-access Bernoulli draws); the measured-silicon
mapped injectors (``correlated``, ``tiered``) claim the same *marginal*
process under uniform addressing while concentrating faults on weak
sites.  These tests check the claims where they matter:

* the fault inter-arrival gap distributions are indistinguishable
  (two-sample Kolmogorov-Smirnov);
* the flip-width (1/2/3-bit) proportions match the conditional law
  ``P(k bits | fault)`` for both injectors (chi-square);
* probability zero schedules no fault, ever (property test);
* the schedule is a pure function of the seed, and the lease protocol
  (acquire/refund) is invisible to it;
* mapped injectors cluster faults on their weak sites (chi-square
  against the flat law rejects decisively) yet keep the uniform-address
  marginal rate at ``FaultModel.access_fault_probability`` (binomial
  z-band + KS on gap distributions vs the reference sampler), because
  every fault map's weakness factors average to exactly 1;
* every ``INJECTOR_NAMES`` member is seed-deterministic end to end and
  its config (including ``fault_map_params``) survives the JSON round
  trip.

All sampling tests use fixed seeds, so they are deterministic: the
statistics were checked once against their critical values and stay on
whichever side they landed.
"""

import dataclasses
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fault_model import default_fault_model
from repro.core.recovery import TWO_STRIKE
from repro.harness.config import ExperimentConfig
from repro.harness.experiment import run_experiment
from repro.harness.stats import (
    chi_square_critical,
    chi_square_statistic,
    ks_two_sample_critical,
    ks_two_sample_statistic,
)
from repro.mem.faultmaps import MAPPED_INJECTOR_NAMES, make_fault_map
from repro.mem.faults import (
    INJECTOR_NAMES,
    FaultInjector,
    GeometricFaultInjector,
    make_injector,
)
from tests.strategies import cycle_times, seeds

#: Acceleration that makes faults frequent enough to collect hundreds
#: of gaps in a few thousand draws (p ~ 2.6e-2 at Cr = 0.25).
SCALE = 1000.0
CYCLE_TIME = 0.25
BITS = 32


def collect_gaps(injector, count: int) -> "list[float]":
    """Lengths of ``count`` fault-free stretches between injected faults."""
    gaps = []
    gap = 0
    while len(gaps) < count:
        if injector.draw(CYCLE_TIME, BITS) is None:
            gap += 1
        else:
            gaps.append(float(gap))
            gap = 0
    return gaps


def fault_indices(injector, accesses: int) -> "list[int]":
    """Access indices at which the injector fired over a fixed stream."""
    return [index for index in range(accesses)
            if injector.draw(CYCLE_TIME, BITS) is not None]


class TestInterArrivalGaps:
    def test_ks_reference_vs_geometric(self):
        reference = FaultInjector(seed=1, scale=SCALE)
        geometric = GeometricFaultInjector(seed=2, scale=SCALE)
        first = collect_gaps(reference, 400)
        second = collect_gaps(geometric, 400)
        statistic = ks_two_sample_statistic(first, second)
        critical = ks_two_sample_critical(len(first), len(second),
                                          alpha=0.01)
        assert statistic < critical, (
            f"gap distributions differ: D={statistic:.4f} >= "
            f"{critical:.4f}")

    def test_gap_mean_matches_bernoulli_parameter(self):
        # E[gap] = (1-p)/p for the geometric law with success
        # probability p; both injectors must land near it.
        p = default_fault_model().access_fault_probability(
            CYCLE_TIME, scale=SCALE)
        expected = (1.0 - p) / p
        for injector in (FaultInjector(seed=3, scale=SCALE),
                         GeometricFaultInjector(seed=4, scale=SCALE)):
            gaps = collect_gaps(injector, 500)
            mean = sum(gaps) / len(gaps)
            # 500 samples of an exponential-tailed law: ~9% standard
            # error; a 30% band is far beyond seed luck.
            assert abs(mean - expected) / expected < 0.3


class TestFlipWidthProportions:
    """Chi-square on 1/2/3-bit proportions, against P(k bits | fault).

    The default two/three-bit ratios (100x / 1000x rarer) would need
    millions of faults for expected counts above the chi-square floor,
    so the model's ratios are boosted -- the threshold arithmetic under
    test is identical at any ratio.
    """

    @pytest.mark.parametrize("make_injector_class",
                             [FaultInjector, GeometricFaultInjector])
    def test_multiplicity_counts_match_conditional_law(
            self, make_injector_class):
        model = dataclasses.replace(default_fault_model(),
                                    two_bit_ratio=0.5, three_bit_ratio=0.25)
        injector = make_injector_class(model=model, seed=5, scale=SCALE)
        collect_gaps(injector, 600)  # 600 faults, counted in stats
        stats = injector.stats
        observed = [float(stats.single_bit), float(stats.double_bit),
                    float(stats.triple_bit)]
        total = sum(observed)
        assert total == 600.0
        weights = (1.0, 0.5, 0.25)
        expected = [total * w / sum(weights) for w in weights]
        statistic = chi_square_statistic(observed, expected)
        assert statistic < chi_square_critical(degrees=2, alpha=0.01), (
            f"flip-width proportions off: chi2={statistic:.2f}, "
            f"observed={observed}")


class _ZeroProbabilityModel:
    """Fault model stub whose per-access fault probability is exactly 0."""

    def multiplicity_probabilities(self, relative_cycle_time):
        return (0.0, 0.0, 0.0)


class TestZeroProbability:
    @settings(max_examples=30, deadline=None)
    @given(cycle_times(), st.integers(min_value=1, max_value=300), seeds())
    def test_never_schedules_a_fault(self, cycle_time, accesses, seed):
        injector = GeometricFaultInjector(
            model=_ZeroProbabilityModel(), seed=seed, scale=10.0)
        assert all(injector.draw(cycle_time, BITS) is None
                   for _ in range(accesses))
        # The advertised fault-free stretch is unconsumable: larger than
        # any realizable run.
        assert injector.acquire_skip_lease(cycle_time) > 10 ** 15

    def test_zero_scale_advertises_unbounded_lease(self):
        injector = GeometricFaultInjector(seed=0, scale=0.0)
        assert injector.acquire_skip_lease(CYCLE_TIME) > 10 ** 15


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        first = fault_indices(GeometricFaultInjector(seed=7, scale=SCALE),
                              20000)
        second = fault_indices(GeometricFaultInjector(seed=7, scale=SCALE),
                               20000)
        assert first == second
        assert len(first) > 100  # the stream actually exercised faults

    def test_run_experiment_repr_identical_across_runs(self):
        config = ExperimentConfig(
            app="crc", packet_count=40, seed=11, cycle_time=0.25,
            policy=TWO_STRIKE, fault_scale=50.0, injector="geometric")
        assert repr(run_experiment(config)) == repr(run_experiment(config))


class TestLeaseProtocol:
    def test_acquire_transfers_and_refund_restores(self):
        injector = GeometricFaultInjector(seed=13, scale=SCALE)
        lease = injector.acquire_skip_lease(CYCLE_TIME)
        assert injector.scheduled_gap == 0
        injector.refund_skip_lease(lease)
        assert injector.scheduled_gap == lease

    def test_lease_roundtrips_preserve_the_schedule(self):
        # Twin injectors, same seed: one consumed by pure draws, one by
        # the hierarchy's acquire / serve-k / refund / slow-path-draw
        # cycle.  The fault indices must be identical -- the lease
        # protocol is bookkeeping, not a second sampling process.
        accesses = 20000
        expected = fault_indices(
            GeometricFaultInjector(seed=17, scale=SCALE), accesses)
        injector = GeometricFaultInjector(seed=17, scale=SCALE)
        observed = []
        index = 0
        while index < accesses:
            lease = injector.acquire_skip_lease(CYCLE_TIME)
            served = min(lease, 7)  # fast lane serves a few, then misses
            index += served
            injector.refund_skip_lease(lease - served)
            if index < accesses:
                if injector.draw(CYCLE_TIME, BITS) is not None:
                    observed.append(index)
                index += 1
        assert observed == [value for value in expected if value < accesses]

    def test_cycle_time_change_rederives_schedule(self):
        injector = GeometricFaultInjector(seed=19, scale=SCALE)
        injector.acquire_skip_lease(0.5)
        assert injector.schedule_rederivations == 0
        injector.acquire_skip_lease(0.25)
        assert injector.schedule_rederivations == 1

    def test_burst_mode_opts_out_of_skipping(self):
        injector = GeometricFaultInjector(
            seed=23, scale=SCALE, burst_start_probability=0.5,
            burst_length=3, burst_multiplier=2.0)
        assert injector.supports_skip is False
        # The opt-out is per instance; the class still advertises skip.
        assert GeometricFaultInjector.supports_skip is True


# --- measured-silicon mapped-injector battery ------------------------------

#: Map geometry for the battery.  The address span is the least common
#: multiple of the correlated tile (line * rows * ways = 4096) and the
#: tiered band cycle (1024-byte bands x 3 tiers = 3072), so uniform
#: word-aligned addresses over it hit every map site equally often and
#: the mean-weakness-is-1 contract holds *exactly* over the span.
MAP_ROWS = 64
MAP_WAYS = 2
MAP_LINE = 32
ADDRESS_SPAN = 12288


def make_mapped(name, seed, **params):
    """A battery-geometry mapped injector."""
    return make_injector(name, seed=seed, scale=SCALE, rows=MAP_ROWS,
                         ways=MAP_WAYS, line_size=MAP_LINE,
                         fault_map_params=params or None)


def uniform_addresses(seed):
    """An endless stream of uniform word-aligned addresses in the span."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(0, ADDRESS_SPAN, 4)


class TestMappedSpatialClustering:
    """Faults concentrate where the map says the silicon is weak.

    Both tests split the address space into the map's weak and strong
    cells, drive the injector over uniform addresses, and reject the
    flat law with a 2-cell chi-square (df=1) at alpha=0.001 -- in the
    direction of the weak cells.  A flat injector passes the same
    statistic with overwhelming probability (the battery's critical
    value is 10.83; a flat sampler's expected statistic is ~1).
    """

    ACCESSES = 8000

    def collect_cells(self, injector, is_weak):
        addresses = uniform_addresses(211)
        counts = {True: [0, 0], False: [0, 0]}  # weak? -> [accesses, faults]
        for _ in range(self.ACCESSES):
            address = next(addresses)
            cell = counts[is_weak(address)]
            cell[0] += 1
            cell[1] += injector.draw(CYCLE_TIME, BITS, address) is not None
        return counts

    def assert_clustered(self, counts):
        (weak_n, weak_f), (strong_n, strong_f) = counts[True], counts[False]
        flat_rate = (weak_f + strong_f) / (weak_n + strong_n)
        statistic = chi_square_statistic(
            [float(weak_f), float(strong_f)],
            [weak_n * flat_rate, strong_n * flat_rate])
        critical = chi_square_critical(degrees=1, alpha=0.001)
        assert statistic > critical, (
            f"no spatial clustering: chi2={statistic:.2f} <= {critical}"
            f" (weak {weak_f}/{weak_n}, strong {strong_f}/{strong_n})")
        assert weak_f / weak_n > strong_f / strong_n

    def test_correlated_faults_cluster_on_weak_rows(self):
        injector = make_mapped("correlated", seed=31)
        weak_rows = injector.fault_map.weak_rows
        assert weak_rows  # the default weak fraction marks real rows
        self.assert_clustered(self.collect_cells(
            injector, lambda a: injector.fault_map.row_of(a) in weak_rows))

    def test_tiered_faults_cluster_on_weak_bands(self):
        injector = make_mapped("tiered", seed=37)
        fault_map = injector.fault_map
        assert any(m > 1.0 for m in fault_map.multipliers)
        self.assert_clustered(self.collect_cells(
            injector, lambda a: fault_map.weakness(a) > 1.0))


class TestMappedMarginalRate:
    """The maps redistribute faults; they must not change the total."""

    @pytest.mark.parametrize("name", MAPPED_INJECTOR_NAMES)
    def test_weakness_mean_is_exactly_one(self, name):
        injector = make_mapped(name, seed=41)
        values = [injector.fault_map.weakness(address)
                  for address in range(0, ADDRESS_SPAN, 4)]
        assert abs(sum(values) / len(values) - 1.0) < 1e-9

    @pytest.mark.parametrize("name", MAPPED_INJECTOR_NAMES)
    def test_marginal_rate_matches_model(self, name):
        # Under uniform addressing each access is Bernoulli(p * w) with
        # E[w] = 1, so the compound draw is Bernoulli(p) exactly; the
        # observed count must sit inside a 4-sigma binomial band around
        # N * access_fault_probability.
        accesses = 20000
        p = default_fault_model().access_fault_probability(
            CYCLE_TIME, scale=SCALE)
        injector = make_mapped(name, seed=43)
        addresses = uniform_addresses(223)
        faults = sum(
            injector.draw(CYCLE_TIME, BITS, next(addresses)) is not None
            for _ in range(accesses))
        sigma = math.sqrt(accesses * p * (1.0 - p))
        assert abs(faults - accesses * p) < 4.0 * sigma, (
            f"marginal rate off: {faults} faults vs expected "
            f"{accesses * p:.1f} +- {4.0 * sigma:.1f}")

    @pytest.mark.parametrize("name", MAPPED_INJECTOR_NAMES)
    def test_ks_marginal_gaps_match_reference(self, name):
        # Gap distributions: mapped-over-uniform-addresses vs the flat
        # reference sampler.  Marginally both are geometric with the
        # same parameter, so KS at alpha=0.01 must not reject.
        reference = FaultInjector(seed=47, scale=SCALE)
        mapped = make_mapped(name, seed=53)
        addresses = uniform_addresses(227)
        gaps, gap = [], 0
        while len(gaps) < 400:
            if mapped.draw(CYCLE_TIME, BITS, next(addresses)) is None:
                gap += 1
            else:
                gaps.append(float(gap))
                gap = 0
        statistic = ks_two_sample_statistic(collect_gaps(reference, 400),
                                            gaps)
        critical = ks_two_sample_critical(400, 400, alpha=0.01)
        assert statistic < critical, (
            f"marginal gap law differs: D={statistic:.4f} >= "
            f"{critical:.4f}")


class TestInjectorFamilyDeterminism:
    """Seed-determinism + JSON round-trip for every registered injector."""

    PARAMS = {"correlated": {"weak_multiplier": 3.0, "way_spread": 0.1},
              "tiered": {"band_bytes": 2048}}

    @pytest.mark.parametrize("name", INJECTOR_NAMES)
    def test_same_seed_same_experiment(self, name):
        config = ExperimentConfig(
            app="crc", packet_count=25, seed=11, cycle_time=0.25,
            policy=TWO_STRIKE, fault_scale=50.0, injector=name)
        assert repr(run_experiment(config)) == repr(run_experiment(config))

    @pytest.mark.parametrize("name", MAPPED_INJECTOR_NAMES)
    def test_same_seed_same_fault_map(self, name):
        first = make_fault_map(name, seed=59, rows=MAP_ROWS, ways=MAP_WAYS,
                               line_size=MAP_LINE, params={})
        second = make_fault_map(name, seed=59, rows=MAP_ROWS, ways=MAP_WAYS,
                                line_size=MAP_LINE, params={})
        assert first == second

    @pytest.mark.parametrize("name", INJECTOR_NAMES)
    def test_config_json_round_trip(self, name):
        config = ExperimentConfig(
            app="tl", injector=name,
            fault_map_params=self.PARAMS.get(name, {}))
        # Through the wire: dict -> JSON text -> dict -> config.
        rebuilt = ExperimentConfig.from_json(
            json.loads(json.dumps(config.to_json())))
        assert rebuilt == config
        assert rebuilt.fault_map_params == config.fault_map_params

    def test_infeasible_geometry_refuses_clearly(self):
        # A 4-row array cannot carry a 4x weak row and keep the strong
        # complement positive; the sampler refuses rather than silently
        # clamping the measured-silicon structure (DESIGN.md §13).
        with pytest.raises(ValueError, match="infeasible"):
            make_fault_map("correlated", seed=0, rows=4, ways=2,
                           line_size=MAP_LINE, params={})


class TestStatisticHelpers:
    def test_ks_of_identical_samples_is_zero(self):
        sample = [1.0, 2.0, 5.0, 9.0]
        assert ks_two_sample_statistic(sample, list(sample)) == 0.0

    def test_ks_of_disjoint_samples_is_one(self):
        assert ks_two_sample_statistic([1.0, 2.0], [10.0, 11.0]) == 1.0

    def test_ks_rejects_empty_samples(self):
        with pytest.raises(ValueError):
            ks_two_sample_statistic([], [1.0])

    def test_chi_square_of_exact_match_is_zero(self):
        assert chi_square_statistic([5.0, 5.0], [5.0, 5.0]) == 0.0

    def test_chi_square_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            chi_square_statistic([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            chi_square_statistic([1.0], [0.0])

    def test_untabulated_critical_value_raises(self):
        with pytest.raises(ValueError):
            chi_square_critical(degrees=9, alpha=0.01)
