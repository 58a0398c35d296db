"""Statistical equivalence of the injector family.

The geometric injector claims to sample the *same* per-access fault
process as the reference injector, just factored differently (gap
sampling instead of per-access Bernoulli draws).  These tests check the
claim where it matters:

* the fault inter-arrival gap distributions are indistinguishable
  (two-sample Kolmogorov-Smirnov);
* the flip-width (1/2/3-bit) proportions match the conditional law
  ``P(k bits | fault)`` for both injectors (chi-square);
* probability zero schedules no fault, ever (property test);
* the schedule is a pure function of the seed, and the lease protocol
  (acquire/refund) is invisible to it;
* every ``INJECTOR_NAMES`` member is seed-deterministic end to end and
  its config survives the JSON round trip.

All sampling tests use fixed seeds, so they are deterministic: the
statistics were checked once against their critical values and stay on
whichever side they landed.
"""

import dataclasses
import json

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
from repro.mem.faults import (
    INJECTOR_NAMES,
    FaultInjector,
    GeometricFaultInjector,
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


class TestInjectorFamilyDeterminism:
    """Seed-determinism + JSON round-trip for every registered injector."""

    @pytest.mark.parametrize("name", INJECTOR_NAMES)
    def test_same_seed_same_experiment(self, name):
        config = ExperimentConfig(
            app="crc", packet_count=25, seed=11, cycle_time=0.25,
            policy=TWO_STRIKE, fault_scale=50.0, injector=name)
        assert repr(run_experiment(config)) == repr(run_experiment(config))

    @pytest.mark.parametrize("name", INJECTOR_NAMES)
    def test_config_json_round_trip(self, name):
        config = ExperimentConfig(app="tl", injector=name)
        # Through the wire: dict -> JSON text -> dict -> config.
        rebuilt = ExperimentConfig.from_json(
            json.loads(json.dumps(config.to_json())))
        assert rebuilt == config


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
