"""Experiment harness: config validation, runner semantics, reports."""

import gc
import weakref

import numpy as np
import pytest

from repro.core.recovery import NO_DETECTION, TWO_STRIKE
from repro.harness.config import ExperimentConfig
from repro.harness.experiment import (
    clear_golden_cache,
    consecutive_error_runs,
    execute_workload,
    golden_observations,
    load_workload,
    run_experiment,
)
from repro.util.text import format_value, render_series, render_table


class TestConfig:
    def test_label(self):
        config = ExperimentConfig(app="route", cycle_time=0.5,
                                  policy=TWO_STRIKE)
        assert config.label == "route/Cr=0.5/two-strike/both"

    def test_dynamic_label(self):
        config = ExperimentConfig(app="crc", dynamic=True)
        assert "dynamic" in config.label

    @pytest.mark.parametrize("kwargs", [
        dict(app="bogus"),
        dict(app="crc", packet_count=0),
        dict(app="crc", planes="sideways"),
        dict(app="crc", fault_scale=-1.0),
        dict(app="crc", cycle_time=0.6),
        dict(app="crc", injector="correlated"),
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    def test_dynamic_allows_any_initial_cycle_time_field(self):
        # cycle_time is ignored when dynamic, so off-ladder values are
        # tolerated there but not for static configs.
        ExperimentConfig(app="crc", dynamic=True, cycle_time=0.6)


class TestRunner:
    def test_fault_free_run_is_clean(self):
        result = run_experiment(ExperimentConfig(
            app="route", packet_count=20, fault_scale=0.0))
        assert result.erroneous_packets == 0
        assert result.fallibility == 1.0
        assert not result.fatal
        assert result.processed_packets == 20

    def test_seed_reproducibility(self):
        config = ExperimentConfig(app="crc", packet_count=40,
                                  cycle_time=0.25, fault_scale=30.0, seed=5)
        first = run_experiment(config)
        second = run_experiment(config)
        assert first.erroneous_packets == second.erroneous_packets
        assert first.cycles == second.cycles
        assert first.category_errors == second.category_errors

    def test_different_seeds_differ(self):
        results = {
            run_experiment(ExperimentConfig(
                app="crc", packet_count=50, cycle_time=0.25,
                fault_scale=50.0, seed=seed)).erroneous_packets
            for seed in (1, 2, 3, 4, 5)}
        assert len(results) > 1

    def test_plane_none_disables_injection(self):
        result = run_experiment(ExperimentConfig(
            app="md5", packet_count=20, cycle_time=0.25,
            fault_scale=100.0, planes="none"))
        assert result.injected_faults == 0
        assert result.erroneous_packets == 0

    def test_control_plane_injection_only(self):
        result = run_experiment(ExperimentConfig(
            app="md5", packet_count=5, cycle_time=0.25,
            fault_scale=100.0, planes="control", seed=9))
        # No data-plane faults: any faults landed during setup only.
        data_plane_accesses = result.l1d_accesses
        assert result.offered_packets == 5
        assert data_plane_accesses > 0

    def test_golden_cache_reused(self):
        clear_golden_cache()
        config = ExperimentConfig(app="tl", packet_count=10)
        workload = load_workload(config)
        first = golden_observations(workload, config)
        second = golden_observations(workload, config)
        assert first is second

    def test_energy_breakdown_keys(self):
        result = run_experiment(ExperimentConfig(app="tl", packet_count=10))
        assert set(result.energy) == {"core", "l1d", "l1i", "l2", "total"}

    def test_product_uses_paper_exponents(self):
        result = run_experiment(ExperimentConfig(app="tl", packet_count=10,
                                                 fault_scale=0.0))
        expected = (result.energy["total"]
                    * result.delay_per_packet ** 2
                    * result.fallibility ** 2)
        assert result.product() == pytest.approx(expected)

    def test_overclocking_reduces_energy_and_delay_when_fault_free(self):
        base = run_experiment(ExperimentConfig(
            app="route", packet_count=30, cycle_time=1.0, fault_scale=0.0))
        fast = run_experiment(ExperimentConfig(
            app="route", packet_count=30, cycle_time=0.5, fault_scale=0.0))
        assert fast.energy["total"] < base.energy["total"]
        assert fast.delay_per_packet < base.delay_per_packet

    def test_parity_policy_costs_energy_when_fault_free(self):
        base = run_experiment(ExperimentConfig(
            app="route", packet_count=30, policy=NO_DETECTION,
            fault_scale=0.0))
        parity = run_experiment(ExperimentConfig(
            app="route", packet_count=30, policy=TWO_STRIKE,
            fault_scale=0.0))
        assert parity.energy["l1d"] > base.energy["l1d"]
        assert parity.erroneous_packets == base.erroneous_packets == 0

    def test_dynamic_run_reports_history(self):
        result = run_experiment(ExperimentConfig(
            app="tl", packet_count=250, dynamic=True, fault_scale=0.0))
        assert result.cycle_history[0] == 1.0
        assert len(result.cycle_history) >= 2  # ramped at least once

    def test_error_probability_accessor(self):
        result = run_experiment(ExperimentConfig(
            app="crc", packet_count=40, cycle_time=0.25, fault_scale=80.0,
            seed=3))
        for category, count in result.category_errors.items():
            assert result.error_probability(category) == pytest.approx(
                count / result.processed_packets)
        assert result.error_probability("fatal") == result.fatal_probability

    def test_finished_run_is_freed_by_reference_counting(self):
        # No reference cycle holds a run's stack, so its backing store
        # goes with the outcome, not at the next cyclic collection.
        config = ExperimentConfig(app="crc", packet_count=10, seed=7,
                                  l2_fill_fault_probability=0.01)
        workload = load_workload(config)
        gc.disable()
        try:
            outcome = execute_workload(workload, config, faulty=True)
            memory = weakref.ref(outcome.hierarchy.memory)
            del outcome
            assert memory() is None
        finally:
            gc.enable()


class TestConsecutiveErrorRuns:
    def test_run_lengths(self):
        flags = [True, True, False, True, False, False, True]
        assert consecutive_error_runs(flags) == (2, 1, 1)
        assert consecutive_error_runs([False, False]) == ()
        # The replayer reduces its per-packet numpy flags through it too.
        assert consecutive_error_runs(
            np.array([False, True, True, True])) == (3,)


class TestReport:
    def test_format_value(self):
        assert format_value(True) == "yes"
        assert format_value(0.5) == "0.5"
        assert format_value(1.23456e-9) == "1.235e-09"
        assert format_value("text") == "text"
        assert format_value(0.0) == "0"

    def test_render_table_alignment(self):
        text = render_table("T", ["a", "bb"], [[1, 2], [33, 44]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len({len(line) for line in lines[1:]}) == 1

    def test_render_table_validates_width(self):
        with pytest.raises(ValueError):
            render_table("T", ["a"], [[1, 2]])
        with pytest.raises(ValueError):
            render_table("T", [], [])

    def test_render_series(self):
        text = render_series("S", "x", "y", [(1, 2.0)])
        assert "x" in text and "y" in text and "2" in text
