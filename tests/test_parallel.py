"""Batch runs: the process fan-out and the campaign engine on top of it."""

import pytest

from repro.core.recovery import TWO_STRIKE
from repro.harness.config import ExperimentConfig
from repro.harness.engine import CampaignEngine
from repro.harness.experiment import run_experiment
from repro.harness.parallel import map_parallel


def configs(count=3):
    return [ExperimentConfig(app="tl", packet_count=40, seed=seed,
                             cycle_time=0.25, policy=TWO_STRIKE,
                             fault_scale=30.0)
            for seed in range(1, count + 1)]


class TestRunExperiments:
    """Running a batch of experiments.

    ``map_parallel`` is the fan-out primitive; ``CampaignEngine.run``
    is the one batch entry point built on it, and it honours each
    config's backend.
    """

    def test_serial_results_in_input_order(self):
        results = map_parallel(run_experiment, configs(), max_workers=1)
        assert [result.config.seed for result in results] == [1, 2, 3]

    def test_parallel_matches_serial(self):
        serial = CampaignEngine(max_workers=1).run(configs())
        parallel = CampaignEngine(max_workers=2).run(configs())
        assert [result.config.seed for result in parallel] == [1, 2, 3]
        assert ([result.to_json() for result in parallel]
                == [result.to_json() for result in serial])

    def test_single_config_runs_inline(self):
        # A lambda cannot be pickled, so this only passes in-process.
        assert map_parallel(lambda config: config.seed, configs(1),
                            max_workers=8) == [1]

    def test_empty_config_list_returns_empty(self):
        # An all-cached campaign has zero missing configs; the fan-out
        # primitive must pass that through instead of raising.
        assert map_parallel(run_experiment, [], max_workers=1) == []
        assert CampaignEngine(max_workers=2).run([]) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            map_parallel(run_experiment, configs(1), max_workers=0)
        with pytest.raises(ValueError):
            CampaignEngine(max_workers=0)
