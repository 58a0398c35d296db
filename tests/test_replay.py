"""The replay backend: recorder determinism, the trace memo, twins.

Three layers of guarantees, tested bottom-up:

* the **recorder** is a pure function of the workload identity -- two
  recordings of the same config produce byte-identical event arrays,
  and the store memoises one recording per workload;
* the **replayer** is bit-exact against faithful execution wherever no
  fault law is active (the fault-free contract the oracle's replay twin
  enforces exactly), and falls back -- rather than approximating -- on
  configs it cannot model;
* the **backend plumbing** (``with_options``, the shared trace store,
  engine grouping) routes configs to the right backend and keeps
  results index-aligned.

The statistical (faulted) contract is the oracle's job -- see
``tests/test_oracle.py`` and :mod:`repro.oracle.differential`.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.harness.config import ExperimentConfig
from repro.harness.engine import CampaignEngine
from repro.harness.experiment import ExperimentResult, run_experiment
from repro.replay.backend import run_replay, set_trace_store, trace_store
from repro.replay.record import record_trace
from repro.replay.replayer import decline_reason, replay_trace
from repro.replay.trace import Trace, TraceStore, trace_key
from repro.telemetry.metrics import CounterSet
from tests.strategies import make_config

#: Result fields whose equality defines "the same simulation outcome".
#: ``config`` differs by construction (backend field) and is excluded.
_COMPARED_FIELDS = tuple(field.name
                         for field in dataclasses.fields(ExperimentResult)
                         if field.name != "config")


def _outcome(result) -> dict:
    return {name: getattr(result, name) for name in _COMPARED_FIELDS}


@pytest.fixture()
def scratch_store():
    """Isolate the process-wide trace store per test."""
    previous = set_trace_store(TraceStore())
    yield trace_store()
    set_trace_store(previous)


def _fault_free(**overrides) -> ExperimentConfig:
    return make_config(fault_scale=0.0, **overrides)


def _replay(configs: "list[ExperimentConfig]") -> "list[ExperimentResult]":
    """``run_replay`` with a throwaway counter set."""
    return run_replay(configs, CounterSet())


def _assert_same_trace(first: Trace, second: Trace) -> None:
    for name in ("kind", "address", "width", "count", "static",
                 "packet_starts"):
        np.testing.assert_array_equal(getattr(first, name),
                                      getattr(second, name))
    assert first.offered_packets == second.offered_packets
    assert first.regions == second.regions
    assert first.static_ranges == second.static_ranges


class TestRecorder:
    def test_recording_is_deterministic(self):
        config = _fault_free()
        _assert_same_trace(record_trace(config), record_trace(config))

    def test_trace_key_ignores_replay_parametrisation(self):
        base = _fault_free()
        assert trace_key(base) == trace_key(
            base.with_options(cycle_time=0.25, fault_scale=50.0,
                              injector="geometric", backend="replay"))
        assert trace_key(base) != trace_key(base.with_options(seed=99))
        assert trace_key(base) != trace_key(
            base.with_options(packet_count=30))

    def test_store_memoises_in_process(self):
        store = TraceStore()
        config = _fault_free()
        first = store.get_or_record(config)
        assert store.get_or_record(config) is first
        assert store.recordings == 1


class TestReplayExactTwin:
    @pytest.mark.parametrize("overrides", [
        {},
        {"injector": "geometric"},
        {"dynamic": True, "cycle_time": 1.0},
        {"app": "crc", "cycle_time": 0.25},
        {"l1_size_bytes": 8192, "l1_associativity": 2},
    ])
    def test_fault_free_replay_matches_execute(self, scratch_store,
                                               overrides):
        config = _fault_free(**overrides)
        executed = run_experiment(config)
        replayed = _replay([config.with_options(backend="replay")])[0]
        assert _outcome(replayed) == _outcome(executed)

    def test_zero_scale_with_planes_is_exact(self, scratch_store):
        config = _fault_free(planes="both")
        executed = run_experiment(config)
        replayed = _replay([config.with_options(backend="replay")])[0]
        assert _outcome(replayed) == _outcome(executed)

    def test_no_planes_at_nonzero_scale_is_exact(self, scratch_store):
        config = make_config(planes="none", fault_scale=30.0)
        executed = run_experiment(config)
        replayed = _replay([config.with_options(backend="replay")])[0]
        assert _outcome(replayed) == _outcome(executed)

    def test_faulted_replay_is_seed_deterministic(self, scratch_store):
        config = make_config(backend="replay")
        first = _replay([config])[0]
        second = _replay([config])[0]
        assert _outcome(first) == _outcome(second)

    def test_l2_fill_faults_fall_back_to_execute(self, scratch_store):
        config = make_config(l2_fill_fault_probability=0.05,
                             backend="replay")
        assert decline_reason(config) == "l2-fill"
        counters = CounterSet()
        replayed = run_replay([config], counters)[0]
        assert counters.snapshot() == {"replay.fallback.l2-fill": 1}
        executed = run_experiment(config.with_options(backend="execute"))
        assert _outcome(replayed) == _outcome(executed)

    def test_replay_trace_declines_bursts(self, scratch_store):
        config = make_config(burst_start_probability=0.01, burst_length=5,
                             burst_multiplier=10.0)
        assert decline_reason(config) == "burst"
        trace = scratch_store.get_or_record(config)
        assert replay_trace(trace, config) is None
        counters = CounterSet()
        run_replay([config.with_options(backend="replay")], counters)
        assert counters.snapshot() == {"replay.fallback.burst": 1}

    def test_diverged_faults_fall_back_to_execute(self, scratch_store):
        # Control-plane faults corrupt the tables the kernel branches
        # on: no static refusal applies, but the sampled replay diverges.
        config = make_config(planes="control", fault_scale=3000.0,
                             backend="replay")
        assert decline_reason(config) is None
        trace = scratch_store.get_or_record(config)
        assert replay_trace(trace, config) is None
        counters = CounterSet()
        replayed = run_replay([config], counters)[0]
        assert counters.snapshot() == {"replay.fallback.diverged": 1}
        executed = run_experiment(config.with_options(backend="execute"))
        assert _outcome(replayed) == _outcome(executed)


class TestBackendPlumbing:
    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            make_config(backend="interpret")

    def test_with_options_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="bakend"):
            make_config().with_options(bakend="replay")

    def test_backend_round_trips_through_json(self):
        config = make_config(backend="replay")
        rebuilt = ExperimentConfig.from_json(config.to_json())
        assert rebuilt == config
        assert rebuilt.backend == "replay"

    def test_golden_baseline_always_executes(self):
        assert make_config(backend="replay").golden().backend == "execute"

    def test_engine_groups_mixed_backends(self, scratch_store):
        engine = CampaignEngine(max_workers=1)
        configs = [
            _fault_free(seed=1),
            _fault_free(seed=1, backend="replay"),
            _fault_free(seed=2),
        ]
        results = engine.run(configs)
        assert [r.config for r in results] == configs
        assert _outcome(results[0]) == _outcome(results[1])
