"""The replay backend: recorder determinism, trace round-trips, twins.

Three layers of guarantees, tested bottom-up:

* the **recorder** is a pure function of the workload identity -- two
  recordings of the same config produce byte-identical event arrays,
  and the ``.npz`` round-trip preserves them exactly;
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
import os
from pathlib import Path

import numpy as np
import pytest

from repro.harness.config import ExperimentConfig
from repro.harness.engine import CampaignEngine
from repro.harness.experiment import ExperimentResult, run_experiment
from repro.replay import (
    Trace,
    TraceStore,
    fallback_count,
    fallback_reasons,
    record_trace,
    replay_trace,
    run_replay,
    set_trace_store,
    trace_key,
    trace_store,
)
from repro.replay.backend import configure_backend
from repro.replay.replayer import decline_reason
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


def _fallbacks_since(before: "dict[str, int]") -> "dict[str, int]":
    """Fallbacks counted since ``before``, by reason (nonzero only)."""
    after = fallback_reasons()
    return {reason: after[reason] - before[reason] for reason in after
            if after[reason] != before[reason]}


def _assert_same_trace(first: Trace, second: Trace) -> None:
    for name in ("kind", "address", "width", "count", "static",
                 "packet_starts"):
        np.testing.assert_array_equal(getattr(first, name),
                                      getattr(second, name))
    assert first.offered_packets == second.offered_packets
    assert first.regions == second.regions
    assert first.static_ranges == second.static_ranges


def _save_repeatedly(arguments: "tuple[str, str, int]") -> None:
    """Worker: load one archive, then save it ``count`` times to one path."""
    source, target, count = arguments
    trace = Trace.load(source)
    for _ in range(count):
        trace.save(target)


class TestRecorder:
    def test_recording_is_deterministic(self):
        config = _fault_free()
        _assert_same_trace(record_trace(config), record_trace(config))

    def test_trace_round_trips_through_npz(self, tmp_path):
        trace = record_trace(_fault_free())
        path = trace.save(tmp_path / "trace.npz")
        _assert_same_trace(Trace.load(path), trace)

    def test_trace_key_ignores_replay_parametrisation(self):
        base = _fault_free()
        assert trace_key(base) == trace_key(
            base.with_options(cycle_time=0.25, fault_scale=50.0,
                              injector="geometric", backend="replay"))
        assert trace_key(base) != trace_key(base.with_options(seed=99))
        assert trace_key(base) != trace_key(
            base.with_options(packet_count=30))

    def test_store_round_trips_through_disk(self, tmp_path):
        config = _fault_free()
        writer = TraceStore(tmp_path)
        recorded = writer.get_or_record(config)
        assert writer.recordings == 1
        # A fresh store sharing the directory serves from disk.
        reader = TraceStore(tmp_path)
        loaded = reader.get(config)
        assert loaded is not None
        assert reader.recordings == 0
        np.testing.assert_array_equal(loaded.kind, recorded.kind)

    def test_store_memoises_in_process(self, tmp_path):
        store = TraceStore(tmp_path)
        config = _fault_free()
        first = store.get_or_record(config)
        assert store.get_or_record(config) is first
        assert store.recordings == 1

    @pytest.mark.parametrize("damage", ["truncated", "flipped-byte",
                                        "empty"])
    def test_corrupt_archive_is_re_recorded(self, tmp_path, damage):
        config = _fault_free()
        original = TraceStore(tmp_path).get_or_record(config)
        (path,) = tmp_path.glob("trace-*.npz")
        data = path.read_bytes()
        middle = len(data) // 2
        path.write_bytes({
            "truncated": data[:middle],
            "flipped-byte": (data[:middle] + bytes([data[middle] ^ 0xFF])
                             + data[middle + 1:]),
            "empty": b"",
        }[damage])
        store = TraceStore(tmp_path)
        assert store.get(config) is None
        _assert_same_trace(store.get_or_record(config), original)
        assert store.recordings == 1
        # The re-recording replaced the damaged archive on disk.
        reloaded = TraceStore(tmp_path).get(config)
        assert reloaded is not None
        _assert_same_trace(reloaded, original)


class TestConcurrentTraceWriters:
    """Regression: writers saving one trace archive must not collide.

    The hazard: ``Trace.save`` wrote through the fixed temp name
    ``.tmp-<name>``, so two processes saving one trace into a shared
    ``--cache-dir`` shared a temp file; the second rename found it gone
    and the ``FileNotFoundError`` killed the sweep.  Temp names are now
    unique per writer (pid + process-local sequence), as the result
    store's are.
    """

    def test_temp_paths_unique_across_saves(self, tmp_path, monkeypatch):
        trace = record_trace(_fault_free())
        real_replace = os.replace
        temps = []

        def replace(source, destination):
            temps.append(Path(source))
            real_replace(source, destination)

        monkeypatch.setattr(os, "replace", replace)
        for _ in range(5):
            trace.save(tmp_path / "trace-abc.npz")
        assert len(set(temps)) == 5  # no writer ever shares a temp file
        for path in temps:
            assert path.parent == tmp_path
            assert path.name.startswith(".tmp-")
            assert not path.match("*.npz")  # invisible to the store

    def test_interleaved_saves_converge(self, tmp_path, monkeypatch):
        """A second writer saving the same archive between the first
        writer's temp write and its rename leaves one loadable archive."""
        trace = record_trace(_fault_free())
        target = tmp_path / "trace.npz"
        real_replace = os.replace
        interleaved = []

        def replace(source, destination):
            if not interleaved:
                interleaved.append(source)
                trace.save(target)  # the other writer runs to completion
            real_replace(source, destination)

        monkeypatch.setattr(os, "replace", replace)
        trace.save(target)
        assert interleaved
        assert not list(tmp_path.glob(".tmp-*"))
        _assert_same_trace(Trace.load(target), trace)

    def test_concurrent_processes_saving_one_trace(self, tmp_path):
        """Writer processes (more than cores on a small host, capped to
        keep the test light) save one archive into one directory: every
        save succeeds and one loadable archive stays."""
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        trace = record_trace(_fault_free())
        source = trace.save(tmp_path / "source.npz")
        shared = tmp_path / "shared"
        target = shared / "trace.npz"
        writers = min((os.cpu_count() or 1) + 1, 4)
        with ProcessPoolExecutor(
                max_workers=writers,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            list(pool.map(_save_repeatedly,
                          [(str(source), str(target), 100)] * writers,
                          timeout=300))
        assert [path.name for path in shared.iterdir()] == ["trace.npz"]
        _assert_same_trace(Trace.load(target), trace)


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
        replayed = run_replay([config.with_options(backend="replay")])[0]
        assert _outcome(replayed) == _outcome(executed)

    def test_zero_scale_with_planes_is_exact(self, scratch_store):
        config = _fault_free(planes="both")
        executed = run_experiment(config)
        replayed = run_replay([config.with_options(backend="replay")])[0]
        assert _outcome(replayed) == _outcome(executed)

    def test_no_planes_at_nonzero_scale_is_exact(self, scratch_store):
        config = make_config(planes="none", fault_scale=30.0)
        executed = run_experiment(config)
        replayed = run_replay([config.with_options(backend="replay")])[0]
        assert _outcome(replayed) == _outcome(executed)

    def test_faulted_replay_is_seed_deterministic(self, scratch_store):
        config = make_config(backend="replay")
        first = run_replay([config])[0]
        second = run_replay([config])[0]
        assert _outcome(first) == _outcome(second)

    def test_l2_fill_faults_fall_back_to_execute(self, scratch_store):
        config = make_config(l2_fill_fault_probability=0.05,
                             backend="replay")
        assert decline_reason(config) == "l2-fill"
        before = fallback_reasons()
        replayed = run_replay([config])[0]
        assert _fallbacks_since(before) == {"l2-fill": 1}
        executed = run_experiment(config.with_options(backend="execute"))
        assert _outcome(replayed) == _outcome(executed)

    def test_replay_trace_declines_bursts(self, scratch_store):
        config = make_config(burst_start_probability=0.01, burst_length=5,
                             burst_multiplier=10.0)
        assert decline_reason(config) == "burst"
        trace = scratch_store.get_or_record(config)
        assert replay_trace(trace, config) is None
        before = fallback_reasons()
        run_replay([config.with_options(backend="replay")])
        assert _fallbacks_since(before) == {"burst": 1}

    def test_diverged_faults_fall_back_to_execute(self, scratch_store):
        # Control-plane faults corrupt the tables the kernel branches
        # on: no static refusal applies, but the sampled replay diverges.
        config = make_config(planes="control", fault_scale=3000.0,
                             backend="replay")
        assert decline_reason(config) is None
        trace = scratch_store.get_or_record(config)
        assert replay_trace(trace, config) is None
        before = fallback_reasons()
        replayed = run_replay([config])[0]
        assert _fallbacks_since(before) == {"diverged": 1}
        executed = run_experiment(config.with_options(backend="execute"))
        assert _outcome(replayed) == _outcome(executed)

    def test_fallback_count_sums_the_reasons(self, scratch_store):
        run_replay([make_config(burst_start_probability=0.01,
                                burst_length=5, burst_multiplier=10.0,
                                backend="replay"),
                    make_config(backend="replay")])
        reasons = fallback_reasons()
        assert tuple(reasons) == ("l2-fill", "burst", "diverged")
        assert fallback_count() == sum(reasons.values())


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

    def test_configure_backend_points_store_at_cache(self, tmp_path):
        previous = set_trace_store(TraceStore())
        try:
            configure_backend(str(tmp_path))
            assert trace_store().directory == tmp_path / "traces"
            configure_backend(None)
            assert trace_store().directory is None
        finally:
            set_trace_store(previous)
