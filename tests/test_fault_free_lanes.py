"""Fault-free work rides the fast lane without changing a result.

Golden runs and trace recordings cannot fault, so both run on a
disabled ``geometric`` injector whose MemView fast lane serves every
resident access.  Faulted replay pricing expands a trace's access slots
only once a sampled fault needs them, and the fault law's integral is
memoised per process.  Each test pins one of those equivalences, either
against the slow path or against digests recorded before the fast lanes
were used:

* ``tests/golden/trace_digests.json``: every recorded trace array and
  its metadata;
* ``tests/golden/replay_digests.json``: every ``run_replay`` result of
  crc's Figures 9-12 block, at the figures' fault scale and at one high
  enough that the dynamic configs sample faults.

Regenerate both (only for an intended change of the recorded stream or
of replay pricing) from the repository root with::

    PYTHONPATH=src python -m tests.test_fault_free_lanes
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.core.constants import NETBENCH_APPS
from repro.core.fault_model import FaultModel
from repro.core.noise import NoiseImmunityModel, failure_probability
from repro.core.recovery import ALL_POLICIES
from repro.harness.config import ExperimentConfig
from repro.harness.experiment import (
    ExperimentResult,
    clear_golden_cache,
    execute_workload,
    golden_observations,
    load_workload,
)
from repro.harness.figures import EDF_SETTINGS
from repro.harness.profile import WorkloadProfile, profile_workload
from repro.harness.store import canonical_json
from repro.replay import (
    TraceStore,
    fallback_count,
    record_trace,
    run_replay,
    set_trace_store,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
TRACE_DIGESTS = GOLDEN_DIR / "trace_digests.json"
REPLAY_DIGESTS = GOLDEN_DIR / "replay_digests.json"

#: Recorded workloads: every app, a traffic scenario, and a cache
#: geometry other than the default direct-mapped 4 KB L1.
TRACE_WORKLOADS = {
    **{app: ExperimentConfig(app=app, packet_count=30, seed=7)
       for app in NETBENCH_APPS},
    "nat-exhaustion": ExperimentConfig(app="nat", packet_count=30, seed=7,
                                       scenario="nat-exhaustion"),
    "crc-2way-8k": ExperimentConfig(app="crc", packet_count=30, seed=7,
                                    l1_associativity=2, l1_size_bytes=8192),
}

#: Fault scales of the replayed block: the figures' own, and one at
#: which the dynamic configs sample faults too.  110 packets cross the
#: dynamic controller's 100-packet epoch.
REPLAY_SCALES = (10.0, 200.0)
REPLAY_PACKETS = 110


def trace_digest(trace) -> str:
    """sha256 over the six event arrays (dtype and bytes) and the meta."""
    digest = hashlib.sha256()
    for name in ("kind", "address", "width", "count", "static",
                 "packet_starts"):
        array = getattr(trace, name)
        digest.update(f"{name}:{array.dtype}:{len(array)}:".encode())
        digest.update(array.tobytes())
    digest.update(canonical_json(trace.meta_json()).encode())
    return digest.hexdigest()


def replay_block(scale: float) -> "list[ExperimentConfig]":
    """crc's Figures 9-12 block (policies x settings) on ``replay``."""
    return [ExperimentConfig(
        app="crc", packet_count=REPLAY_PACKETS, seed=7,
        cycle_time=1.0 if setting == "dynamic" else setting,
        dynamic=setting == "dynamic", policy=policy, fault_scale=scale,
        backend="replay")
        for policy in ALL_POLICIES for setting in EDF_SETTINGS]


def replay_results() -> "dict[str, list[ExperimentResult]]":
    """Every replayed block's results, priced over freshly recorded traces."""
    previous = set_trace_store(TraceStore())
    try:
        return {str(scale): run_replay(replay_block(scale))
                for scale in REPLAY_SCALES}
    finally:
        set_trace_store(previous)


def result_digests(results: "dict[str, list[ExperimentResult]]",
                   ) -> "dict[str, list[str]]":
    """sha256 of each result's canonical JSON, block by block."""
    return {scale: [hashlib.sha256(canonical_json(result.to_json())
                                   .encode()).hexdigest()
                    for result in block]
            for scale, block in results.items()}


class TestRecordedTraces:
    @pytest.mark.parametrize("name", sorted(TRACE_WORKLOADS))
    def test_trace_matches_recorded_digest(self, name):
        expected = json.loads(TRACE_DIGESTS.read_text())
        assert set(expected) == set(TRACE_WORKLOADS)
        trace = record_trace(TRACE_WORKLOADS[name])
        assert trace_digest(trace) == expected[name]


def _counters(outcome) -> "dict[str, object]":
    """Everything a fault-free run reports besides its energy."""
    hierarchy = outcome.hierarchy
    l1, l2 = hierarchy.l1d.stats, hierarchy.l2.stats
    return {
        "instructions": outcome.processor.instructions,
        "cycles": outcome.processor.cycles,
        "packet_cycles": outcome.packet_cycles,
        "l1": (l1.reads, l1.writes, l1.read_hits, l1.write_hits,
               l1.misses, l1.writebacks),
        "l2": (l2.reads, l2.writes, l2.misses, l2.writebacks),
        "regions": outcome.regions,
    }


class TestGoldenRunsOnTheFastLane:
    @pytest.mark.parametrize("app", NETBENCH_APPS)
    def test_golden_run_matches_the_slow_path(self, app):
        config = ExperimentConfig(app=app, packet_count=30, seed=7)
        slow_config = config.golden().with_options(injector="reference")
        slow = execute_workload(load_workload(config), slow_config,
                                faulty=False)
        clear_golden_cache()
        assert golden_observations(load_workload(config),
                                   config) == slow.observations
        fast = execute_workload(load_workload(config), config.golden(),
                                faulty=False)
        assert fast.observations == slow.observations
        assert _counters(fast) == _counters(slow)
        slow_l1 = slow.hierarchy.l1d.stats
        packets = slow.processed_packets
        assert profile_workload(app, packet_count=30, seed=7) == (
            WorkloadProfile(
                app=app, packets=packets,
                instructions_per_packet=(slow.processor.instructions
                                         / packets),
                loads_per_packet=slow_l1.reads / packets,
                stores_per_packet=slow_l1.writes / packets,
                l1_fills_per_packet=slow_l1.misses / packets,
                l2_fills_per_packet=(slow.hierarchy.l2.stats.misses
                                     / packets),
                writebacks_per_packet=slow_l1.writebacks / packets))
        # The golden run rides the fast lane: every resident access.
        served = fast.hierarchy.fast_reads + fast.hierarchy.fast_writes
        assert served >= 0.9 * fast.hierarchy.l1d.stats.accesses
        assert slow.hierarchy.fast_reads + slow.hierarchy.fast_writes == 0


class TestMemoisedFaultLaw:
    def test_memo_is_bit_identical_to_the_integral(self):
        model = FaultModel.calibrated()
        zero_margin = NoiseImmunityModel(margin_offset=0.0,
                                         margin_slope=0.0)
        grid = [0.2 + 0.01 * step for step in range(81)]
        for immunity in (model.immunity, zero_margin):
            for cr in grid:
                swing = model.voltage.swing(cr)
                arguments = (immunity, swing, model.amplitude,
                             model.duration)
                memoised = failure_probability(*arguments)
                assert failure_probability(*arguments) is memoised
                assert (memoised.hex()
                        == failure_probability.__wrapped__(*arguments).hex())


def test_replay_results_match_recorded_digests():
    expected = json.loads(REPLAY_DIGESTS.read_text())
    fallbacks_before = fallback_count()
    results = replay_results()
    fallbacks = fallback_count() - fallbacks_before
    assert result_digests(results) == expected
    # The blocks fence the faulted lane's RNG stream: faults are sampled
    # on dynamic configs too, and more configs fault than fall back.
    faulted = [result for block in results.values() for result in block
               if result.injected_faults]
    assert any(result.config.dynamic for result in faulted)
    assert len(faulted) > fallbacks


def _regenerate() -> None:
    TRACE_DIGESTS.write_text(json.dumps(
        {name: trace_digest(record_trace(config))
         for name, config in sorted(TRACE_WORKLOADS.items())},
        indent=2, sort_keys=True) + "\n")
    REPLAY_DIGESTS.write_text(json.dumps(
        result_digests(replay_results()), indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()
