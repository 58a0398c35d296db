"""Work rides the fast lanes without changing a result.

Golden runs and trace recordings cannot fault, so both run on a
disabled ``geometric`` injector whose MemView fast lane serves every
resident access, and a replay workload runs fault-free only once: its
trace recording supplies the golden observations.  Faulted runs on the
``geometric`` injector take the same lane between scheduled faults, on
a lease of the schedule's fault-free gap.  Faulted replay pricing
expands a trace's access slots only once a sampled fault needs them,
and the fault law's integral is memoised per process.  Each test pins
one of those equivalences, either against the slow path or against
recorded digests:

* ``tests/golden/trace_digests.json``: every recorded trace array and
  its metadata;
* ``tests/golden/replay_digests.json``: every ``run_replay`` result of
  crc's Figures 9-12 block, at the figures' fault scale and at one high
  enough that the dynamic configs sample faults;
* ``tests/golden/execute_digests.json``: every faulted ``geometric``
  result of the same crc blocks run on ``execute``, and of md5's block,
  whose bulk stores take the lane's ``write_bytes`` chunks.  The lane
  twins below compare the lane with the slow path, which share their
  line lookup and word codecs; these digests pin both to fixed values.

Regenerate all three (only for an intended change of the recorded
stream, of replay pricing or of a faulted result) from the repository
root with::

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
from repro.core.recovery import ALL_POLICIES, EXTENSION_POLICIES, TWO_STRIKE
from repro.cpu.processor import Processor
from repro.harness import experiment
from repro.harness.config import FALLBACK_REASONS, ExperimentConfig
from repro.harness.experiment import (
    ExperimentResult,
    clear_golden_cache,
    execute_workload,
    golden_observations,
    load_workload,
    run_experiment,
)
from repro.harness.figures import EDF_SETTINGS
from repro.harness.profile import WorkloadProfile, profile_workload
from repro.harness.store import canonical_json
from repro.mem.errors import MemoryAccessError
from repro.mem.faults import GeometricFaultInjector
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.view import MemView
from repro.replay.backend import run_replay, set_trace_store, trace_store
from repro.replay.record import record_trace
from repro.replay.trace import TraceStore
from repro.telemetry.metrics import CounterSet

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
TRACE_DIGESTS = GOLDEN_DIR / "trace_digests.json"
REPLAY_DIGESTS = GOLDEN_DIR / "replay_digests.json"
EXECUTE_DIGESTS = GOLDEN_DIR / "execute_digests.json"

#: Recorded workloads: every app, and a cache geometry other than the
#: default direct-mapped 4 KB L1.
TRACE_WORKLOADS = {
    **{app: ExperimentConfig(app=app, packet_count=30, seed=7)
       for app in NETBENCH_APPS},
    "crc-2way-8k": ExperimentConfig(app="crc", packet_count=30, seed=7,
                                    l1_associativity=2, l1_size_bytes=8192),
}

#: Fault scales of the replayed block: the figures' own, and one at
#: which the dynamic configs sample faults too.  110 packets cross the
#: dynamic controller's 100-packet epoch.
REPLAY_SCALES = (10.0, 200.0)
REPLAY_PACKETS = 110

#: Faulted ``geometric`` blocks run on ``execute``: name -> (app,
#: packets, fault scale).  md5 stores its digests with ``write_bytes``.
EXECUTE_BLOCKS = {
    **{f"crc@{scale}": ("crc", REPLAY_PACKETS, scale)
       for scale in REPLAY_SCALES},
    "md5@200.0": ("md5", 30, 200.0),
}


def trace_digest(trace) -> str:
    """sha256 over the six event arrays (dtype and bytes) and the meta:
    packet count, allocated regions and static ranges."""
    digest = hashlib.sha256()
    for name in ("kind", "address", "width", "count", "static",
                 "packet_starts"):
        array = getattr(trace, name)
        digest.update(f"{name}:{array.dtype}:{len(array)}:".encode())
        digest.update(array.tobytes())
    meta = {
        "offered_packets": trace.offered_packets,
        "regions": [{"label": region.label, "address": region.address,
                     "size": region.size} for region in trace.regions],
        "static_ranges": [[start, end]
                          for start, end in trace.static_ranges],
    }
    digest.update(canonical_json(meta).encode())
    return digest.hexdigest()


def fig9_12_block(app: str, packets: int, scale: float,
                  **options) -> "list[ExperimentConfig]":
    """One app's Figures 9-12 block (policies x settings) at seed 7."""
    return [ExperimentConfig(
        app=app, packet_count=packets, seed=7,
        cycle_time=1.0 if setting == "dynamic" else setting,
        dynamic=setting == "dynamic", policy=policy, fault_scale=scale,
        **options)
        for policy in ALL_POLICIES for setting in EDF_SETTINGS]


def replay_results(
        counters: CounterSet) -> "dict[str, list[ExperimentResult]]":
    """Every replayed block's results, priced over freshly recorded traces
    (fallbacks counted on ``counters``)."""
    previous = set_trace_store(TraceStore())
    try:
        return {str(scale): run_replay(fig9_12_block(
            "crc", REPLAY_PACKETS, scale, backend="replay"), counters)
            for scale in REPLAY_SCALES}
    finally:
        set_trace_store(previous)


def execute_results() -> "dict[str, list[ExperimentResult]]":
    """Every faulted ``geometric`` block's results, run one by one."""
    return {name: [run_experiment(config) for config in fig9_12_block(
        app, packets, scale, injector="geometric")]
        for name, (app, packets, scale) in EXECUTE_BLOCKS.items()}


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


#: Lane twins: two warm L1D lines at ``BASE``, a cold line in another
#: set, and a fault law dense enough (about 1% of accesses at Cr 0.25)
#: that a test reaches the schedule's next fault within ~100 accesses.
LINE = 32
BASE = 0x1000
COLD = 0x1800
PAYLOAD = bytes(range(0xA0, 0xB8))

#: Every typed accessor and ``write_bytes``; stores pass values wider
#: than the access, which the view masks.
ACCESSORS = {
    "read_u8": lambda view, address: view.read_u8(address),
    "read_u16": lambda view, address: view.read_u16(address),
    "read_u32": lambda view, address: view.read_u32(address),
    "write_u8": lambda view, address: view.write_u8(address, 0x1A5),
    "write_u16": lambda view, address: view.write_u16(address, 0x1BEEF),
    "write_u32": lambda view, address: view.write_u32(address,
                                                      0x1CAFEF00D),
    "write_bytes": lambda view, address: view.write_bytes(address, PAYLOAD),
}


def lane_twins() -> "tuple[MemView, MemView]":
    """(fast lane, slow path) views over one fault schedule.

    Both hierarchies inject from same-seeded ``geometric`` injectors at
    a non-zero scale, so the lane serves on a live lease; the slow
    twin's ``supports_skip`` is off, so its ``draw()`` walks the same
    gap schedule one access at a time.  Both warm the lines at ``BASE``
    with word stores.
    """
    views = []
    for lane in (True, False):
        injector = GeometricFaultInjector(model=FaultModel.calibrated(),
                                          seed=5, scale=400.0)
        if not lane:
            injector.supports_skip = False
        hierarchy = MemoryHierarchy(Processor(), injector, policy=TWO_STRIKE,
                                    cycle_time=0.25, memory_size=1 << 16)
        view = MemView(hierarchy)
        for offset in range(0, 2 * LINE, 4):
            view.write_u32(BASE + offset, 0x01010101 * offset)
        views.append(view)
    return views[0], views[1]


def corrupt_word(views) -> None:
    """Track a stored one-bit flip at ``BASE + 8``, as a write fault does."""
    word = BASE + 8
    for view in views:
        hierarchy = view.hierarchy
        stored = int.from_bytes(hierarchy.l1d.poke_read(word, 4), "little")
        hierarchy.l1d.poke(word, (stored ^ 0x20).to_bytes(4, "little"))
        hierarchy.corruption[word] = frozenset({5})


def spend_schedule(views, clean_left: int) -> None:
    """Resident loads until ``clean_left`` accesses precede the fault."""
    gap = views[1].hierarchy.injector.scheduled_gap
    assert gap >= clean_left
    for _ in range(gap - clean_left):
        for view in views:
            view.read_u8(BASE)


#: case -> (address, preparation of the twins or None).
CASES = {
    "resident-hit": (BASE + 8, None),
    "cold-miss": (COLD, None),
    "unaligned-in-line": (BASE + 9, None),
    "line-straddling": (BASE + LINE - 1, None),
    "negative-address": (-4, None),
    "corrupted-word": (BASE + 8, corrupt_word),
    "corrupted-last-word": (BASE + 7, corrupt_word),
    "scheduled-fault": (BASE + 8, lambda views: spend_schedule(views, 0)),
    "lease-runs-out": (BASE + 8, lambda views: spend_schedule(views, 5)),
}


def outcome(access, view, address) -> object:
    """The access's return value, or the type of the error it raised."""
    try:
        return access(view, address)
    except MemoryAccessError as exc:
        return type(exc)


def lane_state(view) -> "dict[str, object]":
    """Everything an access can change, besides the L1D energy."""
    hierarchy = view.hierarchy
    l1d = hierarchy.l1d
    return {
        "l1d.stats": l1d.stats,
        "l1d.clock": l1d.clock,
        "lines": [[(line.tag, line.last_use, line.dirty, bytes(line.data))
                   for line in ways] for ways in l1d.sets],
        "l2.stats": hierarchy.l2.stats,
        "cycles": hierarchy.processor.cycles,
        "corruption": hierarchy.corruption,
        "detected_faults": hierarchy.detected_faults,
        "injected_faults": hierarchy.injector.stats.total,
    }


class TestAccessorLaneTwins:
    """Each accessor's lane copy is effect-for-effect the slow path."""

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("accessor", list(ACCESSORS))
    def test_lane_matches_the_slow_path(self, accessor, case):
        lane, slow = lane_twins()
        address, prepare = CASES[case]
        if prepare is not None:
            prepare((lane, slow))
        served_before = lane.hierarchy.fast_reads + lane.hierarchy.fast_writes
        injected_before = slow.hierarchy.injector.stats.total
        access = ACCESSORS[accessor]
        assert (outcome(access, lane, address)
                == outcome(access, slow, address))
        assert lane_state(lane) == lane_state(slow)
        energies = [view.hierarchy.processor.energy.l1d
                    for view in (lane, slow)]
        if accessor == "write_bytes":
            # The lane adds a chunk's energy as one k * charge.
            assert energies[0] == pytest.approx(energies[1], rel=1e-12,
                                                abs=0.0)
        else:
            assert energies[0] == energies[1]
        hierarchy = lane.hierarchy
        assert (hierarchy.skip_lease + hierarchy.injector.scheduled_gap
                == slow.hierarchy.injector.scheduled_gap)
        # The table drives what it names: a hit on a live lease, and the
        # scheduled fault (inside the byte string once its lease runs out).
        served = hierarchy.fast_reads + hierarchy.fast_writes - served_before
        injected = slow.hierarchy.injector.stats.total - injected_before
        if case == "resident-hit":
            assert served == (len(PAYLOAD) if accessor == "write_bytes"
                              else 1)
        if case == "scheduled-fault" or (case == "lease-runs-out"
                                         and accessor == "write_bytes"):
            assert injected == 1


def faulted_block() -> "list[ExperimentConfig]":
    """Every policy on every app where faults land, on ``geometric``.

    One extra config per app runs the dynamic controller across its
    100-packet epoch: its clock switch refunds a live lease.
    """
    def config(app, **options):
        return ExperimentConfig(app=app, seed=7, injector="geometric",
                                **options)

    return ([config(app, packet_count=40, cycle_time=0.25,
                    fault_scale=200.0, policy=policy)
             for app in NETBENCH_APPS
             for policy in ALL_POLICIES + EXTENSION_POLICIES]
            + [config(app, packet_count=110, dynamic=True, fault_scale=20.0,
                      policy=TWO_STRIKE)
               for app in NETBENCH_APPS])


class TestFaultedRunsOnTheFastLane:
    """Faulted runs give the slow path's results with the lane on."""

    def test_faulted_block_matches_the_slow_path(self, monkeypatch):
        block = faulted_block()
        leases_at_switch: "list[int]" = []
        set_cycle_time = MemoryHierarchy.set_cycle_time

        def recording_switch(hierarchy, cycle_time, *args, **kwargs):
            if cycle_time != hierarchy.cycle_time:
                leases_at_switch.append(hierarchy.skip_lease)
            set_cycle_time(hierarchy, cycle_time, *args, **kwargs)

        monkeypatch.setattr(MemoryHierarchy, "set_cycle_time",
                            recording_switch)
        fast = [run_experiment(config).to_json() for config in block]
        monkeypatch.setattr(MemoryHierarchy, "set_cycle_time",
                            set_cycle_time)
        make_injector = experiment.make_injector

        def slow_lane(*args, **kwargs):
            injector = make_injector(*args, **kwargs)
            injector.supports_skip = False
            return injector

        monkeypatch.setattr(experiment, "make_injector", slow_lane)
        slow = [run_experiment(config).to_json() for config in block]
        for config, fast_result, slow_result in zip(block, fast, slow):
            fast_energy = fast_result.pop("energy")
            slow_energy = slow_result.pop("energy")
            assert fast_result == slow_result, config
            assert fast_energy == pytest.approx(slow_energy, rel=1e-12,
                                                abs=0.0), config
        assert sum(result["injected_faults"] for result in fast) > 0
        assert sum(result["detected_faults"] for result in fast) > 0
        dynamic = fast[-len(NETBENCH_APPS):]
        assert all(len(result["cycle_history"]) > 1 for result in dynamic)
        assert any(leases_at_switch)

    def test_faulted_run_rides_the_lane(self):
        config = faulted_block()[0]
        hierarchy = execute_workload(load_workload(config), config,
                                     faulty=True).hierarchy
        assert hierarchy.injector.stats.total > 0
        served = hierarchy.fast_reads + hierarchy.fast_writes
        assert served >= 0.9 * hierarchy.l1d.stats.accesses


class TestOneFaultFreeRunPerWorkload:
    """A replay workload's trace recording is its golden run."""

    CONFIG = ExperimentConfig(app="crc", packet_count=30, seed=7,
                              backend="replay")

    @pytest.fixture()
    def runs(self, monkeypatch):
        """A fresh trace store, and the golden executions made."""
        executions: "list[ExperimentConfig]" = []
        execute = experiment.execute_workload

        def counting(workload, config, faulty, *args, **kwargs):
            executions.append(config)
            return execute(workload, config, faulty, *args, **kwargs)

        monkeypatch.setattr(experiment, "execute_workload", counting)
        previous = set_trace_store(TraceStore())
        yield trace_store(), executions
        set_trace_store(previous)

    @staticmethod
    def executed_golden(config):
        return execute_workload(load_workload(config), config.golden(),
                                faulty=False).observations

    @pytest.mark.parametrize("name", sorted(TRACE_WORKLOADS))
    def test_recording_adopts_the_golden_observations(self, name,
                                                      monkeypatch):
        config = TRACE_WORKLOADS[name]
        expected = self.executed_golden(config)
        record_trace(config)

        def no_golden_run(*args, **kwargs):
            raise AssertionError("the recording left no golden observations")

        monkeypatch.setattr(experiment, "execute_workload", no_golden_run)
        assert golden_observations(load_workload(config),
                                   config) == expected

    def test_golden_then_record_runs_once(self, runs):
        store, executions = runs
        observations = golden_observations(load_workload(self.CONFIG),
                                           self.CONFIG)
        store.get_or_record(self.CONFIG)
        assert (store.recordings, len(executions)) == (1, 0)
        assert observations == self.executed_golden(self.CONFIG)

    def test_record_then_golden_runs_once(self, runs):
        store, executions = runs
        store.get_or_record(self.CONFIG)
        observations = golden_observations(load_workload(self.CONFIG),
                                           self.CONFIG)
        assert (store.recordings, len(executions)) == (1, 0)
        assert observations == self.executed_golden(self.CONFIG)

    def test_execute_config_runs_golden_and_records_nothing(self, runs):
        store, executions = runs
        config = self.CONFIG.with_options(backend="execute")
        golden_observations(load_workload(config), config)
        assert (store.recordings, len(store)) == (0, 0)
        assert executions == [config.golden()]

    def test_stored_trace_leaves_golden_to_a_plain_run(self, runs):
        store, executions = runs
        store.get_or_record(self.CONFIG)
        clear_golden_cache()
        observations = golden_observations(load_workload(self.CONFIG),
                                           self.CONFIG)
        assert (store.recordings, executions) == (1, [self.CONFIG.golden()])
        assert observations == self.executed_golden(self.CONFIG)


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
    counters = CounterSet()
    results = replay_results(counters)
    fallbacks = sum(counters.get(f"replay.fallback.{reason}")
                    for reason in FALLBACK_REASONS)
    assert result_digests(results) == expected
    # The blocks fence the faulted lane's RNG stream: faults are sampled
    # on dynamic configs too, and more configs fault than fall back.
    faulted = [result for block in results.values() for result in block
               if result.injected_faults]
    assert any(result.config.dynamic for result in faulted)
    assert len(faulted) > fallbacks


def test_execute_results_match_recorded_digests():
    expected = json.loads(EXECUTE_DIGESTS.read_text())
    results = execute_results()
    assert result_digests(results) == expected
    # Every block samples faults, and detects some of them.
    for block in results.values():
        assert sum(result.injected_faults for result in block) > 0
        assert sum(result.detected_faults for result in block) > 0


def _regenerate() -> None:
    TRACE_DIGESTS.write_text(json.dumps(
        {name: trace_digest(record_trace(config))
         for name, config in sorted(TRACE_WORKLOADS.items())},
        indent=2, sort_keys=True) + "\n")
    REPLAY_DIGESTS.write_text(json.dumps(
        result_digests(replay_results(CounterSet())), indent=2,
        sort_keys=True) + "\n")
    EXECUTE_DIGESTS.write_text(json.dumps(
        result_digests(execute_results()), indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()
