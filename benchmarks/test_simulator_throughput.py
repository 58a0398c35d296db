"""Microbenchmarks: raw simulator throughput (pytest-benchmark timing).

These are the only benches where wall-clock statistics are the artifact:
they document the cost of simulation itself (accesses per second through
the full hierarchy, lookups per second through the radix tree) so users
can budget sweeps.  The sweep comparisons additionally write sections of
``BENCH_throughput.json`` -- the machine-readable perf trajectory that
CI gates on and subsequent changes extend.  Each gated lane merges its
section into the file (read-modify-write) so the lanes compose in any
order and a single artifact carries the whole trajectory.
"""

import json
import os
import statistics
import time

from repro.core.constants import NETBENCH_APPS, RELATIVE_CYCLE_LEVELS
from repro.core.recovery import ALL_POLICIES, TWO_STRIKE
from repro.cpu.processor import Processor
from repro.harness import experiment
from repro.harness.config import ExperimentConfig
from repro.harness.experiment import run_experiment
from repro.mem.faults import FaultInjector
from repro.mem.hierarchy import MemoryHierarchy
from repro.net.trace import make_prefixes


def _merge_throughput_section(artifact_dir, section: str,
                              report: dict) -> str:
    """Merge one lane's report into ``BENCH_throughput.json``.

    The file maps section name -> report.  A pre-existing flat report
    (the file's original single-section layout) is lifted under its
    ``experiment`` key before merging, so old artifacts upgrade in
    place.
    """
    path = artifact_dir / "BENCH_throughput.json"
    combined = {}
    if path.exists():
        try:
            combined = json.loads(path.read_text())
        except ValueError:
            combined = {}
    if "experiment" in combined:  # legacy flat layout
        combined = {combined["experiment"]: combined}
    combined[section] = report
    text = json.dumps(combined, indent=2)
    path.write_text(text + "\n")
    return json.dumps(report, indent=2)


def _spread(values) -> dict:
    """Median and quartiles of repeated readings, for the report."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": round(median, 3), "q1": round(q1, 3),
            "q3": round(q3, 3), "iqr": round(q3 - q1, 3)}


def _rotating_rounds(repeats: int, sides: tuple, steps, run) -> dict:
    """Seconds of every side, step by step, over ``repeats`` rounds.

    ``run(side, step)`` times one step of one side.  Within a round the
    sides take turns step by step, in an order that rotates with the
    round and the step, so load on a shared host reaches every side
    alike (whole sweeps in turn spread ten times wider).  Returns
    ``{side: [[seconds of each step] for each round]}``.
    """
    seconds = {side: [] for side in sides}
    for round_index in range(repeats):
        for per_round in seconds.values():
            per_round.append([0.0] * len(steps))
        for index, step in enumerate(steps):
            shift = (round_index + index) % len(sides)
            for side in sides[shift:] + sides[:shift]:
                seconds[side][round_index][index] = run(side, step)
    return seconds


def _fig9_12_configs(app: str, packets: int, backend: str,
                     injector: str = "reference"):
    """The behavioural-sweep config block for one application."""
    settings = tuple(RELATIVE_CYCLE_LEVELS) + ("dynamic",)
    return [ExperimentConfig(
        app=app, packet_count=packets, seed=7,
        cycle_time=(1.0 if setting == "dynamic" else setting),
        dynamic=setting == "dynamic", policy=policy,
        injector=injector, backend=backend)
        for policy in ALL_POLICIES for setting in settings]


class TestHierarchyThroughput:
    def test_word_access_throughput(self, benchmark):
        hierarchy = MemoryHierarchy(Processor(), FaultInjector(scale=0.0),
                                    policy=TWO_STRIKE, cycle_time=0.5)

        def churn():
            total = 0
            for index in range(2000):
                address = (index * 52) % 8192 & ~3
                if index % 3 == 0:
                    hierarchy.write(address, index & 0xFFFFFFFF, 4)
                else:
                    total += hierarchy.read(address, 4)
            return total

        benchmark(churn)

    def test_faulty_access_throughput(self, benchmark):
        # Fault drawing adds one RNG call per access; measure the cost.
        hierarchy = MemoryHierarchy(Processor(),
                                    FaultInjector(seed=1, scale=20.0),
                                    policy=TWO_STRIKE, cycle_time=0.25)

        def churn():
            total = 0
            for index in range(2000):
                address = (index * 52) % 8192 & ~3
                if index % 3 == 0:
                    hierarchy.write(address, index & 0xFFFFFFFF, 4)
                else:
                    total += hierarchy.read(address, 4)
            return total

        benchmark(churn)


class TestInjectorSweepThroughput:
    """Cold fig9-12-shaped geometric sweep, on and off the MemView lane.

    Every experiment in the behavioural sweep (7 apps x every recovery
    policy x the four static ``Cr`` settings plus the dynamic scheme) is
    simulated cold -- ``run_experiment`` directly, no campaign cache --
    under the geometric injector twice per round: as configured, so the
    MemView fast lane serves the accesses the injector leases as
    fault-free, and with ``supports_skip = False`` on every injector, so
    the same sweep takes the slow path for every access (the twin
    ``TestFaultedRunsOnTheFastLane`` builds).  Both sides give identical
    results; the lane earns its code only while it is faster.  Each of
    the ``REPEATS`` rounds runs one sweep per side, interleaved config
    by config in a rotating order (:func:`_rotating_rounds`).  CI
    gates the median of the per-round lane-off/lane ratios at
    ``MIN_LANE_SPEEDUP``, below the measured median by more than the
    measured interquartile range (median 1.41x, quartiles 1.40-1.43 at
    30 packets on a shared 2-vCPU host).

    Each round also times the sweep under the reference injector.  Its
    median ratio to the lane sweep is reported, not gated: it compares
    the two fault samplers, and any change to the slow path every
    reference access takes moves it.

    ``REPRO_THROUGHPUT_PACKETS`` scales the per-experiment packet count
    (default 60).
    """

    #: CI gate: minimum median lane-off-over-lane speedup.
    MIN_LANE_SPEEDUP = 1.25

    #: Interleaved rounds; the gate reads their median.
    REPEATS = 5

    def test_lane_speedup_on_fig9_12_sweep(self, once, artifact_dir,
                                           monkeypatch):
        packets = int(os.environ.get("REPRO_THROUGHPUT_PACKETS", "60"))
        make_injector = experiment.make_injector

        def lane_off(*args, **kwargs):
            injector = make_injector(*args, **kwargs)
            injector.supports_skip = False
            return injector

        # side -> (injector, whether it rides the lane)
        sides = {"lane": ("geometric", True),
                 "lane_off": ("geometric", False),
                 "reference": ("reference", True)}
        blocks = {injector: [config for app in NETBENCH_APPS
                             for config in _fig9_12_configs(
                                 app, packets, "execute", injector=injector)]
                  for injector in ("geometric", "reference")}

        def run(side, index):
            injector, lane = sides[side]
            with monkeypatch.context() as patch:
                if not lane:
                    patch.setattr(experiment, "make_injector", lane_off)
                started = time.perf_counter()
                run_experiment(blocks[injector][index])
                return time.perf_counter() - started

        per_config = once(_rotating_rounds, self.REPEATS, tuple(sides),
                          range(len(blocks["geometric"])), run)
        seconds = {side: [sum(steps) for steps in rounds]
                   for side, rounds in per_config.items()}
        lane_speedup = _spread([off / on for off, on in
                                zip(seconds["lane_off"], seconds["lane"])])
        report = {
            "experiment": "fig9_12_lane_sweep",
            "packets": packets,
            "seed": 7,
            "injector": "geometric",
            "configs_per_sweep": len(blocks["geometric"]),
            "repeats": self.REPEATS,
            "seconds": {name: _spread(values)
                        for name, values in seconds.items()},
            "lane_speedup": lane_speedup,
            "gate": self.MIN_LANE_SPEEDUP,
            # Report only: the reference sampler against the lane.
            "reference_over_lane": _spread(
                [reference / on for reference, on in
                 zip(seconds["reference"], seconds["lane"])]),
        }
        print()
        print(_merge_throughput_section(artifact_dir, "fig9_12_lane_sweep",
                                        report))
        assert lane_speedup["median"] >= self.MIN_LANE_SPEEDUP, (
            f"MemView lane speedup regressed: median "
            f"{lane_speedup['median']:.2f}x < {self.MIN_LANE_SPEEDUP}x gate "
            f"over {self.REPEATS} rounds (lane {seconds['lane']}, "
            f"lane off {seconds['lane_off']})")


class TestReplayBackendThroughput:
    """Warm fig9-12-shaped sweep, replay backend vs faithful execution.

    Each application's trace is recorded once (outside the timed
    region: a warm sweep is the backend's steady state -- a process
    records each workload once and replays it for every config), then
    the full (policy x Cr-setting) block replays per app against the
    same block executing faithfully.  Replay's total includes its fallbacks (the
    configs whose sampled faults reach branched-on values re-run the
    faithful kernel inside ``run_replay``), so the gated number is the
    honest end-to-end cost of ``--backend replay``.  Each of the
    ``REPEATS`` rounds runs both backends' sweeps, interleaved app by
    app in a rotating order (:func:`_rotating_rounds`); CI gates the
    median of the per-round execute/replay ratios at ``MIN_SPEEDUP``.
    A single pass read 5.5-6.0x against the same bound, so one sample
    could not tell a regression from noise.
    """

    #: CI gate: minimum median replay-over-execute warm speedup.
    MIN_SPEEDUP = 5.0

    #: Interleaved rounds; the gate reads their median.
    REPEATS = 5

    def test_replay_speedup_on_fig9_12_sweep(self, once, artifact_dir):
        from repro.harness.config import FALLBACK_REASONS
        from repro.replay.backend import (
            run_replay,
            set_trace_store,
            trace_store,
        )
        from repro.replay.trace import TraceStore
        from repro.telemetry.metrics import CounterSet

        packets = int(os.environ.get("REPRO_THROUGHPUT_PACKETS", "60"))
        blocks = {backend: {app: _fig9_12_configs(app, packets, backend)
                            for app in NETBENCH_APPS}
                  for backend in ("execute", "replay")}

        counters = CounterSet()

        def run(backend, app):
            started = time.perf_counter()
            if backend == "replay":
                run_replay(blocks["replay"][app], counters)
            else:
                for config in blocks["execute"][app]:
                    run_experiment(config)
            return time.perf_counter() - started

        def rounds():
            previous = set_trace_store(TraceStore())
            try:
                for app in NETBENCH_APPS:
                    trace_store().get_or_record(blocks["replay"][app][0])
                seconds = _rotating_rounds(
                    self.REPEATS, ("execute", "replay"), NETBENCH_APPS, run)
                # Every round replays the same configs, so the fallbacks
                # of one sweep are the total over the rounds.
                reasons = {reason: counters.get(f"replay.fallback.{reason}")
                           // self.REPEATS
                           for reason in FALLBACK_REASONS}
                return seconds, reasons
            finally:
                set_trace_store(previous)

        seconds, reasons = once(rounds)
        fallbacks = sum(reasons.values())
        totals = {backend: [sum(per_app) for per_app in per_round]
                  for backend, per_round in seconds.items()}
        speedup = _spread([execute / replay for execute, replay in
                           zip(totals["execute"], totals["replay"])])
        configs_per_backend = sum(len(block)
                                  for block in blocks["execute"].values())
        report = {
            "experiment": "fig9_12_warm_replay_sweep",
            "packets": packets,
            "seed": 7,
            "configs_per_backend": configs_per_backend,
            "repeats": self.REPEATS,
            "seconds": {backend: _spread(values)
                        for backend, values in totals.items()},
            "replay_fallbacks": fallbacks,
            # Report only: why each fallback left the replay lane.
            "replay_fallback_reasons": reasons,
            "speedup": speedup,
            "gate": self.MIN_SPEEDUP,
            # Report only: each app's median speedup over the rounds.
            "per_app_speedup": {
                app: round(statistics.median(
                    execute[index] / replay[index] for execute, replay in
                    zip(seconds["execute"], seconds["replay"])), 3)
                for index, app in enumerate(NETBENCH_APPS)
            },
        }
        print()
        print(_merge_throughput_section(
            artifact_dir, "fig9_12_warm_replay_sweep", report))
        assert speedup["median"] >= self.MIN_SPEEDUP, (
            f"replay backend speedup regressed: median "
            f"{speedup['median']:.2f}x < {self.MIN_SPEEDUP}x gate over "
            f"{self.REPEATS} rounds (execute {totals['execute']}, "
            f"replay {totals['replay']}, {fallbacks} fallbacks per sweep)")


class TestRadixThroughput:
    def test_lookup_throughput(self, benchmark):
        from repro.apps.base import Environment
        from repro.apps.radix import RadixTree
        from repro.mem.allocator import BumpAllocator
        from repro.mem.view import MemView

        hierarchy = MemoryHierarchy(Processor(), FaultInjector(scale=0.0))
        env = Environment(processor=hierarchy.processor,
                          hierarchy=hierarchy, view=MemView(hierarchy),
                          allocator=BumpAllocator(0x1000, (1 << 22) - 0x1000))
        prefixes = make_prefixes(64, seed=3)
        tree = RadixTree(env, max_nodes=4096, max_entries=len(prefixes))
        tree.build(prefixes)
        destinations = [(0x9E3779B9 * index) & 0xFFFFFFFF
                        for index in range(500)]

        def lookups():
            return sum(tree.lookup(destination).next_hop
                       for destination in destinations)

        benchmark(lookups)
