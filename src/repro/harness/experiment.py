"""Run one configuration: golden reference run plus fault-injected run.

This is the reproduction of the paper's Section 5 methodology:

1. Execute the application over its trace with fault injection disabled,
   recording every per-packet observation (the *golden* run).  Golden
   observations depend only on the workload, so they are cached; under
   the ``replay`` backend the fault-free trace recording is that run
   (:func:`remember_golden`).
2. Execute an identically-constructed simulation with fault injection
   enabled in the configured plane(s), under the configured clock setting
   (static or dynamic) and detection/recovery policy.
3. Compare observations packet by packet: a mismatch in any category is an
   application error for that packet; a watchdog trip or a wild memory
   access is a *fatal error* which ends the run -- only the packets
   completed before it count as processed (Section 4.1).
4. Reduce to the paper's metrics: per-category error probabilities, the
   fallibility factor, average cycles per packet, total energy, and the
   energy-delay^2-fallibility^2 product.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from types import ModuleType
from typing import Iterable

from repro.apps.base import Environment, FATAL_CATEGORY, NetBenchApp
from repro.apps.registry import Workload, make_workload
from repro.core.dynamic import DynamicFrequencyController
from repro.core.fault_model import FaultModel
from repro.core.metrics import (
    MetricExponents,
    PAPER_EXPONENTS,
    energy_delay_fallibility,
    fallibility_factor,
)
from repro.cpu.processor import Processor
from repro.cpu.watchdog import FatalExecutionError
from repro.harness.config import ExperimentConfig
from repro.mem.allocator import BumpAllocator, Region
from repro.mem.errors import MemoryAccessError
from repro.mem.faults import FaultInjector, make_injector
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.view import MemView
from repro.telemetry.events import FatalError, PacketDone
from repro.telemetry.tracer import NULL_TRACER

#: Simulated address where application allocations begin (0 stays an
#: invalid "null pointer").
ALLOCATION_BASE = 0x1000

#: Bytes of simulated main memory behind every run's hierarchy (faulty,
#: golden and trace recording alike).
MEMORY_SIZE = 1 << 22


@dataclass
class RunOutcome:
    """Raw results of executing one simulation (golden or faulty)."""

    observations: "list[dict[str, object]]"
    fatal_reason: "str | None"
    fatal_packet_index: "int | None"
    processor: Processor
    hierarchy: MemoryHierarchy
    cycle_history: "tuple[float, ...]"
    regions: "tuple" = ()
    packet_cycles: "tuple[float, ...]" = ()

    @property
    def processed_packets(self) -> int:
        """Packets completed before any fatal error."""
        return len(self.observations)


@dataclass(frozen=True)
class ExperimentResult:
    """The paper's metrics for one configuration."""

    config: ExperimentConfig
    offered_packets: int
    processed_packets: int
    erroneous_packets: int
    category_errors: "dict[str, int]"
    fatal: bool
    fatal_reason: "str | None"
    cycles: float
    instructions: int
    energy: "dict[str, float]"
    l1d_accesses: int
    l1d_miss_rate: float
    detected_faults: int
    injected_faults: int
    cycle_history: "tuple[float, ...]" = (1.0,)
    fault_sites: "tuple[tuple[int, bool], ...]" = ()
    regions: "tuple" = ()
    packet_cycles: "tuple[float, ...]" = ()
    error_runs: "tuple[int, ...]" = ()

    @property
    def mean_error_persistence(self) -> float:
        """Mean consecutive-error run length (packets).

        ~1 means volatile errors (each fault hurts one packet); large
        values mean nonvolatile corruption kept hurting packet after
        packet (paper Section 1's lasting-effect errors).
        """
        if not self.error_runs:
            return 0.0
        return sum(self.error_runs) / len(self.error_runs)

    @property
    def fallibility(self) -> float:
        """The fallibility factor (Section 4.1)."""
        return fallibility_factor(self.erroneous_packets,
                                  self.processed_packets)

    @property
    def fatal_probability(self) -> float:
        """Fatal errors per offered packet."""
        return (1 if self.fatal else 0) / self.offered_packets

    @property
    def delay_per_packet(self) -> float:
        """Average cycles per processed packet (Section 5.4's delay)."""
        if self.processed_packets == 0:
            return self.cycles
        return self.cycles / self.processed_packets

    def error_probability(self, category: str) -> float:
        """Per-packet probability of an error in one observation category."""
        if self.processed_packets == 0:
            return 1.0 if category == FATAL_CATEGORY else 0.0
        if category == FATAL_CATEGORY:
            return (1 if self.fatal else 0) / self.offered_packets
        return self.category_errors.get(category, 0) / self.processed_packets

    def product(self, exponents: MetricExponents = PAPER_EXPONENTS) -> float:
        """The energy^k * delay^m * fallibility^n value (Section 4.1)."""
        return energy_delay_fallibility(
            self.energy["total"], self.delay_per_packet, self.fallibility,
            exponents)

    def to_json(self) -> "dict[str, object]":
        """Lossless JSON-safe representation (the result store's record).

        Dictionaries keep their in-process insertion order (JSON objects
        preserve it both ways) and floats serialize via ``repr``, so
        ``from_json(to_json(result))`` is ``repr``-identical to the
        original -- the property the warm-cache equality tests assert.
        """
        return {
            "config": self.config.to_json(),
            "offered_packets": self.offered_packets,
            "processed_packets": self.processed_packets,
            "erroneous_packets": self.erroneous_packets,
            "category_errors": dict(self.category_errors),
            "fatal": self.fatal,
            "fatal_reason": self.fatal_reason,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "energy": dict(self.energy),
            "l1d_accesses": self.l1d_accesses,
            "l1d_miss_rate": self.l1d_miss_rate,
            "detected_faults": self.detected_faults,
            "injected_faults": self.injected_faults,
            "cycle_history": list(self.cycle_history),
            "fault_sites": [[address, is_write]
                            for address, is_write in self.fault_sites],
            "regions": [{"label": region.label, "address": region.address,
                         "size": region.size} for region in self.regions],
            "packet_cycles": list(self.packet_cycles),
            "error_runs": list(self.error_runs),
        }

    @classmethod
    def from_json(cls, data: "dict[str, object]") -> "ExperimentResult":
        """Rebuild a result from :meth:`to_json` output."""
        return cls(
            config=ExperimentConfig.from_json(data["config"]),
            offered_packets=data["offered_packets"],
            processed_packets=data["processed_packets"],
            erroneous_packets=data["erroneous_packets"],
            category_errors=dict(data["category_errors"]),
            fatal=data["fatal"],
            fatal_reason=data["fatal_reason"],
            cycles=data["cycles"],
            instructions=data["instructions"],
            energy=dict(data["energy"]),
            l1d_accesses=data["l1d_accesses"],
            l1d_miss_rate=data["l1d_miss_rate"],
            detected_faults=data["detected_faults"],
            injected_faults=data["injected_faults"],
            cycle_history=tuple(data["cycle_history"]),
            fault_sites=tuple((address, bool(is_write))
                              for address, is_write in data["fault_sites"]),
            regions=tuple(Region(**region) for region in data["regions"]),
            packet_cycles=tuple(data["packet_cycles"]),
            error_runs=tuple(data["error_runs"]),
        )


def build_environment(config: ExperimentConfig, faulty: bool,
                      ) -> "tuple[Environment, FaultInjector]":
    """Construct one simulation stack (processor, hierarchy, allocator)."""
    injector = make_injector(
        config.injector,
        model=FaultModel.calibrated(), seed=config.injector_seed,
        scale=config.fault_scale if faulty else 0.0,
        enabled=faulty,
        burst_start_probability=config.burst_start_probability,
        burst_length=config.burst_length,
        burst_multiplier=config.burst_multiplier)
    processor = Processor()
    hierarchy = MemoryHierarchy(
        processor, injector, policy=config.policy,
        cycle_time=1.0 if config.dynamic else config.cycle_time,
        memory_size=MEMORY_SIZE, l1_size=config.l1_size_bytes,
        l1_associativity=config.l1_associativity,
        l2_fill_fault_probability=(config.l2_fill_fault_probability
                                   if faulty else 0.0))
    allocator = BumpAllocator(ALLOCATION_BASE, MEMORY_SIZE - ALLOCATION_BASE)
    env = Environment(processor=processor, hierarchy=hierarchy,
                      view=MemView(hierarchy), allocator=allocator)
    return env, injector


def execute_workload(workload: Workload, config: ExperimentConfig,
                     faulty: bool,
                     injector_override: "FaultInjector | None" = None,
                     tracer: "object | None" = None) -> RunOutcome:
    """Execute one simulation (golden or faulty) over a workload.

    This is the public single-run primitive shared by the experiment
    runner, the profiler, and the single-fault campaigns.  ``tracer``
    receives the run's telemetry events when ``faulty`` is true; golden
    runs are never traced, so a trace describes exactly one
    fault-injected execution.
    """
    env, injector = build_environment(config, faulty)
    if tracer is None or not faulty:
        tracer = NULL_TRACER
    env.hierarchy.attach_tracer(tracer)
    if faulty and injector_override is not None:
        injector = injector_override
        injector.enabled = True
        env.hierarchy.injector = injector
    app = workload.build(env)
    controller = None
    if faulty and config.dynamic:
        controller = DynamicFrequencyController()
    injector.enabled = faulty and config.planes in ("control", "both")
    observations: "list[dict[str, object]]" = []
    packet_cycles: "list[float]" = []
    fatal_reason: "str | None" = None
    fatal_index: "int | None" = None
    cycle_history: "list[float]" = [env.hierarchy.cycle_time]
    try:
        app.run_control_plane()
        # The system quiesces between configuration and traffic: dirty
        # control-plane state drains to the L2 before packets flow.  (This
        # also matches the paper's assumption that recovery can fetch the
        # installed tables from the level-2 cache.)
        env.hierarchy.l1d.flush()
        injector.enabled = faulty and config.planes in ("data", "both")
        last_detected = env.hierarchy.detected_faults
        for index, packet in enumerate(workload.packets):
            cycles_before = env.processor.cycles
            observations.append(app.run_packet(packet, index))
            packet_cycles.append(env.processor.cycles - cycles_before)
            if tracer.enabled:
                tracer.emit(PacketDone(
                    cycle=env.processor.cycles, packet_index=index,
                    packet_cycles=env.processor.cycles - cycles_before,
                    cr=env.hierarchy.cycle_time))
            if controller is not None:
                delta = env.hierarchy.detected_faults - last_detected
                last_detected = env.hierarchy.detected_faults
                controller.record_fault(delta)
                if controller.packet_completed():
                    env.hierarchy.set_cycle_time(controller.cycle_time,
                                                 reason="dynamic")
                    cycle_history.append(controller.cycle_time)
    except (FatalExecutionError, MemoryAccessError) as exc:
        fatal_reason = f"{type(exc).__name__}: {exc}"
        fatal_index = len(observations)
        if tracer.enabled:
            tracer.emit(FatalError(
                cycle=env.processor.cycles,
                packet_index=fatal_index, reason=fatal_reason,
                cr=env.hierarchy.cycle_time))
    env.processor.finalize()
    tracer.finish()
    return RunOutcome(
        observations=observations, fatal_reason=fatal_reason,
        fatal_packet_index=fatal_index, processor=env.processor,
        hierarchy=env.hierarchy, cycle_history=tuple(cycle_history),
        regions=env.allocator.regions,
        packet_cycles=tuple(packet_cycles))


# Golden observations depend only on the workload identity, never on the
# clock/policy/scale, so they are cached per (app, packets, seed).
_GOLDEN_CACHE: "dict[tuple, list[dict[str, object]]]" = {}


def _golden_key(config: ExperimentConfig) -> tuple:
    return (config.app, config.packet_count, config.seed)


def clear_golden_cache() -> None:
    """Drop cached golden observations (for tests)."""
    _GOLDEN_CACHE.clear()


def remember_golden(config: ExperimentConfig,
                    observations: "list[dict[str, object]]") -> None:
    """Adopt another fault-free run's observations as ``config``'s golden.

    The replay backend's trace recording executes the same fault-free
    workload a golden run does and hands its per-packet observations
    here, so a process runs each replay workload fault-free once.  An
    entry already cached is kept.
    """
    _GOLDEN_CACHE.setdefault(_golden_key(config), observations)


def replay_backend() -> ModuleType:
    """The ``replay`` backend module, :mod:`repro.replay.backend`.

    Replay sits above the harness in the layer DAG, so no harness
    module imports it by statement.  This is the harness's one
    crossing, by module name: the campaign engine prices replay chunks
    through it, the golden cache warms replay workloads through it, and
    the CLI reads fallbacks through it.
    """
    return importlib.import_module("repro.replay.backend")


def golden_observations(workload: Workload, config: ExperimentConfig,
                        ) -> "list[dict[str, object]]":
    """Fetch (and cache) the workload's golden observations.

    On a cache miss for a ``replay`` config the workload's trace is
    recorded first (the backend's ``warm``), and the recording supplies
    the golden observations (:func:`remember_golden`).  Only if the
    cache is still empty -- an ``execute`` config, or a trace the store
    already held -- does ``config.golden()`` run here.
    """
    key = _golden_key(config)
    if key not in _GOLDEN_CACHE and config.backend == "replay":
        replay_backend().warm(config)
    if key not in _GOLDEN_CACHE:
        outcome = execute_workload(workload, config.golden(), faulty=False)
        if outcome.fatal_reason is not None:
            raise RuntimeError(
                f"golden run must not fail, got {outcome.fatal_reason}")
        _GOLDEN_CACHE[key] = outcome.observations
    return _GOLDEN_CACHE[key]


def consecutive_error_runs(flags: "Iterable[bool]") -> "tuple[int, ...]":
    """Lengths of the runs of consecutive erroneous packets.

    The paper's volatile (length ~1) vs nonvolatile (long-lived
    corruption) error distinction, quantified; both backends reduce
    their per-packet error flags through this one function.
    """
    runs: "list[int]" = []
    current = 0
    for flag in flags:
        if flag:
            current += 1
        elif current:
            runs.append(current)
            current = 0
    if current:
        runs.append(current)
    return tuple(runs)


def load_workload(config: ExperimentConfig) -> Workload:
    """Build the deterministic workload a config describes."""
    return make_workload(config.app, config.packet_count, config.seed)


def run_experiment(config: ExperimentConfig,
                   injector_override: "FaultInjector | None" = None,
                   tracer: "object | None" = None,
                   ) -> ExperimentResult:
    """Golden + faulty execution, reduced to the paper's metrics.

    ``injector_override`` substitutes a caller-built injector for the
    config-derived one in the faulty run (single-fault campaigns,
    scripted fault streams); the golden run is never affected.
    ``tracer`` receives the faulty run's telemetry events; tracing never
    perturbs the result.  This is the one place either attaches: the
    run always executes the faithful kernel, whatever ``config.backend``
    names, and is never cached (a scripted injector makes the result
    depend on state outside the config).
    """
    workload = load_workload(config)
    golden = golden_observations(workload, config)
    outcome = execute_workload(workload, config, faulty=True,
                               injector_override=injector_override,
                               tracer=tracer)
    category_errors: "dict[str, int]" = {}
    erroneous_packets = 0
    error_flags: "list[bool]" = []
    for observed, reference in zip(outcome.observations, golden):
        packet_has_error = False
        for category, golden_value in reference.items():
            if observed.get(category) != golden_value:
                category_errors[category] = category_errors.get(category, 0) + 1
                packet_has_error = True
        if packet_has_error:
            erroneous_packets += 1
        error_flags.append(packet_has_error)
    stats = outcome.hierarchy.l1d.stats
    return ExperimentResult(
        config=config,
        offered_packets=len(workload.packets),
        processed_packets=outcome.processed_packets,
        erroneous_packets=erroneous_packets,
        category_errors=category_errors,
        fatal=outcome.fatal_reason is not None,
        fatal_reason=outcome.fatal_reason,
        cycles=outcome.processor.cycles,
        instructions=outcome.processor.instructions,
        energy=outcome.processor.energy.snapshot(),
        l1d_accesses=stats.accesses,
        l1d_miss_rate=stats.miss_rate,
        detected_faults=outcome.hierarchy.detected_faults,
        injected_faults=outcome.hierarchy.injector.stats.total,
        cycle_history=outcome.cycle_history,
        fault_sites=tuple(outcome.hierarchy.fault_sites),
        regions=outcome.regions,
        packet_cycles=outcome.packet_cycles,
        error_runs=consecutive_error_runs(error_flags),
    )
