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

from dataclasses import dataclass, field

from repro.apps.base import Environment, FATAL_CATEGORY, NetBenchApp
from repro.apps.registry import Workload, make_workload, workload_from_packets
from repro.core import constants
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
from repro.harness.backends import warm_backend
from repro.harness.config import ExperimentConfig
from repro.mem.allocator import BumpAllocator, Region
from repro.mem.errors import MemoryAccessError
from repro.mem.faultmaps import MAPPED_INJECTOR_NAMES
from repro.mem.faults import FaultInjector, make_injector
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.view import MemView
from repro.telemetry.events import FatalError, PacketDone
from repro.telemetry.tracer import NULL_TRACER
from repro.traffic.generators import scenario_stream
from repro.traffic.scenario import Scenario

#: Simulated address where application allocations begin (0 stays an
#: invalid "null pointer").
ALLOCATION_BASE = 0x1000


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
    ways_disabled: int = 0

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
            "ways_disabled": self.ways_disabled,
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
            ways_disabled=int(data.get("ways_disabled", 0)),
        )


def build_environment(config: ExperimentConfig, faulty: bool,
                      ) -> "tuple[Environment, FaultInjector]":
    """Construct one simulation stack (processor, hierarchy, allocator)."""
    model = FaultModel.calibrated(
        quarter_cycle_multiplier=config.quarter_cycle_multiplier)
    injector_kwargs: "dict[str, object]" = {}
    if config.injector in MAPPED_INJECTOR_NAMES:
        # The mapped injectors sample their weakness geography over the
        # L1 array this config builds: rows = sets, ways = associativity.
        injector_kwargs = dict(
            rows=config.l1_size_bytes // (constants.L1_LINE_BYTES
                                          * config.l1_associativity),
            ways=config.l1_associativity,
            line_size=constants.L1_LINE_BYTES,
            fault_map_params=dict(config.fault_map_params))
    injector = make_injector(
        config.injector,
        model=model, seed=config.seed * 1_000_003 + 17,
        scale=config.fault_scale if faulty else 0.0,
        enabled=faulty,
        burst_start_probability=config.burst_start_probability,
        burst_length=config.burst_length,
        burst_multiplier=config.burst_multiplier,
        **injector_kwargs)
    processor = Processor()
    if config.dynamic:
        initial_cycle_time = 1.0
    elif config.control_cycle_time is not None:
        initial_cycle_time = config.control_cycle_time
    else:
        initial_cycle_time = config.cycle_time
    hierarchy = MemoryHierarchy(
        processor, injector, policy=config.policy,
        cycle_time=initial_cycle_time, memory_size=config.memory_size,
        l1_size=config.l1_size_bytes,
        l1_associativity=config.l1_associativity,
        l2_fill_fault_probability=(config.l2_fill_fault_probability
                                   if faulty else 0.0))
    allocator = BumpAllocator(ALLOCATION_BASE,
                              config.memory_size - ALLOCATION_BASE)
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
    (or, failing that, ``config.tracer``) receives the run's telemetry
    events when ``faulty`` is true; golden runs are never traced, so a
    trace describes exactly one fault-injected execution.
    """
    env, injector = build_environment(config, faulty)
    if tracer is None:
        tracer = config.tracer
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
        controller = DynamicFrequencyController(tracer=tracer)
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
        if (config.control_cycle_time is not None
                and not config.dynamic):
            # Per-task clocking (Section 5.2): switch to the data-plane
            # clock at the plane boundary, paying the change penalty.
            env.hierarchy.set_cycle_time(config.cycle_time,
                                         reason="plane-boundary")
            if env.hierarchy.cycle_time != cycle_history[-1]:
                cycle_history.append(env.hierarchy.cycle_time)
        injector.enabled = faulty and config.planes in ("data", "both")
        last_detected = env.hierarchy.detected_faults
        for index, packet in enumerate(workload.packets):
            cycles_before = env.processor.cycles
            observations.append(app.run_packet(packet, index))
            packet_cycles.append(env.processor.cycles - cycles_before)
            if tracer.enabled:
                tracer.emit(PacketDone(
                    cycle=env.processor.cycles,
                    engine=env.hierarchy.engine_id,
                    packet_index=index,
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
                engine=env.hierarchy.engine_id,
                packet_index=fatal_index, reason=fatal_reason,
                cr=env.hierarchy.cycle_time))
    env.processor.finalize()
    if tracer.enabled:
        # Fast-lane coverage aggregates: bumped as plain integers on the
        # hot path (the lane stays event-free) and exported once here.
        tracer.gauges["hierarchy.fast_reads"] = env.hierarchy.fast_reads
        tracer.gauges["hierarchy.fast_writes"] = env.hierarchy.fast_writes
    tracer.finish()
    return RunOutcome(
        observations=observations, fatal_reason=fatal_reason,
        fatal_packet_index=fatal_index, processor=env.processor,
        hierarchy=env.hierarchy, cycle_history=tuple(cycle_history),
        regions=env.allocator.regions,
        packet_cycles=tuple(packet_cycles))


# Golden observations depend only on the workload identity, never on the
# clock/policy/scale, so they are cached per (app, packets, seed, kwargs).
_GOLDEN_CACHE: "dict[tuple, list[dict[str, object]]]" = {}


def _golden_key(config: ExperimentConfig) -> tuple:
    return (config.app, config.packet_count, config.seed, config.scenario,
            tuple(sorted(config.workload_kwargs.items())))


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


def golden_observations(workload: Workload, config: ExperimentConfig,
                        ) -> "list[dict[str, object]]":
    """Fetch (and cache) the workload's golden observations.

    On a cache miss the config's backend is warmed first
    (:func:`~repro.harness.backends.warm_backend`): the ``replay``
    backend records the workload's trace, and the recording supplies
    the golden observations (:func:`remember_golden`).  Only if the
    cache is still empty -- an ``execute`` config, or a trace the store
    already held -- does ``config.golden()`` run here.
    """
    key = _golden_key(config)
    if key not in _GOLDEN_CACHE:
        warm_backend(config.backend, config)
    if key not in _GOLDEN_CACHE:
        outcome = execute_workload(workload, config.golden(), faulty=False)
        if outcome.fatal_reason is not None:
            raise RuntimeError(
                f"golden run must not fail, got {outcome.fatal_reason}")
        _GOLDEN_CACHE[key] = outcome.observations
    return _GOLDEN_CACHE[key]


def load_workload(config: ExperimentConfig) -> Workload:
    """Build the deterministic workload a config describes.

    With ``config.scenario`` set, the packets come from the named
    ``repro.traffic`` generator (budget and seed from the config,
    generator knobs from ``workload_kwargs``) and the application tables
    are synthesised from those packets via
    :func:`~repro.apps.registry.workload_from_packets` -- realistic
    occupancy instead of the fixed per-app trace.  ``prefix_count`` in
    ``workload_kwargs`` sizes the synthesised routing table (generators
    ignore it).
    """
    if config.scenario is not None:
        scenario = Scenario(
            generator=config.scenario, packet_count=config.packet_count,
            seed=config.seed, params=dict(config.workload_kwargs))
        packets = [timed.packet for timed in scenario_stream(scenario)]
        prefix_count = int(config.workload_kwargs.get("prefix_count", 64))
        return workload_from_packets(config.app, packets, config.seed,
                                     prefix_count=prefix_count)
    return make_workload(config.app, config.packet_count, config.seed,
                         **config.workload_kwargs)


def run_experiment(config: ExperimentConfig,
                   injector_override: "FaultInjector | None" = None,
                   tracer: "object | None" = None,
                   ) -> ExperimentResult:
    """Golden + faulty execution, reduced to the paper's metrics.

    ``injector_override`` substitutes a caller-built injector for the
    config-derived one in the faulty run (single-fault campaigns,
    scripted fault streams); the golden run is never affected.
    ``tracer`` (or ``config.tracer``) receives the faulty run's telemetry
    events; tracing never perturbs the result.
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
    # Consecutive-error run lengths: the paper's volatile (length ~1) vs
    # nonvolatile (long-lived corruption) error distinction, quantified.
    error_runs: "list[int]" = []
    current_run = 0
    for flag in error_flags:
        if flag:
            current_run += 1
        elif current_run:
            error_runs.append(current_run)
            current_run = 0
    if current_run:
        error_runs.append(current_run)
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
        error_runs=tuple(error_runs),
        ways_disabled=outcome.hierarchy.ways_disabled,
    )
