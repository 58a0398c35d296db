"""Multi-engine network processor: private clumsy L1Ds over a shared L2.

The paper models a single execution core but targets network processors,
which ship many packet engines sharing a level-2 cache (Section 4: "a
local instruction cache, a local data cache, and a shared level-2
cache").  This module builds that system:

* one backing store and one L2, shared by all engines;
* per engine: its own processor (cycle/energy account), fault injector
  (independent seed), over-clockable L1D, and application instance whose
  tables live in a private slice of the shared address space;
* packets dispatched round-robin across engines, interleaving their L2
  access streams -- so L2 *capacity* contention between the engines'
  working sets is modelled (port/bandwidth contention is not; engines are
  simulated as if perfectly overlapped).

Engines run independently, so the system completes when its slowest
engine does: the makespan is the maximum per-engine cycle count, and
system throughput is packets per makespan-cycle.  A fatal error wedges
only the engine it occurs on; the others keep forwarding -- exactly the
resilience argument the paper makes for packet processing.

Evaluation mirrors :mod:`repro.harness.experiment`: an identically
constructed fault-free system provides golden per-packet observations,
and mismatches are application errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.base import Environment, NetBenchApp
from repro.apps.registry import Workload, make_workload
from repro.core.fault_model import FaultModel
from repro.core.metrics import (
    MetricExponents,
    PAPER_EXPONENTS,
    energy_delay_fallibility,
    fallibility_factor,
)
from repro.core.recovery import NO_DETECTION, RecoveryPolicy
from repro.cpu.processor import Processor
from repro.cpu.watchdog import FatalExecutionError
from repro.mem.allocator import BumpAllocator
from repro.mem.backing import BackingStore
from repro.mem.cache import Cache
from repro.mem.errors import MemoryAccessError
from repro.mem.faults import FaultInjector
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.view import MemView
from repro.core import constants
from repro.telemetry.events import FatalError, PacketDone
from repro.telemetry.tracer import NULL_TRACER

#: First usable address of each engine's private slice (0 stays null).
SLICE_BASE_OFFSET = 0x1000

#: Bytes of shared backing store, split into one slice per engine.
SYSTEM_MEMORY_BYTES = 1 << 23


@dataclass
class EngineState:
    """One packet engine: simulation stack plus its application."""

    index: int
    env: Environment
    app: NetBenchApp
    observations: "list[dict[str, object]]" = field(default_factory=list)
    fatal_reason: "str | None" = None

    @property
    def alive(self) -> bool:
        """Whether this engine is still processing packets."""
        return self.fatal_reason is None


class MulticoreSystem:
    """N engines with private L1Ds sharing one L2 and backing store."""

    def __init__(
        self,
        workload: Workload,
        core_count: int,
        policy: RecoveryPolicy = NO_DETECTION,
        cycle_time: float = 1.0,
        fault_scale: float = 0.0,
        seed: int = 7,
        tracer: "object | None" = None,
    ) -> None:
        """``tracer`` receives every engine's events, stamped with the
        engine id; timestamps are monotone *per engine* (each engine has
        its own cycle counter), not globally."""
        if core_count < 1:
            raise ValueError("need at least one engine")
        self.tracer = tracer if tracer is not None else NULL_TRACER
        slice_size = SYSTEM_MEMORY_BYTES // core_count
        if slice_size <= SLICE_BASE_OFFSET:
            raise ValueError("memory too small for the engine count")
        self.workload = workload
        self.core_count = core_count
        self.memory = BackingStore(SYSTEM_MEMORY_BYTES)
        self._active_engine: "EngineState | None" = None
        self.l2 = Cache("L2", constants.L2_SIZE_BYTES,
                        constants.L2_LINE_BYTES,
                        constants.L2_ASSOCIATIVITY,
                        lower=self.memory, on_fill=self._on_l2_fill)
        # The shared L2 is attached once here; per-engine attachment
        # deliberately skips shared caches.
        self.l2.attach_tracer(self.tracer)
        self.engines: "list[EngineState]" = []
        model = FaultModel.calibrated()
        for index in range(core_count):
            processor = Processor()
            injector = FaultInjector(
                model=model, seed=seed * 7919 + index, scale=fault_scale)
            hierarchy = MemoryHierarchy(
                processor, injector, policy=policy, cycle_time=cycle_time,
                shared_l2=self.l2, shared_memory=self.memory)
            hierarchy.attach_tracer(self.tracer, engine_id=index)
            base = index * slice_size + SLICE_BASE_OFFSET
            allocator = BumpAllocator(base, slice_size - SLICE_BASE_OFFSET)
            env = Environment(processor=processor, hierarchy=hierarchy,
                              view=MemView(hierarchy), allocator=allocator)
            self.engines.append(EngineState(
                index=index, env=env, app=workload.build(env)))

    # -- shared-L2 charge routing -------------------------------------------------

    def _on_l2_fill(self, line_address: int) -> None:
        engine = self._active_engine
        if engine is not None:
            latency = constants.MEMORY_LATENCY_CYCLES
            engine.env.processor.stall(latency)
            engine.env.hierarchy.stall_cycles_memory += latency

    # -- execution -------------------------------------------------------------

    def run(self) -> None:
        """Process the whole trace, dispatching packets round-robin."""
        for engine in self.engines:
            self._active_engine = engine
            try:
                engine.app.run_control_plane()
            except (FatalExecutionError, MemoryAccessError) as exc:
                # A fault during table construction wedged this engine
                # before it saw any traffic; the others still come up.
                engine.fatal_reason = f"{type(exc).__name__}: {exc}"
                continue
            engine.env.hierarchy.l1d.flush()
        for index, packet in enumerate(self.workload.packets):
            engine = self.engines[index % self.core_count]
            if not engine.alive:
                continue
            self._active_engine = engine
            cycles_before = engine.env.processor.cycles
            try:
                engine.observations.append(
                    engine.app.run_packet(packet, index))
                if self.tracer.enabled:
                    cycles = engine.env.processor.cycles
                    self.tracer.emit(PacketDone(
                        cycle=cycles, engine=engine.index,
                        packet_index=index,
                        packet_cycles=cycles - cycles_before,
                        cr=engine.env.hierarchy.cycle_time))
            except (FatalExecutionError, MemoryAccessError) as exc:
                engine.fatal_reason = f"{type(exc).__name__}: {exc}"
                if self.tracer.enabled:
                    self.tracer.emit(FatalError(
                        cycle=engine.env.processor.cycles,
                        engine=engine.index,
                        packet_index=len(engine.observations),
                        reason=engine.fatal_reason,
                        cr=engine.env.hierarchy.cycle_time))
        self._active_engine = None
        for engine in self.engines:
            engine.env.processor.finalize()
        self.tracer.finish()


@dataclass(frozen=True)
class CoreResult:
    """Per-engine outcome of a multicore run."""

    index: int
    processed_packets: int
    erroneous_packets: int
    cycles: float
    energy: float
    fatal: bool


@dataclass(frozen=True)
class MulticoreResult:
    """System-level metrics of a multicore golden-vs-faulty comparison."""

    core_count: int
    cores: "tuple[CoreResult, ...]"
    offered_packets: int
    l2_miss_rate: float

    @property
    def processed_packets(self) -> int:
        """Packets completed before any fatal error."""
        return sum(core.processed_packets for core in self.cores)

    @property
    def erroneous_packets(self) -> int:
        """Packets with at least one observation mismatch."""
        return sum(core.erroneous_packets for core in self.cores)

    @property
    def fallibility(self) -> float:
        """The fallibility factor (Section 4.1)."""
        return fallibility_factor(self.erroneous_packets,
                                  self.processed_packets)

    @property
    def makespan_cycles(self) -> float:
        """System completion time: the slowest engine's cycle count."""
        return max(core.cycles for core in self.cores)

    @property
    def delay_per_packet(self) -> float:
        """Makespan cycles per processed packet (throughput inverse)."""
        processed = self.processed_packets
        return self.makespan_cycles / processed if processed else (
            self.makespan_cycles)

    @property
    def total_energy(self) -> float:
        """Chip energy summed over all engines."""
        return sum(core.energy for core in self.cores)

    @property
    def wedged_engines(self) -> int:
        """Engines stopped by a fatal error."""
        return sum(1 for core in self.cores if core.fatal)

    def product(self, exponents: MetricExponents = PAPER_EXPONENTS) -> float:
        """Energy^k * delay^m * fallibility^n at the system level."""
        return energy_delay_fallibility(
            self.total_energy, self.delay_per_packet, self.fallibility,
            exponents)


def run_multicore(
    app: str,
    core_count: int,
    packet_count: int = 300,
    seed: int = 7,
    policy: RecoveryPolicy = NO_DETECTION,
    cycle_time: float = 1.0,
    fault_scale: float = 0.0,
    tracer: "object | None" = None,
) -> MulticoreResult:
    """Golden-vs-faulty comparison of an N-engine system.

    The golden system is constructed identically (same seeds, same
    dispatch) with fault injection disabled, so per-engine observations
    align packet for packet.  ``tracer`` observes only the faulty system.
    """
    workload = make_workload(app, packet_count, seed)

    def build_and_run(scale: float,
                      system_tracer: "object | None") -> MulticoreSystem:
        system = MulticoreSystem(workload, core_count, policy=policy,
                                 cycle_time=cycle_time, fault_scale=scale,
                                 seed=seed, tracer=system_tracer)
        system.run()
        return system

    golden = build_and_run(0.0, None)
    faulty = build_and_run(fault_scale, tracer)
    for engine in golden.engines:
        if engine.fatal_reason is not None:
            raise RuntimeError(
                f"golden engine {engine.index} failed: {engine.fatal_reason}")
    cores = []
    for golden_engine, faulty_engine in zip(golden.engines, faulty.engines):
        errors = 0
        for observed, reference in zip(faulty_engine.observations,
                                       golden_engine.observations):
            if any(observed.get(category) != value
                   for category, value in reference.items()):
                errors += 1
        cores.append(CoreResult(
            index=faulty_engine.index,
            processed_packets=len(faulty_engine.observations),
            erroneous_packets=errors,
            cycles=faulty_engine.env.processor.cycles,
            energy=faulty_engine.env.processor.energy.total,
            fatal=faulty_engine.fatal_reason is not None))
    return MulticoreResult(
        core_count=core_count, cores=tuple(cores),
        offered_packets=len(workload.packets),
        l2_miss_rate=faulty.l2.stats.miss_rate)
