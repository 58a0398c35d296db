"""Trace recorder: one instrumented fault-free execution per workload.

Recording runs the real kernel -- the same applications, caches, and
allocator the ``execute`` backend uses -- with fault injection fully
disengaged (a disabled ``geometric`` injector at scale 0, no-detection
policy, nominal clock) and three thin recording shims layered on top.
The recording is also the workload's golden run: its per-packet
observations are the fault-free reference every faulted run of the
workload is scored against, so :func:`record_trace` adopts them into the
golden cache (:func:`~repro.harness.experiment.remember_golden`).  The
shims are:

* :class:`RecordingMemView` appends a READ/WRITE event after every
  typed access (*after* delegating to the real accessor, so event
  order matches the execute backend's charge order: the fills a miss
  triggers precede the access that triggered them), and one merged
  WRITE event per chunk a bulk store (``write_bytes``) serves on the
  fast lane, from the view's ``_chunk_stored`` hook;
* :class:`RecordingHierarchy` appends a traffic event from each
  fill/writeback callback;
* :class:`RecordingEnvironment` records every ``work()`` charge.

The disabled geometric injector offers the MemView fast lane with
nothing scheduled, so resident accesses are served in the view and only
misses reach :meth:`MemoryHierarchy.read`/``write`` -- the same fast
lane golden runs take.  The view records each access whichever path
serves it: one recorded event per architectural access (one per chunk
for bulk stores).  The fast lane's chunked energy add differs from
per-byte adds in the last ulp, but a recording keeps only its events,
never its charges.  The clock setting only scales charges, never the
access stream, so recording at ``Cr = 1`` is sufficient for every
replayed clock.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.base import Environment
from repro.core.fault_model import FaultModel
from repro.core.recovery import NO_DETECTION
from repro.cpu.processor import Processor
from repro.cpu.watchdog import FatalExecutionError
from repro.harness.config import ExperimentConfig
from repro.harness.experiment import (
    ALLOCATION_BASE,
    MEMORY_SIZE,
    load_workload,
    remember_golden,
)
from repro.mem.allocator import BumpAllocator
from repro.mem.errors import MemoryAccessError
from repro.mem.faults import GeometricFaultInjector
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.view import MemView
from repro.replay.trace import (
    KIND_L1_FILL,
    KIND_L2_FILL,
    KIND_READ,
    KIND_WORK,
    KIND_WRITE,
    KIND_WRITEBACK,
    Trace,
)


class RecordingError(RuntimeError):
    """The recording run failed (a golden execution must not)."""


class TraceRecorder:
    """Accumulates the event stream of one recording run."""

    def __init__(self) -> None:
        self.kinds: "list[int]" = []
        self.addresses: "list[int]" = []
        self.widths: "list[int]" = []
        self.counts: "list[int]" = []
        self.packet_starts: "list[int]" = []

    def emit(self, kind: int, address: int = 0, width: int = 0,
             count: int = 1) -> None:
        """Append one event."""
        self.kinds.append(kind)
        self.addresses.append(address)
        self.widths.append(width)
        self.counts.append(count)

    def mark_packet(self) -> None:
        """Record that the next event starts a new packet."""
        self.packet_starts.append(len(self.kinds))

    def finish(self, offered_packets: int, regions: "tuple",
               static_ranges: "tuple[tuple[int, int], ...]") -> Trace:
        """Freeze the recording into an immutable :class:`Trace`."""
        kind = np.asarray(self.kinds, dtype=np.uint8)
        address = np.asarray(self.addresses, dtype=np.int64)
        width = np.asarray(self.widths, dtype=np.uint8)
        count = np.asarray(self.counts, dtype=np.int64)
        static = np.zeros(len(kind), dtype=bool)
        access = (kind == KIND_READ) | (kind == KIND_WRITE)
        for start, end in static_ranges:
            static |= access & (address >= start) & (address < end)
        return Trace(
            kind=kind, address=address, width=width, count=count,
            static=static,
            packet_starts=np.asarray(self.packet_starts, dtype=np.int64),
            offered_packets=offered_packets, regions=tuple(regions),
            static_ranges=static_ranges)


class RecordingHierarchy(MemoryHierarchy):
    """Memory hierarchy that appends an event per line transfer."""

    def __init__(self, recorder: TraceRecorder, *args, **kwargs) -> None:
        # Set before super().__init__: the Cache constructor binds the
        # fill/writeback callbacks to this subclass's overrides.
        self.recorder = recorder
        super().__init__(*args, **kwargs)

    def _on_l1_fill(self, line_address: int) -> None:
        super()._on_l1_fill(line_address)
        self.recorder.emit(KIND_L1_FILL, line_address)

    def _on_l2_fill(self, line_address: int) -> None:
        super()._on_l2_fill(line_address)
        self.recorder.emit(KIND_L2_FILL, line_address)

    def _on_l1_line_leaves(self, line_address: int) -> None:
        super()._on_l1_line_leaves(line_address)
        self.recorder.emit(KIND_WRITEBACK, line_address)


@dataclass
class RecordingEnvironment(Environment):
    """Environment that records every abstract-work charge."""

    recorder: "TraceRecorder | None" = None

    def work(self, instructions: int) -> None:
        count = round(instructions * self.instruction_scale)
        processor = self.processor
        processor.instructions += count
        processor.cycles += count
        self.recorder.emit(KIND_WORK, count=count)


class RecordingMemView(MemView):
    """MemView that records every typed access and bulk-store chunk.

    Each typed accessor delegates to the real one, then emits its event.
    ``write_bytes`` is the real one: it serves line-resident prefixes as
    merged chunks (one lookup, one ``k * charge`` energy add), reporting
    each to :meth:`_chunk_stored`, which emits one merged event, and
    stores the rest byte by byte through the recording :meth:`write_u8`.
    The chunking rule thus lives only in :class:`MemView`.
    """

    def __init__(self, hierarchy: RecordingHierarchy,
                 recorder: TraceRecorder) -> None:
        super().__init__(hierarchy)
        self.recorder = recorder

    def read_u8(self, address: int) -> int:
        value = super().read_u8(address)
        self.recorder.emit(KIND_READ, address, width=1)
        return value

    def read_u16(self, address: int) -> int:
        value = super().read_u16(address)
        self.recorder.emit(KIND_READ, address, width=2)
        return value

    def read_u32(self, address: int) -> int:
        value = super().read_u32(address)
        self.recorder.emit(KIND_READ, address, width=4)
        return value

    def write_u8(self, address: int, value: int) -> None:
        super().write_u8(address, value)
        self.recorder.emit(KIND_WRITE, address, width=1)

    def write_u16(self, address: int, value: int) -> None:
        super().write_u16(address, value)
        self.recorder.emit(KIND_WRITE, address, width=2)

    def write_u32(self, address: int, value: int) -> None:
        super().write_u32(address, value)
        self.recorder.emit(KIND_WRITE, address, width=4)

    def _chunk_stored(self, address: int, count: int) -> None:
        self.recorder.emit(KIND_WRITE, address, width=1, count=count)


def record_trace(config: ExperimentConfig) -> Trace:
    """Execute ``config``'s workload once, fault-free, recording events.

    The recording stack is deliberately config-minimal: geometric
    injector at scale 0 (disabled, so the MemView fast lane serves every
    resident access), no-detection policy, nominal clock -- only the
    workload identity and cache geometry influence the event stream,
    which is why the trace is keyed by
    :func:`repro.replay.trace.trace_key` and not the full config.  The
    run's per-packet observations feed the golden cache
    (:func:`~repro.harness.experiment.remember_golden`): a fault-free
    run's observations depend on the workload identity alone, so the
    recording doubles as the golden run of ``config.golden()``.
    """
    workload = load_workload(config)
    recorder = TraceRecorder()
    injector = GeometricFaultInjector(model=FaultModel.calibrated(),
                                      seed=config.injector_seed,
                                      scale=0.0, enabled=False)
    processor = Processor()
    hierarchy = RecordingHierarchy(
        recorder, processor, injector, policy=NO_DETECTION,
        cycle_time=1.0, memory_size=MEMORY_SIZE,
        l1_size=config.l1_size_bytes,
        l1_associativity=config.l1_associativity)
    allocator = BumpAllocator(ALLOCATION_BASE, MEMORY_SIZE - ALLOCATION_BASE)
    env = RecordingEnvironment(
        processor=processor, hierarchy=hierarchy,
        view=RecordingMemView(hierarchy, recorder), allocator=allocator,
        recorder=recorder)
    app = workload.build(env)
    try:
        app.run_control_plane()
        # Mirror the execute backend's quiesce: dirty control-plane
        # state drains to the L2 before packets flow (the flush's
        # writebacks are recorded as control-segment events).
        hierarchy.l1d.flush()
        observations: "list[dict[str, object]]" = []
        for index, packet in enumerate(workload.packets):
            recorder.mark_packet()
            observations.append(app.run_packet(packet, index))
    except (FatalExecutionError, MemoryAccessError) as exc:
        raise RecordingError(
            f"fault-free recording of {config.app!r} failed: "
            f"{type(exc).__name__}: {exc}") from exc
    remember_golden(config, observations)
    static_ranges = tuple((region.address, region.address + region.size)
                          for region in app.static_regions)
    return recorder.finish(
        offered_packets=len(workload.packets),
        regions=env.allocator.regions, static_ranges=static_ranges)
