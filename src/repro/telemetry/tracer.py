"""The tracer: event sink, counters, and the null fast path.

Two implementations share one two-method protocol (``emit``/``finish``):

* :class:`Tracer` appends typed events in emission order and maintains
  derived counters and histograms (strikes per line, packet latency,
  faults per epoch).  It also owns the telemetry *epoch* machinery:
  every ``epoch_packets`` completed packets it synthesises an
  :class:`~repro.telemetry.events.EpochBoundary` event, and ``finish``
  flushes the final partial epoch -- so every traced run ends with a
  complete per-epoch record even if a fatal error cut it short.
* :class:`NullTracer` does nothing.  Instrumented hot loops guard event
  construction with ``if tracer.enabled:``, so the untraced cost is one
  attribute test -- no event objects, no dictionary traffic.

Tracing is pure observation: a tracer never touches the simulation's RNG,
cycle accounting, or cache state, so a traced run produces results
identical to an untraced run of the same configuration (tested in
``tests/test_telemetry.py``).
"""

from __future__ import annotations

from repro.core.constants import DYNAMIC_EPOCH_PACKETS
from repro.telemetry.events import (
    EpochBoundary,
    FaultInjected,
    FatalError,
    PacketDone,
    ParityStrike,
    RecoveryFallback,
    TraceEvent,
)
from repro.telemetry.metrics import CounterSet, FixedHistogram

#: Default packet-latency histogram bounds (cycles per packet).
LATENCY_BUCKET_BOUNDS = (250.0, 500.0, 1000.0, 2000.0, 4000.0, 8000.0,
                         16000.0)

#: Default faults-per-epoch histogram bounds.
EPOCH_FAULT_BUCKET_BOUNDS = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
                             200.0, 500.0)


class NullTracer:
    """The do-nothing tracer: the untraced fast path.

    ``enabled`` is False, so instrumented code skips event construction
    entirely; ``emit`` and ``finish`` exist only so a tracer variable can
    be called unconditionally on cold paths.
    """

    enabled = False

    def emit(self, event: TraceEvent) -> None:
        """Discard the event."""

    def finish(self) -> None:
        """Nothing to flush."""


#: Shared do-nothing tracer instance (stateless, safe to share).
NULL_TRACER = NullTracer()


class Tracer:
    """Collects typed events plus derived counters and histograms."""

    enabled = True

    def __init__(
        self,
        epoch_packets: int = DYNAMIC_EPOCH_PACKETS,
        latency_bounds: "tuple[float, ...]" = LATENCY_BUCKET_BOUNDS,
        epoch_fault_bounds: "tuple[float, ...]" = EPOCH_FAULT_BUCKET_BOUNDS,
    ) -> None:
        if epoch_packets < 1:
            raise ValueError("epoch length must be positive")
        self.epoch_packets = epoch_packets
        self.events: "list[TraceEvent]" = []
        self.counters = CounterSet()
        #: Line base address -> detected strikes against that line.
        self.strikes_per_line: "dict[int, int]" = {}
        self.packet_latency = FixedHistogram(latency_bounds)
        self.faults_per_epoch = FixedHistogram(epoch_fault_bounds)
        self._epoch_index = 0
        self._epoch_packet_count = 0
        self._epoch_faults = 0
        self._epoch_detected = 0
        self._epoch_fallbacks = 0
        self._last_cycle = 0.0
        self._last_engine = 0
        self._last_cr = 1.0
        self._finished = False

    # -- event intake ---------------------------------------------------------

    def emit(self, event: TraceEvent) -> None:
        """Record one event and update the derived aggregates."""
        self.events.append(event)
        self.counters.bump(event.kind)
        self._last_cycle = event.cycle
        self._last_engine = event.engine
        cr = getattr(event, "cr", None)
        if cr is not None:
            self._last_cr = cr
        if isinstance(event, PacketDone):
            self.packet_latency.record(event.packet_cycles)
            self._epoch_packet_count += 1
            if self._epoch_packet_count >= self.epoch_packets:
                self._close_epoch(event.cycle, event.engine, event.cr)
        elif isinstance(event, FaultInjected):
            self._epoch_faults += 1
        elif isinstance(event, ParityStrike):
            self._epoch_detected += 1
            self.strikes_per_line[event.line_address] = (
                self.strikes_per_line.get(event.line_address, 0) + 1)
        elif isinstance(event, RecoveryFallback):
            self._epoch_fallbacks += 1
        elif isinstance(event, EpochBoundary):
            self.faults_per_epoch.record(event.faults_injected)

    def finish(self) -> None:
        """Flush the final partial epoch (idempotent)."""
        if self._finished:
            return
        self._finished = True
        if self._epoch_packet_count or self._epoch_faults:
            self._close_epoch(self._last_cycle, self._last_engine,
                              self._last_cr)

    def _close_epoch(self, cycle: float, engine: int, cr: float) -> None:
        boundary = EpochBoundary(
            cycle=cycle, engine=engine, epoch_index=self._epoch_index,
            packets=self._epoch_packet_count,
            faults_injected=self._epoch_faults,
            faults_detected=self._epoch_detected,
            fallbacks=self._epoch_fallbacks, cr=cr)
        self._epoch_index += 1
        self._epoch_packet_count = 0
        self._epoch_faults = 0
        self._epoch_detected = 0
        self._epoch_fallbacks = 0
        self.emit(boundary)

    # -- observers ------------------------------------------------------------

    def events_of(self, event_type: "type[TraceEvent]",
                  ) -> "list[TraceEvent]":
        """Every recorded event of one type, in emission order."""
        return [event for event in self.events
                if isinstance(event, event_type)]

    def count(self, event_type: "type[TraceEvent]") -> int:
        """How many events of one type were recorded."""
        return self.counters.get(event_type.kind)

    @property
    def fatal(self) -> bool:
        """Whether a fatal error was recorded."""
        return self.counters.get(FatalError.kind) > 0
