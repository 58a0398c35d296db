"""Typed trace events for the clumsy-cache pipeline.

Every event carries a ``cycle`` timestamp (the emitting engine's processor
cycle count at emission time, so timestamps are monotone per engine), the
``engine`` id (always 0: only single-engine experiments are traced, and
the field stays a column of the exported logs), and -- where it is
meaningful -- the relative cycle time ``cr`` of the L1 data cache at the
moment of the event.  Together the seven event types make the paper's
causal chain inspectable: which access faulted, whether parity caught it,
how many strikes forced an L2 fallback, and when the clock moved.

Events serialise to flat dictionaries (``to_record``) and back
(``from_record``) so an exported JSONL log round-trips losslessly into
the same typed objects.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class TraceEvent:
    """Base class: the fields every trace event carries."""

    #: Short type tag used in exported records.
    kind = "event"

    cycle: float
    engine: int = 0

    def to_record(self) -> "dict[str, object]":
        """Flat, JSON-serialisable representation of this event."""
        record: "dict[str, object]" = {"type": self.kind}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, tuple):
                value = list(value)
            record[spec.name] = value
        return record


@dataclass(frozen=True)
class FaultInjected(TraceEvent):
    """The injector flipped bits in one L1 data-cache access."""

    kind = "fault_injected"

    address: int = 0
    is_write: bool = False
    flip_count: int = 0
    bit_positions: "tuple[int, ...]" = ()
    cr: float = 1.0


@dataclass(frozen=True)
class ParityStrike(TraceEvent):
    """One detected (uncorrectable) failure on an L1 read attempt.

    ``attempt`` counts read attempts on the same access: 1 is the first
    detection, 2 and 3 are strike retries (two-/three-strike policies).
    """

    kind = "parity_strike"

    address: int = 0
    line_address: int = 0
    attempt: int = 1
    cr: float = 1.0


@dataclass(frozen=True)
class RecoveryFallback(TraceEvent):
    """Strike budget exhausted: the suspect L1 copy was discarded.

    ``action`` names the recovery mechanism (see
    :mod:`repro.core.recovery`): whole-line invalidation or footnote 2's
    sub-block refill.  ``words`` is the number of words refetched from the
    L2 (0 for whole-line invalidation, where the next access refills).
    """

    kind = "recovery_fallback"

    address: int = 0
    line_address: int = 0
    action: str = "invalidate-line"
    words: int = 0
    cr: float = 1.0


@dataclass(frozen=True)
class FrequencySwitch(TraceEvent):
    """The L1 data-cache clock changed (10-cycle penalty charged).

    ``reason`` is ``"dynamic"`` (the epoch controller moved) or
    ``"manual"``.
    """

    kind = "frequency_switch"

    previous_cr: float = 1.0
    new_cr: float = 1.0
    reason: str = "manual"


@dataclass(frozen=True)
class EpochBoundary(TraceEvent):
    """Telemetry epoch closed: per-epoch fault/recovery aggregates.

    Emitted by the tracer every ``epoch_packets`` completed packets (and
    once at end of run for the final partial epoch), mirroring the dynamic
    controller's packet-count epochs (paper Section 4).
    """

    kind = "epoch_boundary"

    epoch_index: int = 0
    packets: int = 0
    faults_injected: int = 0
    faults_detected: int = 0
    fallbacks: int = 0
    cr: float = 1.0


@dataclass(frozen=True)
class PacketDone(TraceEvent):
    """One packet finished processing on its engine."""

    kind = "packet_done"

    packet_index: int = 0
    packet_cycles: float = 0.0
    cr: float = 1.0


@dataclass(frozen=True)
class FatalError(TraceEvent):
    """A watchdog trip or wild memory access ended the run (Section 4.1).

    ``packet_index`` is the index of the packet being processed when the
    fatal error struck; packets before it still count as processed.
    """

    kind = "fatal_error"

    packet_index: int = 0
    reason: str = ""
    cr: float = 1.0


#: The seven event types, in pipeline order.
EVENT_TYPES: "tuple[type[TraceEvent], ...]" = (
    FaultInjected, ParityStrike, RecoveryFallback, FrequencySwitch,
    EpochBoundary, PacketDone, FatalError)

_BY_KIND = {event_type.kind: event_type for event_type in EVENT_TYPES}

#: Every field name any event can carry, for flat (CSV) export.
ALL_FIELD_NAMES: "tuple[str, ...]" = tuple(dict.fromkeys(
    spec.name for event_type in EVENT_TYPES
    for spec in fields(event_type)))


def event_type_by_kind(kind: str) -> "type[TraceEvent]":
    """Look up an event class by its record type tag."""
    try:
        return _BY_KIND[kind]
    except KeyError:
        raise ValueError(
            f"unknown event type {kind!r}; "
            f"expected one of {sorted(_BY_KIND)}") from None


def from_record(record: "dict[str, object]") -> TraceEvent:
    """Rebuild the typed event a ``to_record`` dictionary came from."""
    payload = dict(record)
    kind = payload.pop("type", None)
    if not isinstance(kind, str):
        raise ValueError(f"record has no 'type' tag: {record!r}")
    event_type = event_type_by_kind(kind)
    for spec in fields(event_type):
        value = payload.get(spec.name)
        if isinstance(value, list):
            payload[spec.name] = tuple(value)
    return event_type(**payload)
