"""Telemetry: structured event tracing for the clumsy-cache pipeline.

The paper's argument rests on *when and where* faults strike -- which
access flipped a bit, whether parity caught it, how many strikes forced an
L2 fallback, when the dynamic controller moved ``Cr``.  This package makes
that causal chain inspectable:

* typed events (:mod:`repro.telemetry.events`) with cycle timestamps,
  engine id, address/line, and the ``Cr`` in force at the event;
* a :class:`Tracer` collecting events plus counters and fixed-bucket
  histograms, and a :class:`NullTracer` fast path that keeps the
  instrumented hot loops free when tracing is off
  (:mod:`repro.telemetry.tracer`);
* JSONL/CSV exporters with lossless JSONL round-trip
  (:mod:`repro.telemetry.export`);
* terminal timeline and per-epoch reports (:mod:`repro.telemetry.report`).

Attach a tracer through :class:`repro.harness.config.ExperimentConfig`
(``tracer=``) or drive everything from the CLI::

    python -m repro trace route --packets 200
"""

from repro.telemetry.events import (
    ALL_FIELD_NAMES,
    EVENT_TYPES,
    EpochBoundary,
    FatalError,
    FaultInjected,
    FrequencySwitch,
    PacketDone,
    ParityStrike,
    RecoveryFallback,
    TraceEvent,
    event_type_by_kind,
    from_record,
)
from repro.telemetry.export import read_jsonl, write_csv, write_jsonl
from repro.telemetry.metrics import CounterSet, FixedHistogram
from repro.telemetry.report import (
    epoch_report,
    render_trace_report,
    timeline_summary,
)
from repro.telemetry.tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "ALL_FIELD_NAMES",
    "CounterSet",
    "EVENT_TYPES",
    "EpochBoundary",
    "FatalError",
    "FaultInjected",
    "FixedHistogram",
    "FrequencySwitch",
    "NULL_TRACER",
    "NullTracer",
    "PacketDone",
    "ParityStrike",
    "RecoveryFallback",
    "TraceEvent",
    "Tracer",
    "epoch_report",
    "event_type_by_kind",
    "from_record",
    "read_jsonl",
    "render_trace_report",
    "timeline_summary",
    "write_csv",
    "write_jsonl",
]
