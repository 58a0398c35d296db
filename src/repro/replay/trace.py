"""Canonical access traces: the replay backend's recorded substrate.

A *trace* is the complete, config-independent record of one fault-free
execution of an (application, workload) pair: every CPU-initiated L1
data access (address, width, read/write), every line fill and
writeback, and every abstract-work charge, in execution order, plus
the packet boundaries and the application's declared static
(branch-relevant) address ranges.  Because the golden execution is a
pure function of the workload identity -- app, packet count, seed,
and the cache geometry -- one trace serves
every (Cr, policy, injector, seed, planes) configuration swept over
that workload: the replayer re-prices the same event stream under each
configuration's clock and protection code and layers a sampled fault
model on top (see :mod:`repro.replay.replayer`).

The :class:`TraceStore` is a per-process memo keyed by the workload
identity (:func:`trace_key`): a sweep records each workload's trace
once and replays it for every config.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.harness.config import ExperimentConfig
from repro.mem.allocator import Region

#: Event kinds, in the ``kind`` array.  WORK charges abstract
#: instructions; READ/WRITE are CPU-initiated L1D accesses; the three
#: traffic kinds record line movement (their ``address`` is the line
#: base address).
KIND_WORK = 0
KIND_READ = 1
KIND_WRITE = 2
KIND_L1_FILL = 3
KIND_L2_FILL = 4
KIND_WRITEBACK = 5

#: Config fields that determine a trace's identity.  Everything else
#: (clock, policy, planes, fault scale, injector, backend) is replay
#: parametrisation and must not fragment the trace cache.
TRACE_IDENTITY_FIELDS = (
    "app",
    "packet_count",
    "seed",
    "l1_size_bytes",
    "l1_associativity",
)


def trace_key(config: ExperimentConfig) -> tuple:
    """The workload identity ``config``'s trace is memoised under."""
    return tuple(getattr(config, name) for name in TRACE_IDENTITY_FIELDS)


@dataclass(frozen=True)
class Trace:
    """One recorded execution as parallel numpy event arrays.

    ``kind``/``address``/``width``/``count``/``static`` are index-aligned
    per event; ``packet_starts[i]`` is the index of packet ``i``'s first
    event (events before ``packet_starts[0]`` belong to the control
    plane, including the quiesce flush's writebacks).  ``count`` is the
    abstract-instruction count for WORK events and the merged byte count
    for bulk-store WRITE events (``width == 1``); it is 1 elsewhere.
    ``static`` marks accesses whose start address falls in a declared
    static (control-plane-built, branch-relevant) region.
    """

    kind: np.ndarray
    address: np.ndarray
    width: np.ndarray
    count: np.ndarray
    static: np.ndarray
    packet_starts: np.ndarray
    offered_packets: int
    regions: "tuple[Region, ...]"
    static_ranges: "tuple[tuple[int, int], ...]"

    @property
    def n_events(self) -> int:
        """Number of recorded events."""
        return len(self.kind)

    def packet_event_start(self, packet: int) -> int:
        """Event index where packet ``packet`` starts (``n_events`` past
        the last packet)."""
        if packet >= self.offered_packets:
            return self.n_events
        return int(self.packet_starts[packet])


class TraceStore:
    """Per-process trace memo: one recording per workload identity."""

    def __init__(self) -> None:
        self._traces: "dict[tuple, Trace]" = {}
        #: Traces recorded (not memo-served) through this store.
        self.recordings = 0

    def get_or_record(self, config: ExperimentConfig) -> Trace:
        """The trace for ``config``, recording it on first use."""
        key = trace_key(config)
        trace = self._traces.get(key)
        if trace is None:
            from repro.replay.record import record_trace
            trace = self._traces[key] = record_trace(config)
            self.recordings += 1
        return trace

    def __len__(self) -> int:
        return len(self._traces)
