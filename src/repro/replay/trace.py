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

Traces are content-addressed exactly like experiment results: the key
is the SHA-256 of the :data:`~repro.harness.store.CODE_VERSION` salt
plus the canonical JSON of the workload-identity fields -- bumping the
code version invalidates recorded traces and cached results together.
The :class:`TraceStore` keeps an in-process cache and optionally
persists ``.npz`` archives next to the result store.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.harness.config import ExperimentConfig
from repro.harness.store import CODE_VERSION, canonical_json, writer_temp_path
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


def trace_key(config: ExperimentConfig,
              salt: str = CODE_VERSION) -> str:
    """Content address of the trace ``config``'s workload produces."""
    payload = config.to_json()
    identity = {name: payload[name] for name in TRACE_IDENTITY_FIELDS}
    text = salt + "\n" + canonical_json(identity)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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

    def meta_json(self) -> "dict[str, object]":
        """JSON-safe metadata (everything but the event arrays)."""
        return {
            "offered_packets": self.offered_packets,
            "regions": [{"label": region.label, "address": region.address,
                         "size": region.size} for region in self.regions],
            "static_ranges": [[start, end]
                              for start, end in self.static_ranges],
        }

    def save(self, path: "Path | str") -> Path:
        """Persist as a compressed ``.npz`` archive (atomic replace).

        The archive is written to a writer-unique temp sibling (see
        :func:`~repro.harness.store.writer_temp_path`) and renamed into
        place, so processes saving one trace into a shared cache
        directory never share a temp file; their renames race benignly
        (identical bytes to an identical name).
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        temp = writer_temp_path(path.parent, path.name)
        with open(temp, "wb") as handle:
            np.savez_compressed(
                handle,
                kind=self.kind, address=self.address, width=self.width,
                count=self.count, static=self.static,
                packet_starts=self.packet_starts,
                meta=np.array([json.dumps(self.meta_json())]))
        os.replace(temp, path)
        return path

    @classmethod
    def load(cls, path: "Path | str") -> "Trace":
        """Rebuild a trace from a :meth:`save` archive."""
        with np.load(Path(path), allow_pickle=False) as data:
            meta = json.loads(str(data["meta"][0]))
            return cls(
                kind=data["kind"], address=data["address"],
                width=data["width"], count=data["count"],
                static=data["static"],
                packet_starts=data["packet_starts"],
                offered_packets=int(meta["offered_packets"]),
                regions=tuple(Region(**region)
                              for region in meta["regions"]),
                static_ranges=tuple((int(start), int(end))
                                    for start, end in meta["static_ranges"]),
            )


class TraceStore:
    """Content-addressed trace cache: in-process, optionally on disk.

    Without a directory the store is a per-process memo (the common
    case: one sweep records each workload's trace once and replays it
    for every config).  With a directory -- conventionally
    ``<cache_dir>/traces`` next to the result store -- traces persist
    across processes as ``trace-<digest12>.npz`` archives, written
    atomically like result chunks.
    """

    def __init__(self, directory: "Path | str | None" = None,
                 salt: str = CODE_VERSION) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.salt = salt
        self._traces: "dict[str, Trace]" = {}
        #: Traces recorded (not cache-served) through this store.
        self.recordings = 0

    def key_for(self, config: ExperimentConfig) -> str:
        """This store's content address for ``config``'s trace."""
        return trace_key(config, salt=self.salt)

    def _path_for(self, key: str) -> "Path | None":
        if self.directory is None:
            return None
        return self.directory / f"trace-{key[:12]}.npz"

    def get(self, config: ExperimentConfig) -> "Trace | None":
        """The cached trace for ``config``'s workload, or ``None``."""
        key = self.key_for(config)
        trace = self._traces.get(key)
        if trace is not None:
            return trace
        path = self._path_for(key)
        if path is not None and path.exists():
            try:
                trace = Trace.load(path)
            except (OSError, EOFError, KeyError, ValueError,
                    zipfile.BadZipFile, zlib.error):
                return None  # corrupt archive: re-record
            self._traces[key] = trace
            return trace
        return None

    def put(self, config: ExperimentConfig, trace: Trace) -> None:
        """File ``trace`` under ``config``'s workload identity."""
        key = self.key_for(config)
        self._traces[key] = trace
        path = self._path_for(key)
        if path is not None:
            trace.save(path)

    def get_or_record(self, config: ExperimentConfig) -> Trace:
        """The trace for ``config``, recording it on first use."""
        trace = self.get(config)
        if trace is not None:
            return trace
        from repro.replay.record import record_trace
        trace = record_trace(config)
        self.recordings += 1
        self.put(config, trace)
        return trace

    def clear(self) -> None:
        """Drop the in-process cache (disk archives are kept)."""
        self._traces.clear()

    def __len__(self) -> int:
        return len(self._traces)
