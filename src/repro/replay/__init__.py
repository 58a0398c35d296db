"""Trace-capture + replay execution backend.

Records one canonical access trace per (application, workload) pair by
running the real kernel fault-free (:mod:`repro.replay.record`), stores
it content-addressed next to the result store
(:mod:`repro.replay.trace`), and sweeps (Cr, policy, injector, seed)
configurations over the recorded stream with a vectorized
fault/recovery/energy pipeline (:mod:`repro.replay.replayer`).  The
``"replay"`` entry in :data:`repro.harness.config.BACKEND_NAMES`
resolves here (:mod:`repro.replay.backend`); configs the replayer
cannot model fall back to faithful execution.
"""

from repro.replay.backend import (
    fallback_count,
    fallback_reasons,
    run_replay,
    set_trace_store,
    trace_store,
)
from repro.replay.record import RecordingError, record_trace
from repro.replay.replayer import replay_trace
from repro.replay.trace import Trace, TraceStore, trace_key

__all__ = [
    "RecordingError",
    "Trace",
    "TraceStore",
    "fallback_count",
    "fallback_reasons",
    "record_trace",
    "replay_trace",
    "run_replay",
    "set_trace_store",
    "trace_key",
    "trace_store",
]
