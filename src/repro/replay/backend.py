"""The ``replay`` execution backend: record once, re-price per config.

The harness reaches this module by name, through
:func:`~repro.harness.experiment.replay_backend`, since replay sits
above it in the layer DAG: the campaign engine hands it each chunk's
``backend="replay"`` configs (:func:`run_replay`), and the golden
cache warms a workload's trace on a miss (:func:`warm`).  A batch of
configs is served trace-first: each config's workload trace is
recorded (or fetched from the :class:`~repro.replay.trace.TraceStore`)
and handed to :func:`~repro.replay.replayer.replay_trace`; configs the
replayer declines -- a static refusal
(:func:`~repro.replay.replayer.decline_reason`) or a sampled fault
reaching a branched-on value -- fall back transparently to the
faithful :func:`~repro.harness.experiment.run_experiment`, so the
backend is *always correct* and merely usually fast.  Each fallback
bumps the caller's ``replay.fallback.<reason>`` counter (reasons in
:data:`~repro.harness.config.FALLBACK_REASONS`).

The module-level trace store is one in-memory memo per process.
"""

from __future__ import annotations

from repro.harness.config import ExperimentConfig
from repro.harness.experiment import ExperimentResult, run_experiment
from repro.replay.replayer import decline_reason, replay_trace
from repro.replay.trace import TraceStore

_TRACE_STORE = TraceStore()


def trace_store() -> TraceStore:
    """The process-wide trace store the replay backend records into."""
    return _TRACE_STORE


def set_trace_store(store: TraceStore) -> TraceStore:
    """Swap the process-wide trace store (returns the previous one).

    Tests call this with a scratch store for isolation.
    """
    global _TRACE_STORE
    previous = _TRACE_STORE
    _TRACE_STORE = store
    return previous


def warm(config: ExperimentConfig) -> None:
    """Record (or fetch) ``config``'s trace before its golden run.

    :func:`~repro.harness.experiment.golden_observations` calls this on
    a golden-cache miss: a fresh recording adopts its observations as
    the golden ones, so the workload runs fault-free once whichever of
    trace and golden run is asked for first.
    """
    _TRACE_STORE.get_or_record(config)


def run_replay(configs: "list[ExperimentConfig]",
               counters: "CounterSet") -> "list[ExperimentResult]":
    """The backend entry point (index-aligned results).

    Each config replays over its workload's recorded trace; ``None``
    from the replayer (divergence or an unsupported fault mode) falls
    back to faithful execution of that config alone, and bumps
    ``counters``' ``replay.fallback.<reason>``.  ``counters`` is a
    :class:`repro.telemetry.metrics.CounterSet`, named here only as a
    string: the layer DAG keeps replay from importing telemetry.
    """
    results: "list[ExperimentResult]" = []
    for config in configs:
        trace = _TRACE_STORE.get_or_record(config)
        result = replay_trace(trace, config)
        if result is None:
            reason = decline_reason(config) or "diverged"
            counters.bump(f"replay.fallback.{reason}")
            result = run_experiment(config)
        results.append(result)
    return results
