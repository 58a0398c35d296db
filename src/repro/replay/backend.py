"""The ``replay`` execution backend: record once, re-price per config.

Registered under :data:`repro.harness.backends.BACKEND_NAMES` as
``"replay"`` and imported lazily by
:func:`~repro.harness.backends.backend_runner` on first dispatch.  A
batch of configs is served trace-first: each config's workload trace is
recorded (or fetched from the :class:`~repro.replay.trace.TraceStore`)
and handed to :func:`~repro.replay.replayer.replay_trace`; configs the
replayer declines -- a static refusal
(:func:`~repro.replay.replayer.decline_reason`) or a sampled fault
reaching a branched-on value -- fall back transparently to the
faithful :func:`~repro.harness.experiment.run_experiment`, so the
backend is *always correct* and merely usually fast.  Each fallback is
counted under its reason (:func:`fallback_reasons`).

The module-level trace store is process-wide by default (in-memory
memo); the CLI points it at ``<cache_dir>/traces`` so traces persist
next to the result store.
"""

from __future__ import annotations

from pathlib import Path

from repro.harness.backends import register_backend
from repro.harness.config import ExperimentConfig
from repro.harness.experiment import ExperimentResult, run_experiment
from repro.replay.replayer import decline_reason, replay_trace
from repro.replay.trace import TraceStore

_TRACE_STORE = TraceStore()

#: Why a config falls back: the static refusals of
#: :func:`~repro.replay.replayer.decline_reason`, then ``"diverged"``
#: (a sampled fault the replayer cannot bound).
FALLBACK_REASONS = ("l2-fill", "burst", "diverged")

#: Fallbacks (configs the replayer declined) since process start, by
#: reason -- observability for the perf lane and the oracle.
_FALLBACKS = dict.fromkeys(FALLBACK_REASONS, 0)


def trace_store() -> TraceStore:
    """The process-wide trace store the replay backend records into."""
    return _TRACE_STORE


def set_trace_store(store: TraceStore) -> TraceStore:
    """Swap the process-wide trace store (returns the previous one).

    The CLI calls this with a disk-backed store when ``--cache-dir``
    is given; tests call it with a scratch store for isolation.
    """
    global _TRACE_STORE
    previous = _TRACE_STORE
    _TRACE_STORE = store
    return previous


def configure_backend(cache_dir: "str | None") -> None:
    """Point trace persistence at ``<cache_dir>/traces`` (or memory).

    The hook :func:`repro.harness.backends.configure_backend` resolves
    by name: with a cache directory, recorded traces live on disk next
    to the result store and survive across processes; without one, the
    store reverts to the in-memory process-wide memo.
    """
    if cache_dir is None:
        set_trace_store(TraceStore())
    else:
        set_trace_store(TraceStore(Path(cache_dir) / "traces"))


def warm(config: ExperimentConfig) -> None:
    """Record (or fetch) ``config``'s trace before its golden run.

    The hook :func:`repro.harness.backends.warm_backend` resolves by
    name on a golden-cache miss: a fresh recording adopts its
    observations as the golden ones, so the workload runs fault-free
    once whichever of trace and golden run is asked for first.
    """
    _TRACE_STORE.get_or_record(config)


def fallback_reasons() -> "dict[str, int]":
    """Replay requests served by faithful execution since process start,
    per reason (every reason of :data:`FALLBACK_REASONS`, in order)."""
    return dict(_FALLBACKS)


def fallback_count() -> int:
    """Replay requests served by faithful execution since process start."""
    return sum(_FALLBACKS.values())


def run_replay(
        configs: "list[ExperimentConfig]") -> "list[ExperimentResult]":
    """The registered backend entry point (index-aligned results).

    Each config replays over its workload's recorded trace; ``None``
    from the replayer (divergence or an unsupported fault mode) falls
    back to faithful execution of that config alone, counted under its
    reason.
    """
    results: "list[ExperimentResult]" = []
    for config in configs:
        trace = _TRACE_STORE.get_or_record(config)
        result = replay_trace(trace, config)
        if result is None:
            _FALLBACKS[decline_reason(config) or "diverged"] += 1
            result = run_experiment(config)
        results.append(result)
    return results


register_backend("replay", run_replay)
