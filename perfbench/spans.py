"""Call-time spans around the simulator's layer boundaries.

The benchmark records spans from its own files: :func:`instrument`
replaces the module and class attributes each layer calls through with
timing wrappers and puts the originals back on exit.  The wrappers keep
every span in memory (name, start, end, parent, request id) and read
exact counts from what the wrapped call returns -- a ``RunOutcome`` from
the kernel, a ``Trace`` from the trace store, ``None`` from a declined
replay.  Nothing inside ``src/repro`` changes, so an untraced sweep runs
the program exactly as users run it.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    """One wrapped call."""

    span_id: int
    name: str
    parent: "int | None"
    request: "str | None"
    start: float
    end: float = 0.0
    counts: "dict[str, int]" = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span stack for one serial process."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self._stack: "list[Span]" = []
        #: Config object id -> content address, filled by the store's
        #: ``key_for`` wrapper and used as the request id of later spans.
        self.request_ids: "dict[int, str]" = {}

    def open(self, name: str, request: "str | None") -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), name, parent, request,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def request_for(self, config: object) -> "str | None":
        return self.request_ids.get(id(config))

    def self_times(self) -> "list[float]":
        """Each span's duration minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        return [span.duration - child_time[span.span_id]
                for span in self.spans]

    def write_jsonl(self, handle, sweep: int) -> None:
        """One JSON object per span, in start order."""
        for span in self.spans:
            handle.write(json.dumps({
                "sweep": sweep, "id": span.span_id, "parent": span.parent,
                "name": span.name, "request": span.request,
                "start": span.start, "end": span.end,
                "counts": span.counts}, sort_keys=True) + "\n")


def _kernel_counts(span: Span, args, outcome) -> None:
    hierarchy = outcome.hierarchy
    span.counts = {
        "l1d_accesses": hierarchy.l1d.stats.accesses,
        "fast_lane_accesses": hierarchy.fast_reads + hierarchy.fast_writes,
        "injected_faults": hierarchy.injector.stats.total,
        "detected_faults": hierarchy.detected_faults,
    }


def _trace_counts(span: Span, args, trace) -> None:
    arrays = (trace.kind, trace.address, trace.width, trace.count,
              trace.static, trace.packet_starts)
    span.counts = {"trace_id": id(trace), "events": trace.n_events,
                   "bytes": sum(int(array.nbytes) for array in arrays)}


def _price_counts(span: Span, args, result) -> None:
    span.counts = {"events": args[0].n_events,
                   "declined": int(result is None)}


def _put_counts(span: Span, args, path) -> None:
    span.counts = {"bytes": path.stat().st_size if path is not None else 0}


def _wrap(recorder: SpanRecorder, name: str, function, request_of,
          after=None):
    """A wrapper recording one span per call of ``function``; ``after``
    reads counts from the call's arguments and result into the span."""
    def wrapper(*args, **kwargs):
        span = recorder.open(name, request_of(args))
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.close(span)
        if after is not None:
            after(span, args, result)
        return result
    return wrapper


@contextmanager
def instrument(recorder: SpanRecorder):
    """Wrap every layer boundary the Figures 9-12 sweep calls through."""
    from repro.harness import engine, experiment, figures, store
    from repro.replay import backend, trace

    def none(args):
        return None

    def config_arg(index):
        return lambda args: (recorder.request_for(args[index])
                             if len(args) > index else None)

    def remember_key(span, args, key):
        span.request = key
        recorder.request_ids[id(args[1])] = key

    targets = [
        (figures, "edf_products", "figures.edf_products", none, None),
        (engine.CampaignEngine, "run", "engine.run", none, None),
        (engine, "run_experiment", "experiment.run_experiment",
         config_arg(0), None),
        (experiment, "load_workload", "experiment.load_workload",
         config_arg(0), None),
        (experiment, "golden_observations", "experiment.golden_observations",
         config_arg(1), None),
        (experiment, "execute_workload", "experiment.execute_workload",
         config_arg(1), _kernel_counts),
        (backend, "replay_trace", "replay.replay_trace", config_arg(1),
         _price_counts),
        (backend, "run_experiment", "replay.fallback", config_arg(0), None),
        (trace.TraceStore, "get_or_record", "replay.get_or_record",
         config_arg(1), _trace_counts),
        (store.ResultStore, "key_for", "store.key_for", none, remember_key),
        (store.ResultStore, "put_many", "store.put_many", none, _put_counts),
    ]
    originals = []
    for owner, attribute, name, request_of, after in targets:
        function = getattr(owner, attribute)
        originals.append((owner, attribute, function))
        setattr(owner, attribute,
                _wrap(recorder, name, function, request_of, after))
    try:
        yield recorder
    finally:
        for owner, attribute, function in reversed(originals):
            setattr(owner, attribute, function)
