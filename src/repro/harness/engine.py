"""The campaign engine: cached, resumable, parallel experiment sweeps.

Every consumer of multi-config execution -- the figure and table
generators, the cartesian sweeps, the single-fault campaigns, the CLI --
funnels through :class:`CampaignEngine`.  The engine:

1. content-addresses every requested config through the
   :class:`~repro.harness.store.ResultStore` (when one is attached) and
   partitions the request into *cached* and *missing*;
2. fans the missing configs across
   :func:`~repro.harness.parallel.map_parallel` in deterministic,
   input-ordered chunks;
3. persists each chunk atomically as it completes (temp-file + rename),
   so an interrupted campaign loses at most the in-flight chunk and a
   re-run executes only the still-missing configs -- resume is not a
   mode, it is the partition step doing its job;
4. reports progress through the telemetry
   :class:`~repro.telemetry.metrics.CounterSet` (``campaign.configs``,
   ``campaign.cache_hits``, ``campaign.simulated``, ``campaign.chunks``)
   plus an optional ``progress`` callback.

This is the one cached path from configs to results, and it honours
each config's ``backend``.  A run with a tracer or a scripted injector
is uncacheable and goes through
:func:`~repro.harness.experiment.run_experiment` instead.

Determinism is untouched: a result depends only on its config, never on
chunking, scheduling, or whether it came from the store -- the warm-cache
equality tests assert ``repr``-identity between the two paths.
"""

from __future__ import annotations

from repro.harness.config import ExperimentConfig
from repro.harness.experiment import (
    ExperimentResult,
    replay_backend,
    run_experiment,
)
from repro.harness.parallel import map_parallel
from repro.harness.store import ResultStore, config_key
from repro.telemetry.metrics import CounterSet

#: Configs simulated (and then persisted) per atomic store write.  Small
#: enough that a killed sweep rarely loses more than a minute of work,
#: large enough to amortise process fan-out.
DEFAULT_CHUNK_SIZE = 16


def _worker(config: ExperimentConfig) -> ExperimentResult:
    """Picklable chunk worker (module-level for ProcessPoolExecutor)."""
    return run_experiment(config)


class CampaignEngine:
    """Runs lists of configs through the cache/fan-out/persist pipeline."""

    def __init__(
        self,
        store: "ResultStore | None" = None,
        max_workers: "int | None" = 1,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        progress: "object | None" = None,
    ) -> None:
        if chunk_size < 1:
            raise ValueError("chunk size must be positive")
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be positive")
        self.store = store
        self.max_workers = max_workers
        self.chunk_size = chunk_size
        self.counters = CounterSet()
        #: Optional callable(str) receiving one line per completed chunk.
        self.progress = progress

    # -- the public run API ---------------------------------------------------

    def run(self, configs: "list[ExperimentConfig]",
            refresh: bool = False) -> "list[ExperimentResult]":
        """Run every config (cache-first), returning results in input order.

        Duplicate configs (same content address) simulate once and share
        the result.  An empty list -- e.g. an all-cached campaign after
        partitioning elsewhere -- returns an empty list.

        ``refresh=True`` skips the cache-read partition and re-simulates
        every config, still persisting the fresh results (overwriting in
        place, since the content address is unchanged).  The differential
        oracle uses this to compare stored bytes against a forced
        re-simulation without clearing the store.
        """
        self.counters.bump("campaign.runs")
        self.counters.bump("campaign.configs", len(configs))
        if refresh:
            self.counters.bump("campaign.refreshed", len(configs))
        if not configs:
            return []
        keys = [self._key(config) for config in configs]
        resolved: "dict[str, ExperimentResult]" = {}
        missing: "dict[str, ExperimentConfig]" = {}
        for key, config in zip(keys, configs):
            if key in resolved or key in missing:
                continue
            cached = (None if refresh or self.store is None
                      else self.store.get(key))
            if cached is not None:
                resolved[key] = cached
                self.counters.bump("campaign.cache_hits")
            else:
                missing[key] = config
        self.counters.bump("campaign.missing", len(missing))
        pending = list(missing.items())
        done = 0
        for start in range(0, len(pending), self.chunk_size):
            chunk = pending[start:start + self.chunk_size]
            outcomes = self._simulate_chunk(
                [config for _, config in chunk])
            if self.store is not None:
                self.store.put_many(outcomes)
            for (key, _), outcome in zip(chunk, outcomes):
                resolved[key] = outcome
            self.counters.bump("campaign.simulated", len(chunk))
            self.counters.bump("campaign.chunks")
            done += len(chunk)
            hits = self.counters.get("campaign.cache_hits")
            self._report(f"campaign: {done}/{len(pending)} simulated "
                         f"({hits} cached)")
        return [resolved[key] for key in keys]

    def _simulate_chunk(
            self,
            configs: "list[ExperimentConfig]") -> "list[ExperimentResult]":
        """Simulate one chunk, dispatching each config's backend.

        The ``execute`` group keeps the process-pool fan-out; the
        ``replay`` group goes to the replay backend in one call (it
        amortises trace loading across the batch).  Results come back
        index-aligned with ``configs``.
        """
        outcomes: "list[ExperimentResult | None]" = [None] * len(configs)
        by_backend: "dict[str, list[int]]" = {}
        for index, config in enumerate(configs):
            by_backend.setdefault(config.backend, []).append(index)
        for backend, indices in by_backend.items():
            batch = [configs[index] for index in indices]
            if backend == "execute":
                results = map_parallel(_worker, batch,
                                       max_workers=self.max_workers)
            else:
                results = replay_backend().run_replay(batch)
            for index, result in zip(indices, results):
                outcomes[index] = result
        return outcomes  # type: ignore[return-value]

    # -- reporting ------------------------------------------------------------

    def summary(self) -> str:
        """One-line progress/result summary (stable ``name=value`` pairs)."""
        names = ("configs", "cache_hits", "simulated", "chunks")
        return "campaign: " + " ".join(
            f"{name}={self.counters.get('campaign.' + name)}"
            for name in names)

    def _key(self, config: ExperimentConfig) -> str:
        if self.store is not None:
            return self.store.key_for(config)
        return config_key(config)

    def _report(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)


#: Shared uncached, serial engine: the default execution path for the
#: figure/table/sweep consumers when no engine is passed explicitly.
_DEFAULT_ENGINE = CampaignEngine()


def default_engine() -> CampaignEngine:
    """The process-wide default engine (no store, serial, no progress)."""
    return _DEFAULT_ENGINE
