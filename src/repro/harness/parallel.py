"""Parallel execution across processes.

The figure sweeps are embarrassingly parallel -- every configuration is an
independent simulation.  :func:`map_parallel` fans a list of items across
worker processes and returns results in input order; the campaign engine
(:class:`repro.harness.engine.CampaignEngine`) runs its chunks through it.
Determinism is unchanged: each result depends only on its input, never on
scheduling.
"""

from __future__ import annotations

import concurrent.futures


def map_parallel(function, items: "list", max_workers: "int | None" = None,
                 ) -> "list":
    """Apply a picklable function to every item, optionally across processes.

    Results come back in input order.  An empty item list returns an
    empty result list (an all-cached campaign has zero missing configs).
    ``max_workers=1`` (or a single item) runs serially in-process --
    same results, no fork overhead; ``None`` lets the executor pick the
    machine's default worker count.  This is the shared fan-out
    primitive behind the campaign engine's chunk execution and the
    CLI's ``--max-workers`` flag.
    """
    if not items:
        return []
    if max_workers is not None and max_workers < 1:
        raise ValueError("max_workers must be positive")
    if max_workers == 1 or len(items) == 1:
        return [function(item) for item in items]
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=max_workers) as executor:
        return list(executor.map(function, items))

