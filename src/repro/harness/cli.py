"""Command-line entry point: regenerate any paper artifact by id.

Usage::

    python -m repro table1
    python -m repro fig5
    python -m repro fig9a --packets 300 --seeds 7,11,23
    python -m repro all --max-workers 4 --cache-dir .repro-cache
    python -m repro fig12b --injector geometric
    python -m repro fig9a --backend replay
    python -m repro trace route --packets 200
    python -m repro lint --format json

Experiment ids follow DESIGN.md's experiment index.  ``trace`` is a
subcommand (see :mod:`repro.harness.tracecmd`): it runs one traced
experiment and exports its telemetry event log.  ``lint`` runs
reprolint, the AST-based invariant linter (see :mod:`repro.analysis`).

Caching: ``--cache-dir PATH`` routes every simulation through the
content-addressed result store (see :mod:`repro.harness.store`), so a
repeated or interrupted invocation re-runs only configs the store does
not already hold: resuming an interrupted sweep is re-running the same
command.  Without ``--cache-dir`` a run is uncached.  A one-line
campaign summary (``configs= cache_hits= simulated= chunks=``) is
printed to stderr whenever caching is active -- CI asserts
``simulated=0`` on the second of two identical runs.  Under
``--backend replay`` a second stderr line counts the configs that fell
back to faithful execution, by reason
(``replay fallbacks: l2-fill= burst= diverged=``),
summed over every job.

Backends: ``--backend {execute,replay}`` selects how configs become
results (see :data:`~repro.harness.config.BACKEND_NAMES`); replay's
recorded traces live in each process's memory, so ``--cache-dir``
holds results only.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from repro.harness import figures, tables
from repro.harness.config import BACKEND_NAMES, FALLBACK_REASONS
from repro.harness.engine import CampaignEngine
from repro.harness.parallel import map_parallel
from repro.harness.store import ResultStore
from repro.mem.faults import INJECTOR_NAMES


def _analytic(render):
    """A table entry for an analytic figure: it runs no simulation, so
    it ignores the run options."""
    return lambda **options: render()


#: Paper artifact id (DESIGN.md's experiment index) -> renderer taking
#: the run options as keywords: ``packet_count``, ``seeds``, ``engine``,
#: ``injector`` and ``backend``.
ARTIFACTS = {
    "table1": lambda **options: tables.render_table1(
        tables.table1(**options)),
    "fig1b": _analytic(figures.render_fig1b),
    "fig2b": _analytic(figures.render_fig2b),
    "fig3": _analytic(figures.render_fig3),
    "fig4": _analytic(figures.render_fig4),
    "fig5": _analytic(figures.render_fig5),
    "fig6": partial(figures.render_error_behavior, "route",
                    "Figure 6: error probability"),
    "fig7": partial(figures.render_error_behavior, "nat",
                    "Figure 7: error probability"),
    "fig8": lambda **options: figures.render_fig8_from(
        figures.fig8_fatal_probabilities(**options)),
    "fig9a": partial(figures.render_edf, "route", "Figure 9(a)"),
    "fig9b": partial(figures.render_edf, "crc", "Figure 9(b)"),
    "fig10a": partial(figures.render_edf, "md5", "Figure 10(a)"),
    "fig10b": partial(figures.render_edf, "tl", "Figure 10(b)"),
    "fig11a": partial(figures.render_edf, "drr", "Figure 11(a)"),
    "fig11b": partial(figures.render_edf, "nat", "Figure 11(b)"),
    "fig12a": partial(figures.render_edf, "url", "Figure 12(a)"),
    "fig12b": figures.render_average_edf,
}


def _build_engine(cache_dir: "str | None",
                  max_workers: "int | None") -> CampaignEngine:
    """One engine per process, from the picklable job spec."""
    store = ResultStore(cache_dir) if cache_dir is not None else None
    return CampaignEngine(store=store, max_workers=max_workers)


def _render_job(job: "tuple[str, int, tuple[int, ...], str | None, int, "
                     "str, str]") -> "tuple[str, dict[str, int]]":
    """Render one artifact id (picklable worker for --max-workers).

    Returns the artifact text plus the job engine's counter snapshot,
    replay fallbacks included, so the parent can sum a campaign summary
    across processes.
    """
    name, packets, seeds, cache_dir, engine_workers, injector, backend = job
    engine = _build_engine(cache_dir, engine_workers)
    output = ARTIFACTS[name](packet_count=packets, seeds=seeds,
                             engine=engine, injector=injector,
                             backend=backend)
    return output, engine.counters.snapshot()


def main(argv: "list[str] | None" = None) -> int:
    """argparse entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "trace":
        from repro.harness import tracecmd
        return tracecmd.main(argv[1:])
    if argv and argv[0] == "lint":
        from repro.analysis.cli import main as lint_main
        return lint_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate artifacts of 'A Case for Clumsy Packet "
                    "Processors' (MICRO-37, 2004)")
    parser.add_argument("experiment",
                        choices=sorted(ARTIFACTS) + ["all", "trace", "lint"],
                        help="experiment id from DESIGN.md, 'all', "
                             "'trace <app>' (traced run + event log), or "
                             "'lint' (reprolint static analysis)")
    parser.add_argument("--packets", type=int, default=300,
                        help="packets per simulated run (default 300)")
    parser.add_argument("--seeds", default="7,11,23",
                        help="comma-separated replica seeds")
    parser.add_argument("--max-workers", type=int, default=1,
                        help="processes for multi-experiment runs "
                             "(default 1 = serial; experiments are "
                             "independent, so output is order-stable)")
    parser.add_argument("--cache-dir", default=None, metavar="PATH",
                        help="content-addressed result store: reuse any "
                             "result already present, persist the rest "
                             "(atomic per-chunk writes)")
    parser.add_argument("--injector", choices=sorted(INJECTOR_NAMES),
                        default="reference",
                        help="fault-sampling implementation: 'reference' "
                             "draws per access (matches the golden "
                             "snapshots bit for bit), 'geometric' "
                             "skip-samples inter-fault gaps (same fault "
                             "law, several times faster; see "
                             "EXPERIMENTS.md for comparability)")
    parser.add_argument(
        "--backend", choices=sorted(BACKEND_NAMES), default="execute",
        help="execution backend: 'execute' runs every config through "
             "the faithful Python kernel; 'replay' records one "
             "fault-free access trace per workload and re-prices each "
             "(Cr, policy, injector, seed) config over it with a "
             "vectorized fault/recovery/energy pipeline, falling back "
             "to faithful execution for configs it cannot model "
             "(default execute)")
    args = parser.parse_args(argv)
    seeds = tuple(int(part) for part in args.seeds.split(","))
    names = sorted(ARTIFACTS) if args.experiment == "all" else [args.experiment]
    # Two fan-out levels exist: across experiment ids and across one
    # campaign's chunks.  Give --max-workers to whichever level has the
    # parallelism (chunk-level for a single id, job-level for 'all').
    job_workers = args.max_workers if len(names) > 1 else 1
    engine_workers = args.max_workers if len(names) == 1 else 1
    jobs = [(name, args.packets, seeds, args.cache_dir, engine_workers,
             args.injector, args.backend)
            for name in names]
    totals: "dict[str, int]" = {}
    for output, counters in map_parallel(_render_job, jobs,
                                         max_workers=job_workers):
        print(output)
        print()
        for counter, value in counters.items():
            totals[counter] = totals.get(counter, 0) + value
    if args.cache_dir is not None:
        summary = " ".join(
            f"{name.split('.', 1)[1]}={totals.get(name, 0)}"
            for name in ("campaign.configs", "campaign.cache_hits",
                         "campaign.simulated", "campaign.chunks"))
        print(f"campaign: {summary} (cache: {args.cache_dir})",
              file=sys.stderr)
    if args.backend == "replay":
        print("replay fallbacks: " + " ".join(
            f"{reason}={totals.get('replay.fallback.' + reason, 0)}"
            for reason in FALLBACK_REASONS), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
