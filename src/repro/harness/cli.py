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
    python -m repro check --quick

Experiment ids follow DESIGN.md's experiment index.  ``trace`` is a
subcommand (see :mod:`repro.harness.tracecmd`): it runs one traced
experiment and exports its telemetry event log.  ``lint`` runs
reprolint, the AST-based invariant linter (see :mod:`repro.analysis`).
``check`` runs the verification oracle (see :mod:`repro.oracle` and
docs/VERIFICATION.md) -- it is dispatched by :mod:`repro.__main__`, not
here, because the oracle layer sits above the harness and this module
must not import it.

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
results (see :data:`~repro.harness.config.BACKEND_NAMES`); with
``--cache-dir``, replay's recorded traces persist under
``<cache_dir>/traces`` next to the result store.
"""

from __future__ import annotations

import argparse
import sys

from repro.harness import figures, tables
from repro.harness.config import BACKEND_NAMES
from repro.harness.engine import CampaignEngine
from repro.harness.experiment import replay_backend
from repro.harness.parallel import map_parallel
from repro.harness.store import ResultStore
from repro.mem.faults import INJECTOR_NAMES

def _edf_renderer(app: str, figure_name: str):
    def render(packets: int, seeds: "tuple[int, ...]",
               engine: CampaignEngine, injector: str, backend: str) -> str:
        return figures.render_edf(app, figure_name, packet_count=packets,
                                  seeds=seeds, engine=engine,
                                  injector=injector, backend=backend)
    return render


def _experiment_renderers() -> "dict[str, object]":
    """Experiment id -> callable(packets, seeds, engine, injector,
    backend) -> str.

    The analytic artifacts (fig1b-fig5, ext_dvs) and the non-config-
    shaped multicore extension accept and ignore the injector and
    backend arguments.
    """
    return {
        "table1": lambda packets, seeds, engine, injector, backend:
            tables.render_table1(tables.table1(
                packet_count=packets, seeds=seeds, engine=engine,
                injector=injector, backend=backend)),
        "fig1b": lambda packets, seeds, engine, injector, backend:
            figures.render_fig1b(),
        "fig2b": lambda packets, seeds, engine, injector, backend:
            figures.render_fig2b(),
        "fig3": lambda packets, seeds, engine, injector, backend:
            figures.render_fig3(),
        "fig4": lambda packets, seeds, engine, injector, backend:
            figures.render_fig4(),
        "fig5": lambda packets, seeds, engine, injector, backend:
            figures.render_fig5(),
        "fig6": lambda packets, seeds, engine, injector, backend:
            figures.fig6_route_errors(
                packet_count=packets, seeds=seeds, engine=engine,
                injector=injector, backend=backend),
        "fig7": lambda packets, seeds, engine, injector, backend:
            figures.fig7_nat_errors(
                packet_count=packets, seeds=seeds, engine=engine,
                injector=injector, backend=backend),
        "fig8": lambda packets, seeds, engine, injector, backend:
            figures.render_fig8(
                packet_count=packets, seeds=seeds, engine=engine,
                injector=injector, backend=backend),
        "fig9a": _edf_renderer("route", "Figure 9(a)"),
        "fig9b": _edf_renderer("crc", "Figure 9(b)"),
        "fig10a": _edf_renderer("md5", "Figure 10(a)"),
        "fig10b": _edf_renderer("tl", "Figure 10(b)"),
        "fig11a": _edf_renderer("drr", "Figure 11(a)"),
        "fig11b": _edf_renderer("nat", "Figure 11(b)"),
        "fig12a": _edf_renderer("url", "Figure 12(a)"),
        "fig12b": lambda packets, seeds, engine, injector, backend:
            figures.render_average_edf(
                packet_count=packets, seeds=seeds, engine=engine,
                injector=injector, backend=backend),
        "ext_optimum": _render_optimum,
        "ext_dvs": lambda packets, seeds, engine, injector, backend:
            _render_dvs(),
        "ext_multicore": _render_multicore,
        "ext_anatomy": _render_anatomy,
    }


def _render_optimum(packets: int, seeds: "tuple[int, ...]",
                    engine: CampaignEngine, injector: str,
                    backend: str) -> str:
    """Analytic operating-point prediction per application."""
    from repro.core.optimum import OperatingPointModel
    from repro.core.recovery import NO_DETECTION
    from repro.core.constants import NETBENCH_APPS
    from repro.harness.config import ExperimentConfig
    from repro.harness.profile import profile_workload
    from repro.harness.report import render_table

    observed_runs = engine.run([ExperimentConfig(
        app=app, packet_count=packets, seed=seeds[0], cycle_time=0.25,
        policy=NO_DETECTION, fault_scale=20.0,
        injector=injector, backend=backend) for app in NETBENCH_APPS])
    rows = []
    for app, observed in zip(NETBENCH_APPS, observed_runs):
        profile = profile_workload(app, packet_count=packets, seed=seeds[0])
        model = OperatingPointModel(
            profile, policy=NO_DETECTION, fault_scale=20.0,
        ).calibrate_conversion(observed.fallibility, 0.25)
        best = model.optimum()
        baseline = model.predict(1.0)
        rows.append([app, round(best.cycle_time, 2),
                     round(best.product / baseline.product, 3),
                     round(model.error_conversion, 2)])
    return render_table(
        "Analytic operating-point prediction (calibrated at Cr=0.25, "
        "no detection)",
        ["app", "optimal Cr", "rel EDF^2 at optimum", "errors/fault"],
        rows)


def _render_dvs() -> str:
    """Clumsy over-clocking vs DVS comparison table."""
    from repro.core.dvs import compare_techniques
    from repro.harness.report import render_table

    rows = []
    for frequency in (1.0, 4 / 3, 2.0, 4.0):
        clumsy, dvs = compare_techniques(frequency)
        rows.append([f"{frequency:.2f}x",
                     round(clumsy.relative_access_energy, 3),
                     round(clumsy.fault_multiplier, 1),
                     round(dvs.relative_access_energy, 3)])
    return render_table(
        "Clumsy over-clocking vs DVS at equal cache speed",
        ["speed", "clumsy energy", "clumsy fault x", "dvs energy"], rows)


def _render_multicore(packets: int, seeds: "tuple[int, ...]",
                      engine: CampaignEngine, injector: str,
                      backend: str) -> str:
    """Engine-count scaling table (multicore runs are not config-shaped,
    so the injector and backend selections do not apply and are
    ignored)."""
    from repro.core.recovery import TWO_STRIKE
    from repro.harness.report import render_table
    from repro.system.multicore import run_multicore

    rows = []
    for engines in (1, 2, 4, 8):
        result = run_multicore(
            "route", core_count=engines, packet_count=packets,
            seed=seeds[0], cycle_time=0.5, policy=TWO_STRIKE,
            fault_scale=20.0)
        rows.append([engines, round(result.delay_per_packet, 1),
                     round(result.total_energy),
                     round(result.l2_miss_rate, 4),
                     result.wedged_engines])
    return render_table(
        "Multi-engine scaling (route, Cr=0.5, two-strike)",
        ["engines", "makespan cyc/pkt", "energy", "L2 miss rate",
         "wedged"], rows)


def _render_anatomy(packets: int, seeds: "tuple[int, ...]",
                    engine: CampaignEngine, injector: str,
                    backend: str) -> str:
    """Fault attribution for the route application."""
    from repro.core.recovery import NO_DETECTION
    from repro.harness.config import ExperimentConfig
    from repro.harness.vulnerability import (
        attribute_faults,
        render_vulnerability,
    )

    runs = engine.run([ExperimentConfig(
        app="route", packet_count=packets, seed=seed, cycle_time=0.25,
        policy=NO_DETECTION, fault_scale=20.0, planes="data",
        injector=injector, backend=backend)
        for seed in seeds])
    sites = []
    regions = None
    errors = 0
    faults = 0
    for run in runs:
        sites.extend(run.fault_sites)
        regions = run.regions
        errors += run.erroneous_packets
        faults += run.injected_faults
    rows, unattributed = attribute_faults(sites, regions)
    return render_vulnerability(
        "Fault anatomy (route, Cr=0.25, data plane)",
        rows, unattributed, errors, faults)


def _build_engine(cache_dir: "str | None",
                  max_workers: "int | None") -> CampaignEngine:
    """One engine per process, from the picklable job spec."""
    store = ResultStore(cache_dir) if cache_dir is not None else None
    return CampaignEngine(store=store, max_workers=max_workers)


def _render_job(job: "tuple[str, int, tuple[int, ...], str | None, int, "
                     "str, str]",
                ) -> "tuple[str, dict[str, int], dict[str, int]]":
    """Render one experiment id (picklable worker for --max-workers).

    Returns the artifact text plus the job engine's counter snapshot and
    the replay backend's fallbacks during the job, by reason (empty under
    ``execute``), so the parent can aggregate a campaign summary across
    processes.
    """
    name, packets, seeds, cache_dir, engine_workers, injector, backend = job
    render = _experiment_renderers()[name]
    engine = _build_engine(cache_dir, engine_workers)
    if backend == "execute":
        output = render(packets, seeds, engine, injector, backend)
        return output, engine.counters.snapshot(), {}
    replay = replay_backend()
    # Re-applied per worker process: spawned workers do not inherit the
    # parent's trace-store configuration.
    replay.configure_backend(cache_dir)
    before = replay.fallback_reasons()
    output = render(packets, seeds, engine, injector, backend)
    fallbacks = {reason: count - before[reason]
                 for reason, count in replay.fallback_reasons().items()}
    return output, engine.counters.snapshot(), fallbacks


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
    if argv and argv[0] == "check":
        # Layering: the oracle imports the harness, never the reverse.
        print("repro check is dispatched by 'python -m repro check' "
              "(repro.__main__), not the harness CLI", file=sys.stderr)
        return 2
    renderers = _experiment_renderers()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate artifacts of 'A Case for Clumsy Packet "
                    "Processors' (MICRO-37, 2004)")
    parser.add_argument("experiment",
                        choices=sorted(renderers) + ["all", "trace", "lint"],
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
    names = sorted(renderers) if args.experiment == "all" else [args.experiment]
    # Two fan-out levels exist: across experiment ids and across one
    # campaign's chunks.  Give --max-workers to whichever level has the
    # parallelism (chunk-level for a single id, job-level for 'all').
    job_workers = args.max_workers if len(names) > 1 else 1
    engine_workers = args.max_workers if len(names) == 1 else 1
    jobs = [(name, args.packets, seeds, args.cache_dir, engine_workers,
             args.injector, args.backend)
            for name in names]
    totals: "dict[str, int]" = {}
    fallbacks: "dict[str, int]" = {}
    for output, counters, job_fallbacks in map_parallel(
            _render_job, jobs, max_workers=job_workers):
        print(output)
        print()
        for counter, value in counters.items():
            totals[counter] = totals.get(counter, 0) + value
        for reason, count in job_fallbacks.items():
            fallbacks[reason] = fallbacks.get(reason, 0) + count
    if args.cache_dir is not None:
        summary = " ".join(
            f"{name.split('.', 1)[1]}={totals.get(name, 0)}"
            for name in ("campaign.configs", "campaign.cache_hits",
                         "campaign.simulated", "campaign.chunks"))
        print(f"campaign: {summary} (cache: {args.cache_dir})",
              file=sys.stderr)
    if fallbacks:
        print(f"{args.backend} fallbacks: " + " ".join(
            f"{reason}={count}" for reason, count in fallbacks.items()),
            file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
