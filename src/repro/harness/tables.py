"""Table I: application properties and fallibility factors.

Regenerates the paper's Table I columns for every application: simulated
instructions, cache accesses, miss rate, and the fallibility factors at
relative clock cycles 0.5 and 0.25 (faults in both planes, no detection,
as in the paper's application characterisation).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.constants import NETBENCH_APPS, TABLE1_FALLIBILITY
from repro.core.recovery import NO_DETECTION
from repro.harness.config import DEFAULT_FAULT_SCALE, ExperimentConfig
from repro.harness.engine import CampaignEngine, default_engine
from repro.util.text import render_table


@dataclass(frozen=True)
class Table1Row:
    """One application's Table I entries (reproduction units)."""

    app: str
    instructions: int
    cache_accesses: int
    miss_rate_percent: float
    fallibility_half: float
    fallibility_quarter: float
    paper_fallibility_half: float
    paper_fallibility_quarter: float


def _mean(values: "list[float]") -> float:
    return sum(values) / len(values)


def table1_row(app: str, packet_count: int = 300,
               seeds: "tuple[int, ...]" = (7, 11, 23),
               fault_scale: float = DEFAULT_FAULT_SCALE,
               engine: "CampaignEngine | None" = None,
               injector: str = "reference",
               backend: str = "execute") -> Table1Row:
    """Measure one application's row, averaging fallibility over seeds."""
    engine = engine if engine is not None else default_engine()
    configs = [ExperimentConfig(
        app=app, packet_count=packet_count, seed=seeds[0], cycle_time=1.0,
        policy=NO_DETECTION, fault_scale=0.0, injector=injector,
        backend=backend)]
    configs += [ExperimentConfig(
        app=app, packet_count=packet_count, seed=seed,
        cycle_time=cycle_time, policy=NO_DETECTION,
        fault_scale=fault_scale, injector=injector, backend=backend)
        for cycle_time in (0.5, 0.25) for seed in seeds]
    outcomes = iter(engine.run(configs))
    baseline = next(outcomes)
    fallibility = {}
    for cycle_time in (0.5, 0.25):
        fallibility[cycle_time] = _mean(
            [next(outcomes).fallibility for _ in seeds])
    paper = TABLE1_FALLIBILITY[app]
    return Table1Row(
        app=app,
        instructions=baseline.instructions,
        cache_accesses=baseline.l1d_accesses,
        miss_rate_percent=baseline.l1d_miss_rate * 100.0,
        fallibility_half=fallibility[0.5],
        fallibility_quarter=fallibility[0.25],
        paper_fallibility_half=paper[0.5],
        paper_fallibility_quarter=paper[0.25],
    )


def table1(packet_count: int = 300,
           seeds: "tuple[int, ...]" = (7, 11, 23),
           fault_scale: float = DEFAULT_FAULT_SCALE,
           engine: "CampaignEngine | None" = None,
           injector: str = "reference",
           backend: str = "execute") -> "list[Table1Row]":
    """All seven rows in the paper's order."""
    return [table1_row(app, packet_count, seeds, fault_scale, engine=engine,
                       injector=injector, backend=backend)
            for app in NETBENCH_APPS]


def render_table1(rows: "list[Table1Row]") -> str:
    """Text rendering mirroring the paper's Table I layout."""
    return render_table(
        "Table I. Networking Applications and Their Properties "
        "(measured vs paper fallibility)",
        ["app", "instr", "cache acc", "miss %",
         "fall Cr=0.5", "paper", "fall Cr=0.25", "paper"],
        [[row.app, row.instructions, row.cache_accesses,
          round(row.miss_rate_percent, 2),
          round(row.fallibility_half, 3), row.paper_fallibility_half,
          round(row.fallibility_quarter, 3), row.paper_fallibility_quarter]
         for row in rows])
