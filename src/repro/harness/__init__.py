"""Experiment harness: configs, runners, and paper-artifact generators."""

from repro.harness.campaign import (
    CampaignResult,
    SingleFaultInjector,
    render_campaign,
    run_campaign,
)
from repro.harness.config import DEFAULT_FAULT_SCALE, PLANES, ExperimentConfig
from repro.harness.engine import (
    CampaignEngine,
    DEFAULT_CHUNK_SIZE,
    default_engine,
)
from repro.harness.store import (
    CODE_VERSION,
    ResultStore,
    canonical_json,
    config_key,
    load_results,
    save_results,
)
from repro.harness.experiment import (
    ExperimentResult,
    RunOutcome,
    build_environment,
    clear_golden_cache,
    execute_workload,
    load_workload,
    run_experiment,
)
from repro.harness.parallel import map_parallel
from repro.harness.profile import WorkloadProfile, profile_workload
from repro.harness.stats import Summary, format_summary, summarize
from repro.harness.vulnerability import (
    RegionVulnerability,
    attribute_faults,
    render_vulnerability,
)
from repro.harness.tables import Table1Row, render_table1, table1
from repro.harness.report import render_series, render_table

__all__ = [
    "CODE_VERSION",
    "CampaignEngine",
    "CampaignResult",
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_FAULT_SCALE",
    "ResultStore",
    "SingleFaultInjector",
    "canonical_json",
    "config_key",
    "default_engine",
    "load_results",
    "save_results",
    "ExperimentConfig",
    "ExperimentResult",
    "PLANES",
    "RegionVulnerability",
    "RunOutcome",
    "Summary",
    "Table1Row",
    "WorkloadProfile",
    "attribute_faults",
    "build_environment",
    "execute_workload",
    "format_summary",
    "clear_golden_cache",
    "load_workload",
    "map_parallel",
    "render_series",
    "render_campaign",
    "render_vulnerability",
    "run_campaign",
    "summarize",
    "render_table",
    "profile_workload",
    "render_table1",
    "run_experiment",
    "table1",
]
