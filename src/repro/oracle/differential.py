"""Differential twin-runner: one config, independently varied paths.

A differential oracle needs no specification: run the *same*
:class:`~repro.harness.config.ExperimentConfig` through two execution
paths that must agree, and diff the
:class:`~repro.harness.experiment.ExperimentResult` objects field by
field.  The path pairs cover the harness' riskiest seams:

``workers``
    serial (``max_workers=1``) vs process-pool (``max_workers=N``)
    campaign execution.  Results must be ``repr``-identical: scheduling
    can never leak into a result.
``cache``
    cache-cold vs cache-warm vs forced re-simulation through the
    content-addressed :class:`~repro.harness.store.ResultStore` (the
    PR 3 seam).  A store round-trip and a
    :meth:`~repro.harness.engine.CampaignEngine.run` with
    ``refresh=True`` must reproduce the cold bytes.
``injector``
    reference (per-access Bernoulli) vs geometric (skip-sampling)
    fault injectors (the PR 4 seam).  The two paths are *statistically*
    -- not bit -- equivalent, so the deterministic fields are compared
    exactly and the stochastic fields through the scipy-free
    :mod:`repro.harness.stats` machinery: a pooled chi-square on the
    per-access fault proportions and a two-sample Kolmogorov-Smirnov
    test on the per-seed fallibility samples.
``replay``
    faithful execution vs the trace-replay backend (the PR 7 seam),
    both contract halves: the *fault-free* variant of the config must
    agree bit-for-bit (``config`` excluded -- the backend field
    legitimately differs), and the faulted config must agree under the
    same chi-square/KS machinery as the injector pair (replay samples
    fault sites directly instead of executing them).

Every disagreement is a typed :class:`Divergence` record; an empty list
is the oracle's "these paths agree" verdict.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass

from repro.harness.config import ExperimentConfig
from repro.harness.engine import CampaignEngine
from repro.harness.experiment import ExperimentResult
from repro.harness.stats import (
    chi_square_critical,
    chi_square_statistic,
    ks_two_sample_critical,
    ks_two_sample_statistic,
)
from repro.harness.store import ResultStore
from repro.telemetry.metrics import CounterSet

#: The execution-path pairs ``run_differential`` exercises, in order.
DIFFERENTIAL_PATHS = ("workers", "cache", "injector", "replay")

#: Significance level of the statistical comparisons.  0.001 keeps the
#: all-apps quick check's family-wise false-alarm rate well under 1%.
STATISTICAL_ALPHA = 0.001

#: Minimum pooled fault count before the chi-square proportion test is
#: attempted (below this the expected counts are too small to trust).
MIN_FAULTS_FOR_CHI2 = 20


@dataclass(frozen=True)
class Divergence:
    """One field on which two execution paths disagreed."""

    path: str        #: workers/cache/injector/replay
    config: str      #: config label the twin ran
    field: str       #: result field or statistic name
    kind: str        #: ``exact`` or ``statistical``
    left: str        #: rendered value/statistic from the first path
    right: str       #: rendered value/statistic from the second path
    detail: str = ""  #: what the comparison meant, thresholds included

    def render(self) -> str:
        """One-line report form."""
        text = (f"{self.path} [{self.config}] {self.field}: "
                f"{self.left} != {self.right}")
        if self.detail:
            text += f" ({self.detail})"
        return text


def _render_value(value: object, limit: int = 120) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[:limit - 3] + "..."


def diff_results(path: str, left: ExperimentResult,
                 right: ExperimentResult,
                 ignore: "tuple[str, ...]" = ()) -> "list[Divergence]":
    """Field-by-field exact diff of two results (empty list = identical).

    Fields are the keys of :meth:`ExperimentResult.to_json`, so the
    comparison is exactly as strict as the store's round-trip contract:
    two results that diff clean here are ``repr``-identical.
    """
    left_json = left.to_json()
    right_json = right.to_json()
    divergences: "list[Divergence]" = []
    for field in left_json:
        if field in ignore:
            continue
        if left_json[field] != right_json[field]:
            divergences.append(Divergence(
                path=path, config=left.config.label, field=field,
                kind="exact", left=_render_value(left_json[field]),
                right=_render_value(right_json[field]),
                detail="paths must agree bit-for-bit"))
    return divergences


# ---------------------------------------------------------------------------
# Statistical comparison (the injector pair)
# ---------------------------------------------------------------------------

def compare_fault_statistics(
        reference: "list[ExperimentResult]",
        geometric: "list[ExperimentResult]",
        alpha: float = STATISTICAL_ALPHA,
        min_faults: int = MIN_FAULTS_FOR_CHI2,
        path: str = "injector") -> "list[Divergence]":
    """Statistical equivalence of two fault-sampling paths' results.

    ``reference`` and ``geometric`` are seed replicas of the same config
    under each path (injector implementations, or execute vs replay
    backends -- ``path`` labels the reported divergences).  Deterministic
    fields (offered packets) must match exactly; the per-access fault
    proportion is compared with a pooled 2x2 chi-square and the per-seed
    fallibility samples with a two-sample KS test, both from
    :mod:`repro.harness.stats`.
    """
    if len(reference) != len(geometric) or not reference:
        raise ValueError("need matching non-empty replica lists")
    label = reference[0].config.label
    divergences: "list[Divergence]" = []
    for ref, geo in zip(reference, geometric):
        if ref.offered_packets != geo.offered_packets:
            divergences.append(Divergence(
                path=path, config=label, field="offered_packets",
                kind="exact", left=str(ref.offered_packets),
                right=str(geo.offered_packets),
                detail="the workload is injector-independent"))
    ref_faults = sum(result.injected_faults for result in reference)
    ref_accesses = sum(result.l1d_accesses for result in reference)
    geo_faults = sum(result.injected_faults for result in geometric)
    geo_accesses = sum(result.l1d_accesses for result in geometric)
    total_faults = ref_faults + geo_faults
    total_accesses = ref_accesses + geo_accesses
    if total_faults >= min_faults and 0 < total_faults < total_accesses:
        # Pooled 2x2 contingency (injector x faulted?), df = 1.
        pooled = total_faults / total_accesses
        observed = [ref_faults, ref_accesses - ref_faults,
                    geo_faults, geo_accesses - geo_faults]
        expected = [ref_accesses * pooled, ref_accesses * (1.0 - pooled),
                    geo_accesses * pooled, geo_accesses * (1.0 - pooled)]
        statistic = chi_square_statistic(observed, expected)
        critical = chi_square_critical(1, alpha)
        if statistic > critical:
            divergences.append(Divergence(
                path=path, config=label, field="fault_rate",
                kind="statistical",
                left=f"{ref_faults}/{ref_accesses}",
                right=f"{geo_faults}/{geo_accesses}",
                detail=f"chi2={statistic:.2f} > critical={critical:.2f} "
                       f"at alpha={alpha}: the paths sample "
                       f"different fault laws"))
    if len(reference) >= 2:
        ref_samples = [result.fallibility for result in reference]
        geo_samples = [result.fallibility for result in geometric]
        statistic = ks_two_sample_statistic(ref_samples, geo_samples)
        critical = ks_two_sample_critical(len(ref_samples),
                                          len(geo_samples), alpha=alpha)
        if statistic > critical:
            divergences.append(Divergence(
                path=path, config=label, field="fallibility",
                kind="statistical",
                left=_render_value([round(s, 4) for s in ref_samples]),
                right=_render_value([round(s, 4) for s in geo_samples]),
                detail=f"KS D={statistic:.3f} > critical={critical:.3f} "
                       f"at alpha={alpha}"))
    return divergences


# ---------------------------------------------------------------------------
# The twins
# ---------------------------------------------------------------------------

def _replicas(config: ExperimentConfig,
              seeds: "tuple[int, ...]") -> "list[ExperimentConfig]":
    return [config.with_options(seed=seed) for seed in seeds]


def _workers_twin(config: ExperimentConfig, seeds: "tuple[int, ...]",
                  workers: int) -> "list[Divergence]":
    configs = _replicas(config, seeds)
    serial = CampaignEngine(max_workers=1).run(configs)
    parallel = CampaignEngine(max_workers=workers).run(configs)
    divergences: "list[Divergence]" = []
    for one, many in zip(serial, parallel):
        divergences.extend(diff_results("workers", one, many))
    return divergences


def _cache_twin(config: ExperimentConfig,
                seeds: "tuple[int, ...]") -> "list[Divergence]":
    configs = _replicas(config, seeds)
    divergences: "list[Divergence]" = []
    with tempfile.TemporaryDirectory(prefix="repro-oracle-") as tmp:
        cold_engine = CampaignEngine(store=ResultStore(tmp))
        cold = cold_engine.run(configs)
        warm_engine = CampaignEngine(store=ResultStore(tmp))
        warm = warm_engine.run(configs)
        if warm_engine.counters.get("campaign.simulated"):
            divergences.append(Divergence(
                path="cache", config=config.label, field="cache_hits",
                kind="exact", left=str(len(configs)),
                right=str(warm_engine.counters.get("campaign.cache_hits")),
                detail="a warm store must resolve every config"))
        refreshed = warm_engine.run(configs, refresh=True)
        for cold_result, warm_result in zip(cold, warm):
            divergences.extend(
                diff_results("cache", cold_result, warm_result))
        for warm_result, fresh in zip(warm, refreshed):
            divergences.extend(diff_results("cache", warm_result, fresh))
    return divergences


def _injector_twin(config: ExperimentConfig,
                   seeds: "tuple[int, ...]") -> "list[Divergence]":
    engine = CampaignEngine(max_workers=1)
    reference = engine.run(
        _replicas(config.with_options(injector="reference"), seeds))
    geometric = engine.run(
        _replicas(config.with_options(injector="geometric"), seeds))
    return compare_fault_statistics(reference, geometric)


def _replay_twin(config: ExperimentConfig,
                 seeds: "tuple[int, ...]") -> "list[Divergence]":
    """Execute vs trace-replay, both halves of the backend contract.

    The fault-free variant must agree bit-for-bit on every field except
    ``config`` (whose ``backend`` legitimately differs); the faulted
    config -- where replay samples fault sites instead of executing
    them -- must agree statistically, exactly like the injector pair.
    """
    engine = CampaignEngine(max_workers=1)
    divergences: "list[Divergence]" = []
    fault_free = config.with_options(fault_scale=0.0)
    executed = engine.run(
        _replicas(fault_free.with_options(backend="execute"), seeds))
    replayed = engine.run(
        _replicas(fault_free.with_options(backend="replay"), seeds))
    for left, right in zip(executed, replayed):
        divergences.extend(
            diff_results("replay", left, right, ignore=("config",)))
    executed = engine.run(
        _replicas(config.with_options(backend="execute"), seeds))
    replayed = engine.run(
        _replicas(config.with_options(backend="replay"), seeds))
    divergences.extend(
        compare_fault_statistics(executed, replayed, path="replay"))
    return divergences


def run_differential(config: ExperimentConfig,
                     seeds: "tuple[int, ...]" = (7, 11, 23),
                     workers: int = 2,
                     paths: "tuple[str, ...]" = DIFFERENTIAL_PATHS,
                     counters: "CounterSet | None" = None,
                     ) -> "list[Divergence]":
    """Run every requested twin for one config; empty list = all agree.

    ``counters`` (a telemetry ``CounterSet``) receives
    ``oracle.differential.paths`` and
    ``oracle.differential.divergences``.
    """
    unknown = sorted(set(paths) - set(DIFFERENTIAL_PATHS))
    if unknown:
        raise ValueError(f"unknown differential path(s) {unknown}; "
                         f"available: {DIFFERENTIAL_PATHS}")
    if not seeds:
        raise ValueError("need at least one replica seed")
    divergences: "list[Divergence]" = []
    for path in DIFFERENTIAL_PATHS:
        if path not in paths:
            continue
        if counters is not None:
            counters.bump("oracle.differential.paths")
        if path == "workers":
            divergences.extend(_workers_twin(config, seeds, workers))
        elif path == "cache":
            divergences.extend(_cache_twin(config, seeds))
        elif path == "injector":
            divergences.extend(_injector_twin(config, seeds))
        else:
            divergences.extend(_replay_twin(config, seeds))
    if counters is not None:
        counters.bump("oracle.differential.divergences", len(divergences))
    return divergences
