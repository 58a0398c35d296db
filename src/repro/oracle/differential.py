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
``faultmap``
    reference (spatially flat) vs the mapped measured-silicon
    injectors (``correlated``/``tiered``).  The mapped family's
    contract is *marginal* equivalence: its mean-1 weakness maps leave
    the per-access fault probability over a uniform address stream
    equal to the reference law at the same ``Cr``.  The twin drives
    both injectors directly over a seeded uniform address stream and
    compares fault counts with a pooled chi-square (end-to-end fault
    rates are *not* compared -- a real workload hammers a few hot rows,
    so its effective rate legitimately depends on where the weak rows
    landed); deterministic workload fields must still match exactly.
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

import random
import tempfile
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.fault_model import FaultModel
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
from repro.mem.faultmaps import MAPPED_INJECTOR_NAMES, FaultMap
from repro.mem.faults import make_injector
from repro.telemetry.metrics import CounterSet

#: The execution-path pairs ``run_differential`` exercises, in order.
DIFFERENTIAL_PATHS = ("workers", "cache", "injector", "faultmap",
                      "replay")

#: Synthetic uniform-address stream driven through the faultmap twin's
#: injector pair (per mapped injector).
FAULTMAP_TWIN_ACCESSES = 6000
#: Fault-rate scale of the synthetic stream: large enough that ~150
#: faults land per side, so the chi-square has power without needing a
#: full workload execution.
FAULTMAP_TWIN_SCALE = 1000.0
FAULTMAP_TWIN_CYCLE_TIME = 0.25
#: Synthetic L1 geometry the twin samples its maps over.
FAULTMAP_TWIN_ROWS = 128
FAULTMAP_TWIN_WAYS = 2
#: Address span: one common multiple of the correlated map's cell tile
#: (line * rows * ways = 8192) and the tiered map's band cycle
#: (1024 * 3 tiers = 3072), so uniform addresses hit every weakness
#: cell equally and the mean-1 contract holds exactly.
FAULTMAP_TWIN_SPAN = 24576

#: Significance level of the statistical comparisons.  0.001 keeps the
#: all-apps quick check's family-wise false-alarm rate well under 1%.
STATISTICAL_ALPHA = 0.001

#: Minimum pooled fault count before the chi-square proportion test is
#: attempted (below this the expected counts are too small to trust).
MIN_FAULTS_FOR_CHI2 = 20


@dataclass(frozen=True)
class Divergence:
    """One field on which two execution paths disagreed."""

    path: str        #: workers/cache/injector/faultmap/replay
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


def _faultmap_twin(
    config: ExperimentConfig,
    seeds: "tuple[int, ...]",
    map_factory: "Optional[Callable[[str, FaultMap], FaultMap]]" = None,
) -> "list[Divergence]":
    """Reference vs mapped injectors: the marginal-equivalence contract.

    End-to-end, replica runs of each mapped injector must agree with the
    reference on the deterministic workload fields (``offered_packets``)
    -- the injector cannot change what traffic was offered.  The fault
    *law* is compared at the model level: both injectors are driven
    directly over a seeded uniform address stream spanning whole
    weakness tiles, where the mean-1 map contract says their fault
    counts are draws from the same Bernoulli rate, and a pooled 2x2
    chi-square at :data:`STATISTICAL_ALPHA` checks exactly that.  A map
    whose weakness mean drifts off 1 (the defect the meta-test seeds
    through ``map_factory``, which may substitute each freshly sampled
    map) fires this twin.
    """
    engine = CampaignEngine(max_workers=1)
    divergences: "list[Divergence]" = []
    reference = engine.run(
        _replicas(config.with_options(injector="reference"), seeds))
    for injector_name in MAPPED_INJECTOR_NAMES:
        mapped_params = (config.fault_map_params
                         if config.injector == injector_name else ())
        mapped = engine.run(_replicas(
            config.with_options(injector=injector_name,
                                fault_map_params=mapped_params), seeds))
        label = mapped[0].config.label
        for ref, spatial in zip(reference, mapped):
            if ref.offered_packets != spatial.offered_packets:
                divergences.append(Divergence(
                    path="faultmap", config=label,
                    field="offered_packets", kind="exact",
                    left=str(ref.offered_packets),
                    right=str(spatial.offered_packets),
                    detail="the workload is injector-independent"))
        divergences.extend(_faultmap_marginal_check(
            config, injector_name, mapped_params, map_factory))
    return divergences


def _faultmap_marginal_check(
    config: ExperimentConfig,
    injector_name: str,
    mapped_params: "tuple[tuple[str, float], ...]",
    map_factory: "Optional[Callable[[str, FaultMap], FaultMap]]" = None,
) -> "list[Divergence]":
    """Pooled chi-square of reference vs mapped over uniform addresses."""
    model = FaultModel.calibrated(
        quarter_cycle_multiplier=config.quarter_cycle_multiplier)
    seed = config.seed * 1_000_003 + 17
    flat = make_injector("reference", model=model, seed=seed,
                         scale=FAULTMAP_TWIN_SCALE)
    mapped = make_injector(
        injector_name, model=model, seed=seed,
        scale=FAULTMAP_TWIN_SCALE, rows=FAULTMAP_TWIN_ROWS,
        ways=FAULTMAP_TWIN_WAYS,
        fault_map_params=dict(mapped_params))
    if map_factory is not None:
        mapped.fault_map = map_factory(injector_name, mapped.fault_map)
    addresses = random.Random(seed ^ 0xFA17)
    flat_faults = 0
    mapped_faults = 0
    accesses = FAULTMAP_TWIN_ACCESSES
    for _ in range(accesses):
        address = addresses.randrange(0, FAULTMAP_TWIN_SPAN, 4)
        if flat.draw(FAULTMAP_TWIN_CYCLE_TIME, 32, address) is not None:
            flat_faults += 1
        if mapped.draw(FAULTMAP_TWIN_CYCLE_TIME, 32, address) is not None:
            mapped_faults += 1
    total = flat_faults + mapped_faults
    if total < MIN_FAULTS_FOR_CHI2 or total >= 2 * accesses:
        return []
    pooled = total / (2 * accesses)
    observed = [flat_faults, accesses - flat_faults,
                mapped_faults, accesses - mapped_faults]
    expected = [accesses * pooled, accesses * (1.0 - pooled),
                accesses * pooled, accesses * (1.0 - pooled)]
    statistic = chi_square_statistic(observed, expected)
    critical = chi_square_critical(1, STATISTICAL_ALPHA)
    if statistic <= critical:
        return []
    return [Divergence(
        path="faultmap", config=f"{config.app}/{injector_name}",
        field="marginal_fault_rate", kind="statistical",
        left=f"{flat_faults}/{accesses}",
        right=f"{mapped_faults}/{accesses}",
        detail=f"chi2={statistic:.2f} > critical={critical:.2f} at "
               f"alpha={STATISTICAL_ALPHA}: over uniform addresses the "
               f"mapped law must match the reference marginal (mean-1 "
               f"weakness contract)")]


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
        elif path == "faultmap":
            divergences.extend(_faultmap_twin(config, seeds))
        else:
            divergences.extend(_replay_twin(config, seeds))
    if counters is not None:
        counters.bump("oracle.differential.divergences", len(divergences))
    return divergences
