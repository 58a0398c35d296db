"""Single-fault injection campaigns: true AVF measurement.

The statistical runs inject faults at a scaled rate, so several faults
can overlap and persistence effects mix.  A *campaign* instead runs many
experiments with **exactly one fault each**, at a controlled access index
-- Mukherjee-style AVF methodology at the application level: for each
structure, what fraction of single faults landing in it produce at least
one application-level packet error?

Each trial reuses the golden observations (cached), so a campaign of N
trials costs N fault runs plus one golden run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.harness.config import ExperimentConfig
from repro.harness.experiment import run_experiment
from repro.harness.report import render_table
from repro.harness.vulnerability import merge_buffer_labels
from repro.mem.faults import FaultEvent, FaultInjector


class SingleFaultInjector(FaultInjector):
    """Injects exactly one single-bit fault, at the Nth eligible access."""

    def __init__(self, target_access: int, bit_seed: int = 0) -> None:
        super().__init__(seed=bit_seed, scale=1.0)
        if target_access < 0:
            raise ValueError("target access index must be non-negative")
        self.target_access = target_access
        self.fired = False
        self._access_count = 0
        self._bit_rng = random.Random(bit_seed * 2654435761 + 1)

    def draw(self, cycle_time, bits):
        """See :meth:`FaultInjector.draw`; fires once at the target index."""
        if not self.enabled:
            return None
        index = self._access_count
        self._access_count += 1
        if self.fired or index != self.target_access:
            return None
        self.fired = True
        return FaultEvent(
            bit_positions=(self._bit_rng.randrange(bits),))


@dataclass(frozen=True)
class Trial:
    """One single-fault experiment's outcome."""

    target_access: int
    fired: bool
    structure: "str | None"      #: region label the fault landed in
    is_write: bool
    erroneous_packets: int
    fatal: bool


@dataclass(frozen=True)
class CampaignResult:
    """Aggregated single-fault campaign."""

    app: str
    trials: "tuple[Trial, ...]"

    @property
    def fired_trials(self) -> "tuple[Trial, ...]":
        """Trials whose fault actually fired."""
        return tuple(trial for trial in self.trials if trial.fired)

    @property
    def error_conversion(self) -> float:
        """Fraction of single faults causing at least one packet error."""
        fired = self.fired_trials
        if not fired:
            return 0.0
        return sum(1 for trial in fired
                   if trial.erroneous_packets or trial.fatal) / len(fired)

    def per_structure(self) -> "dict[str, tuple[int, int]]":
        """label -> (faults landed, faults that caused an error)."""
        table: "dict[str, tuple[int, int]]" = {}
        for trial in self.fired_trials:
            label = trial.structure or "(outside all regions)"
            landed, harmful = table.get(label, (0, 0))
            table[label] = (landed + 1,
                            harmful + (1 if (trial.erroneous_packets
                                             or trial.fatal) else 0))
        return table


def run_campaign(
    config: ExperimentConfig,
    trials: int = 50,
    seed: int = 101,
) -> CampaignResult:
    """Run ``trials`` single-fault experiments at random access indices.

    The base ``config`` supplies app/clock/policy; its ``fault_scale`` is
    ignored (each trial injects exactly one fault).  Access indices are
    sampled uniformly over the accesses a fault-free run performs in the
    active plane(s).  Each trial is one uncached
    :func:`~repro.harness.experiment.run_experiment` with a scripted
    injector, which only the faithful kernel accepts, so ``config`` must
    name the ``execute`` backend.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if config.backend != "execute":
        raise ValueError(
            f"single-fault trials script the faithful kernel's injector; "
            f"they require backend='execute', got {config.backend!r}")
    # Measure the eligible access count with a probe run whose fault
    # never fires (its draw() still counts every eligible access).
    probe = SingleFaultInjector(target_access=1 << 62)
    run_experiment(config, injector_override=probe)
    total_accesses = probe._access_count
    if total_accesses == 0:
        raise RuntimeError("the workload performed no eligible accesses")
    rng = random.Random(seed)
    outcomes = []
    for trial_number in range(trials):
        target = rng.randrange(total_accesses)
        injector = SingleFaultInjector(target_access=target,
                                       bit_seed=seed + trial_number)
        result = run_experiment(config, injector_override=injector)
        structure = None
        is_write = False
        if injector.fired and result.fault_sites:
            address, is_write = result.fault_sites[0]
            for region in result.regions:
                if region.contains(address):
                    structure = merge_buffer_labels(region.label)
                    break
        outcomes.append(Trial(
            target_access=target, fired=injector.fired,
            structure=structure, is_write=is_write,
            erroneous_packets=result.erroneous_packets,
            fatal=result.fatal))
    return CampaignResult(app=config.app, trials=tuple(outcomes))


def render_campaign(result: CampaignResult) -> str:
    """Per-structure AVF table for one campaign."""
    rows = []
    for label, (landed, harmful) in sorted(result.per_structure().items(),
                                           key=lambda item: -item[1][0]):
        rows.append([label, landed, harmful,
                     round(harmful / landed, 3) if landed else 0.0])
    return render_table(
        f"Single-fault AVF campaign ({result.app}): "
        f"{len(result.fired_trials)} faults, overall conversion "
        f"{result.error_conversion:.2f} (paper Section 5.2: ~0.15)",
        ["structure", "faults landed", "caused error", "AVF"], rows)
