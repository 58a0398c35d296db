"""Metamorphic invariant registry: paper-derived relations over results.

Each invariant is a registered class (the registry pattern of
:mod:`repro.analysis.rules`) whose ``check`` method receives a flat list
of :class:`~repro.harness.experiment.ExperimentResult` objects -- a
sweep's output -- and yields typed :class:`Violation` records.  The
relations come straight from the paper:

* the per-access fault probability is monotonically non-decreasing as
  the relative cycle time ``Cr`` shrinks (the whole physics chain of
  Figures 1-5 points one way);
* stronger recovery (one -> two -> three strikes) never increases the
  application error rate (Section 4's retry argument);
* a run that injected zero faults is golden-identical (Section 2's
  comparison methodology);
* dynamic-frequency runs move only between adjacent ladder levels at
  epoch boundaries, per the X1 = 200% / X2 = 80% scheme of Section 4;
* the error accounting balances (Section 4.1's fallibility bookkeeping).

Stochastic relations are tested with a conservative one-sided z-test on
fault/error proportions (reject beyond ``Z_SLACK`` combined standard
errors) so replica noise never produces false alarms; deterministic
relations are exact.

Invariants must be pure functions of the result list: no filesystem
access, no global state, so the checker can run them in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, Type

from repro.core import constants
from repro.core.frequency import FrequencyLadder
from repro.harness.config import ExperimentConfig
from repro.harness.experiment import ExperimentResult
from repro.telemetry.metrics import CounterSet

#: One-sided rejection threshold, in combined standard errors, for the
#: stochastic monotonicity invariants.  4 sigma keeps the per-comparison
#: false-alarm rate near 3e-5, so a full seven-app sweep stays quiet.
Z_SLACK = 4.0

#: Strike-policy ordering used by the recovery invariant (weakest first:
#: ``no-detection`` has zero strikes).
_STRIKE_ORDER = ("no-detection", "one-strike", "two-strike", "three-strike")


@dataclass(frozen=True)
class Violation:
    """One invariant violated by one result (or group of results)."""

    invariant: str   #: registered invariant id
    config: str      #: label of the offending config ("" for model-level)
    message: str     #: what relation failed, with the observed numbers

    def render(self) -> str:
        """One-line report form."""
        where = f" [{self.config}]" if self.config else ""
        return f"{self.invariant}{where}: {self.message}"


class Invariant:
    """Base class for registered metamorphic invariants."""

    #: Unique identifier used in reports and ``only=`` filters.
    id: str = ""
    #: One-line description for reports.
    short: str = ""
    #: Paper section the relation is derived from.
    paper: str = ""
    #: Whether the invariant is meaningful for a single result (the
    #: fuzzer checks these per generated config; sweep-level relations
    #: need several results and are skipped there).
    per_result: bool = False

    def check(self, results: "list[ExperimentResult]",
              ) -> "Iterator[Violation]":
        """Yield violations found in a sweep's results."""
        raise NotImplementedError

    def violation(self, message: str, config: str = "") -> Violation:
        """Build a violation attributed to this invariant."""
        return Violation(invariant=self.id, config=config, message=message)


#: Registry of invariant classes, keyed by id, in registration order.
INVARIANT_REGISTRY: "Dict[str, Type[Invariant]]" = {}


def register_invariant(cls: "Type[Invariant]") -> "Type[Invariant]":
    """Class decorator adding an invariant to the global registry."""
    if not cls.id:
        raise ValueError(f"{cls.__name__} must set an id")
    if cls.id in INVARIANT_REGISTRY:
        raise ValueError(f"duplicate invariant id {cls.id!r}")
    INVARIANT_REGISTRY[cls.id] = cls
    return cls


def check_invariants(results: "list[ExperimentResult]",
                     only: "tuple[str, ...] | None" = None,
                     counters: "CounterSet | None" = None,
                     ) -> "list[Violation]":
    """Run every registered invariant (or the ``only`` subset) over results.

    ``counters`` (a telemetry ``CounterSet``) receives
    ``oracle.invariants.checked`` and ``oracle.invariants.violations``.
    Unknown ids in ``only`` raise so a typo cannot silently skip a check.
    """
    if only is not None:
        unknown = sorted(set(only) - set(INVARIANT_REGISTRY))
        if unknown:
            raise ValueError(f"unknown invariant id(s) {unknown}; "
                             f"registered: {sorted(INVARIANT_REGISTRY)}")
    violations: "list[Violation]" = []
    for invariant_id, cls in INVARIANT_REGISTRY.items():
        if only is not None and invariant_id not in only:
            continue
        if counters is not None:
            counters.bump("oracle.invariants.checked")
        violations.extend(cls().check(results))
    if counters is not None:
        counters.bump("oracle.invariants.violations", len(violations))
    return violations


def per_result_invariant_ids() -> "tuple[str, ...]":
    """Ids of the invariants meaningful for one result (the fuzzer's set)."""
    return tuple(invariant_id
                 for invariant_id, cls in INVARIANT_REGISTRY.items()
                 if cls.per_result)


# ---------------------------------------------------------------------------
# Statistical helper
# ---------------------------------------------------------------------------

def proportion_significantly_greater(
        successes_a: int, trials_a: int,
        successes_b: int, trials_b: int,
        z_slack: float = Z_SLACK) -> bool:
    """Whether rate A exceeds rate B beyond ``z_slack`` standard errors.

    Pooled two-proportion z-test, one-sided.  Degenerate inputs (zero
    trials, zero pooled variance) never reject -- the invariants only
    flag differences the replica counts can actually support.
    """
    if trials_a <= 0 or trials_b <= 0:
        return False
    pooled = (successes_a + successes_b) / (trials_a + trials_b)
    variance = pooled * (1.0 - pooled) * (1.0 / trials_a + 1.0 / trials_b)
    if variance <= 0.0:
        return False
    z = (successes_a / trials_a - successes_b / trials_b) / math.sqrt(variance)
    return z > z_slack


def _group_key(config: ExperimentConfig,
               without: "tuple[str, ...]") -> "tuple":
    """A hashable identity of a config with some axes removed."""
    payload = config.to_json()
    for axis in without:
        payload.pop(axis, None)
    policy = payload.get("policy")
    if isinstance(policy, dict):
        payload["policy"] = tuple(sorted(policy.items()))
    return tuple(sorted(payload.items()))


# ---------------------------------------------------------------------------
# The catalogue
# ---------------------------------------------------------------------------

@register_invariant
class FaultRateMonotone(Invariant):
    """Observed per-access fault rates never drop as Cr shrinks."""

    id = "fault-rate-monotone"
    short = "observed fault rate non-decreasing as Cr shrinks"
    paper = "Figure 5, Section 5.1"
    per_result = False

    def check(self, results: "list[ExperimentResult]",
              ) -> "Iterator[Violation]":
        groups: "dict[tuple, list[ExperimentResult]]" = {}
        for result in results:
            config = result.config
            if config.dynamic:
                continue
            if config.fault_scale == 0 or config.planes == "none":
                continue
            groups.setdefault(_group_key(config, ("cycle_time",)),
                              []).append(result)
        for group in groups.values():
            if len(group) < 2:
                continue
            ordered = sorted(group, key=lambda r: -r.config.cycle_time)
            for slower, faster in zip(ordered, ordered[1:]):
                # ``faster`` over-clocks harder (smaller Cr): its fault
                # rate must not be significantly *below* the slower run's.
                if proportion_significantly_greater(
                        slower.injected_faults, slower.l1d_accesses,
                        faster.injected_faults, faster.l1d_accesses):
                    yield self.violation(
                        f"fault rate fell from "
                        f"{slower.injected_faults}/{slower.l1d_accesses} "
                        f"at Cr={slower.config.cycle_time} to "
                        f"{faster.injected_faults}/{faster.l1d_accesses} "
                        f"at Cr={faster.config.cycle_time}",
                        config=faster.config.label)


@register_invariant
class RecoveryMonotone(Invariant):
    """Stronger recovery never significantly raises the error rate."""

    id = "recovery-monotone"
    short = "fallibility non-increasing with stronger recovery"
    paper = "Section 4, Figures 9-12"
    per_result = False

    def check(self, results: "list[ExperimentResult]",
              ) -> "Iterator[Violation]":
        groups: "dict[tuple, dict[str, ExperimentResult]]" = {}
        for result in results:
            policy = result.config.policy
            if policy.name not in _STRIKE_ORDER or policy.sub_block:
                continue
            key = _group_key(result.config, ("policy",))
            groups.setdefault(key, {})[policy.name] = result
        for by_policy in groups.values():
            present = [name for name in _STRIKE_ORDER if name in by_policy]
            for weaker_name, stronger_name in zip(present, present[1:]):
                weaker = by_policy[weaker_name]
                stronger = by_policy[stronger_name]
                if proportion_significantly_greater(
                        stronger.erroneous_packets,
                        stronger.processed_packets,
                        weaker.erroneous_packets,
                        weaker.processed_packets):
                    yield self.violation(
                        f"{stronger_name} produced "
                        f"{stronger.erroneous_packets}/"
                        f"{stronger.processed_packets} erroneous packets "
                        f"vs {weaker.erroneous_packets}/"
                        f"{weaker.processed_packets} under {weaker_name}: "
                        f"more strikes must not hurt",
                        config=stronger.config.label)


@register_invariant
class ZeroFaultsGolden(Invariant):
    """A run that injected no faults must be golden-identical."""

    id = "zero-faults-golden"
    short = "zero injected faults implies a golden-identical run"
    paper = "Section 2 (golden-vs-faulty methodology)"
    per_result = True

    def check(self, results: "list[ExperimentResult]",
              ) -> "Iterator[Violation]":
        for result in results:
            if result.injected_faults != 0:
                continue
            if result.config.l2_fill_fault_probability > 0:
                continue  # the untracked L2-side corruption path
            label = result.config.label
            if result.erroneous_packets != 0:
                yield self.violation(
                    f"{result.erroneous_packets} erroneous packets with "
                    f"zero injected faults", config=label)
            if result.fatal:
                yield self.violation(
                    f"fatal error ({result.fatal_reason}) with zero "
                    f"injected faults", config=label)
            if result.detected_faults != 0:
                yield self.violation(
                    f"{result.detected_faults} detected faults with zero "
                    f"injected faults", config=label)


@register_invariant
class DvsEpochsConsistent(Invariant):
    """Dynamic runs step one ladder level per epoch, per X1/X2."""

    id = "dvs-epochs"
    short = "dynamic clock history consistent with the epoch scheme"
    paper = "Section 4 (X1=200%, X2=80%, 100-packet epochs)"
    per_result = True

    def check(self, results: "list[ExperimentResult]",
              ) -> "Iterator[Violation]":
        ladder = FrequencyLadder()
        for result in results:
            if not result.config.dynamic:
                continue
            label = result.config.label
            history = result.cycle_history
            epochs = result.processed_packets // constants.DYNAMIC_EPOCH_PACKETS
            if not history or history[0] != 1.0:
                yield self.violation(
                    f"dynamic run must start at the nominal clock, "
                    f"history begins {history[:1]}", config=label)
                continue
            bad_level = [cr for cr in history
                         if cr not in constants.RELATIVE_CYCLE_LEVELS]
            if bad_level:
                yield self.violation(
                    f"cycle history contains off-ladder settings "
                    f"{bad_level}", config=label)
                continue
            if len(history) - 1 > epochs:
                yield self.violation(
                    f"{len(history) - 1} frequency changes but only "
                    f"{epochs} complete "
                    f"{constants.DYNAMIC_EPOCH_PACKETS}-packet epochs",
                    config=label)
            for previous, current in zip(history, history[1:]):
                step = abs(ladder.index_of(current)
                           - ladder.index_of(previous))
                if step != 1:
                    yield self.violation(
                        f"clock jumped {previous} -> {current}: the "
                        f"scheme moves between adjacent levels only",
                        config=label)
            if result.detected_faults == 0:
                # X2 consequence: fault-free epochs always vote "faster",
                # so the history must be exactly the ladder prefix.
                expected = constants.RELATIVE_CYCLE_LEVELS[
                    :1 + min(epochs, len(constants.RELATIVE_CYCLE_LEVELS) - 1)]
                if history != expected:
                    yield self.violation(
                        f"zero detected faults must climb the ladder "
                        f"(expected history {expected}, got {history})",
                        config=label)


@register_invariant
class ErrorAccounting(Invariant):
    """The error bookkeeping of one result balances."""

    id = "error-accounting"
    short = "error/fault counters are internally consistent"
    paper = "Section 4.1 (fallibility bookkeeping)"
    per_result = True

    def check(self, results: "list[ExperimentResult]",
              ) -> "Iterator[Violation]":
        for result in results:
            label = result.config.label
            if not (0 <= result.processed_packets
                    <= result.offered_packets):
                yield self.violation(
                    f"processed {result.processed_packets} outside "
                    f"[0, offered={result.offered_packets}]", config=label)
            if not result.fatal and (result.processed_packets
                                     != result.offered_packets):
                yield self.violation(
                    f"non-fatal run processed {result.processed_packets} "
                    f"of {result.offered_packets} offered packets",
                    config=label)
            if result.fatal and result.fatal_reason is None:
                yield self.violation("fatal run without a fatal reason",
                                     config=label)
            if not (0 <= result.erroneous_packets
                    <= result.processed_packets):
                yield self.violation(
                    f"erroneous {result.erroneous_packets} outside "
                    f"[0, processed={result.processed_packets}]",
                    config=label)
            oversized = {category: count
                         for category, count in result.category_errors.items()
                         if count > result.processed_packets or count < 1}
            if oversized:
                yield self.violation(
                    f"category error counts outside [1, processed]: "
                    f"{oversized}", config=label)
            if sum(result.category_errors.values()) < result.erroneous_packets:
                yield self.violation(
                    f"category errors sum to "
                    f"{sum(result.category_errors.values())} but "
                    f"{result.erroneous_packets} packets are erroneous",
                    config=label)
            if sum(result.error_runs) != result.erroneous_packets \
                    or any(run < 1 for run in result.error_runs):
                yield self.violation(
                    f"error runs {result.error_runs} do not partition "
                    f"the {result.erroneous_packets} erroneous packets",
                    config=label)
            if len(result.fault_sites) != result.injected_faults:
                yield self.violation(
                    f"{len(result.fault_sites)} fault sites recorded for "
                    f"{result.injected_faults} injected faults",
                    config=label)
            if not 0.0 <= result.l1d_miss_rate <= 1.0:
                yield self.violation(
                    f"L1D miss rate {result.l1d_miss_rate} outside [0, 1]",
                    config=label)
            negative = {name: value for name, value in result.energy.items()
                        if value < 0}
            if negative:
                yield self.violation(
                    f"negative energy components {negative}", config=label)
            if result.cycles < 0 or result.instructions < 0:
                yield self.violation(
                    f"negative cycle ({result.cycles}) or instruction "
                    f"({result.instructions}) count", config=label)


@register_invariant
class ConfigRoundTrip(Invariant):
    """A result's config survives the JSON round-trip unchanged."""

    id = "config-roundtrip"
    short = "config to_json/from_json round-trips to equality"
    paper = "(store/campaign provenance; DESIGN.md section 9)"
    per_result = True

    def check(self, results: "list[ExperimentResult]",
              ) -> "Iterator[Violation]":
        for result in results:
            rebuilt = ExperimentConfig.from_json(result.config.to_json())
            if rebuilt != result.config:
                yield self.violation(
                    "config changed identity across to_json/from_json",
                    config=result.config.label)
