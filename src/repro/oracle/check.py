"""``python -m repro check``: the combined simulator-verification pass.

One call to :func:`run_check` runs all three oracle mechanisms over the
configured applications:

1. an invariant sweep -- a small per-app campaign across cycle times and
   recovery policies, checked against every registered metamorphic
   invariant (:mod:`repro.oracle.invariants`);
2. the differential twins -- one representative config per app through
   the workers/cache/injector/replay path pairs
   (:mod:`repro.oracle.differential`);
3. a seeded config fuzz -- random-walk configs probed with the
   per-result invariants, failures shrunk and filed
   (:mod:`repro.oracle.fuzz`).

``--quick`` keeps the sweep small enough for CI (tens of 25-packet
runs); ``--deep`` widens every axis and runs dynamic-clock configs long
enough to cross epoch boundaries.  The pass is fully deterministic for a
given (mode, apps, fuzz seed/budget).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

from repro.core.constants import NETBENCH_APPS, RELATIVE_CYCLE_LEVELS
from repro.core.recovery import policy_by_name
from repro.harness.config import ExperimentConfig
from repro.harness.engine import CampaignEngine
from repro.oracle.differential import Divergence, run_differential
from repro.oracle.fuzz import FuzzReport, run_fuzz
from repro.oracle.invariants import Violation, check_invariants
from repro.telemetry.metrics import CounterSet

#: Fault-rate acceleration used by the check sweeps: high enough that a
#: 25-packet run sees real faults (so monotonicity relations have
#: signal), matching the fault-scale ablation bench's upper setting.
CHECK_FAULT_SCALE = 30.0

#: Per-mode sweep shapes.  ``dynamic_packets`` crosses epoch boundaries
#: only in deep mode (100-packet epochs); the quick dynamic run still
#: exercises the controller wiring.
MODES: "dict[str, dict]" = {
    "quick": {
        "packet_count": 25,
        "cycle_times": (1.0, 0.5, 0.25),
        "policies": ("no-detection", "two-strike"),
        "dynamic_packets": 25,
        "seeds": (7, 11),
        "fuzz_budget": 25,
    },
    "deep": {
        "packet_count": 60,
        "cycle_times": RELATIVE_CYCLE_LEVELS,
        "policies": ("no-detection", "one-strike", "two-strike",
                     "three-strike"),
        "dynamic_packets": 300,
        "seeds": (7, 11, 23),
        "fuzz_budget": 100,
    },
}


@dataclass(frozen=True)
class OracleReport:
    """Everything one verification pass found."""

    mode: str
    apps: "tuple[str, ...]"
    divergences: "tuple[Divergence, ...]"
    violations: "tuple[Violation, ...]"
    fuzz: "FuzzReport | None"
    counters: "dict[str, int]"

    @property
    def ok(self) -> bool:
        """Whether every mechanism came back clean."""
        fuzz_ok = self.fuzz is None or self.fuzz.ok
        return not self.divergences and not self.violations and fuzz_ok

    def render(self) -> str:
        """Multi-line terminal report."""
        verdict = "OK" if self.ok else "FAIL"
        lines = [f"oracle check [{self.mode}] over "
                 f"{', '.join(self.apps)}: {verdict}"]
        lines.append(f"  differential: {len(self.divergences)} "
                     f"divergence(s)")
        lines.extend("    " + divergence.render()
                     for divergence in self.divergences)
        lines.append(f"  invariants: {len(self.violations)} violation(s) "
                     f"({self.counters.get('oracle.invariants.checked', 0)}"
                     f" checked)")
        lines.extend("    " + violation.render()
                     for violation in self.violations)
        if self.fuzz is not None:
            lines.append("  " + self.fuzz.render().replace("\n", "\n  "))
        return "\n".join(lines)

    def to_json(self) -> "dict[str, object]":
        """JSON-safe report (the CLI's ``--json`` output)."""
        return {
            "mode": self.mode,
            "apps": list(self.apps),
            "ok": self.ok,
            "divergences": [asdict(divergence)
                            for divergence in self.divergences],
            "violations": [asdict(violation)
                           for violation in self.violations],
            "fuzz": None if self.fuzz is None else asdict(self.fuzz),
            "counters": dict(self.counters),
        }


def _sweep_configs(app: str, shape: "dict") -> "list[ExperimentConfig]":
    """The invariant-sweep configs for one app under one mode shape."""
    configs = [
        ExperimentConfig(
            app=app, packet_count=shape["packet_count"],
            cycle_time=cycle_time, policy=policy_by_name(policy_name),
            fault_scale=CHECK_FAULT_SCALE)
        for cycle_time in shape["cycle_times"]
        for policy_name in shape["policies"]
    ]
    # The grid above runs the reference injector on the direct-mapped
    # default L1; one over-clocked run on the geometric injector's skip
    # lane with a 2-way L1 puts both the fast lane and a set-associative
    # cache under the invariants.
    configs.append(ExperimentConfig(
        app=app, packet_count=shape["packet_count"], cycle_time=0.25,
        policy=policy_by_name("two-strike"),
        fault_scale=CHECK_FAULT_SCALE, injector="geometric",
        l1_associativity=2))
    configs.append(ExperimentConfig(
        app=app, packet_count=shape["dynamic_packets"], dynamic=True,
        policy=policy_by_name("two-strike"),
        fault_scale=CHECK_FAULT_SCALE))
    return configs


def _differential_config(app: str, shape: "dict") -> ExperimentConfig:
    """The representative config each app's twins run."""
    return ExperimentConfig(
        app=app, packet_count=shape["packet_count"], cycle_time=0.5,
        policy=policy_by_name("two-strike"),
        fault_scale=CHECK_FAULT_SCALE)


def run_check(mode: str = "quick",
              apps: "tuple[str, ...] | None" = None,
              fuzz_budget: "int | None" = None,
              fuzz_seed: int = 0,
              corpus_dir: "str | None" = None,
              progress: "Callable[[str], None] | None" = None,
              ) -> OracleReport:
    """Run the three oracle mechanisms; see the module docstring.

    ``fuzz_budget`` of 0 skips the fuzz stage entirely (``None`` uses
    the mode's default); ``corpus_dir`` is where shrunk failing configs
    are filed.  ``progress`` is an optional ``callable(str)``.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; "
                         f"expected one of {sorted(MODES)}")
    shape = MODES[mode]
    if apps is None:
        apps = NETBENCH_APPS
    unknown = sorted(set(apps) - set(NETBENCH_APPS))
    if unknown:
        raise ValueError(f"unknown app(s) {unknown}; "
                         f"expected a subset of {NETBENCH_APPS}")
    apps = tuple(app for app in NETBENCH_APPS if app in apps)
    if not apps:
        raise ValueError("need at least one app")
    if fuzz_budget is None:
        fuzz_budget = shape["fuzz_budget"]
    counters = CounterSet()

    def report(message: str) -> None:
        if progress is not None:
            progress(message)

    engine = CampaignEngine(max_workers=1)
    sweep_results = []
    divergences: "list[Divergence]" = []
    for app in apps:
        counters.bump("oracle.check.apps")
        report(f"check[{mode}] {app}: invariant sweep")
        sweep_results.extend(engine.run(_sweep_configs(app, shape)))
        report(f"check[{mode}] {app}: differential twins")
        divergences.extend(run_differential(
            _differential_config(app, shape), seeds=shape["seeds"],
            counters=counters))
    counters.bump("oracle.check.sweep_results", len(sweep_results))
    violations = check_invariants(sweep_results, counters=counters)
    fuzz: "FuzzReport | None" = None
    if fuzz_budget > 0:
        report(f"check[{mode}]: fuzzing {fuzz_budget} config(s)")
        fuzz = run_fuzz(fuzz_budget, seed=fuzz_seed, apps=apps,
                        corpus_dir=corpus_dir, counters=counters)
        counters.bump("oracle.check.fuzz_failures", len(fuzz.failures))
    counters.bump("oracle.check.divergences", len(divergences))
    counters.bump("oracle.check.violations", len(violations))
    counters.bump("oracle.check.passes" if not divergences and not violations
                  and (fuzz is None or fuzz.ok) else "oracle.check.failures")
    return OracleReport(
        mode=mode, apps=apps, divergences=tuple(divergences),
        violations=tuple(violations), fuzz=fuzz,
        counters=counters.snapshot())
