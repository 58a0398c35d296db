"""Config fuzzer: seeded random walk over the valid experiment space.

The fuzzer samples :class:`~repro.harness.config.ExperimentConfig`
objects from :data:`CONFIG_SPACE` -- a dict of named axes whose index-0
value is the most benign setting -- runs each through the simulator, and
checks the per-result metamorphic invariants
(:func:`repro.oracle.invariants.per_result_invariant_ids`).  A failing
config is *shrunk*: axes are greedily walked back toward index 0 while
the failure persists, so the filed repro is minimal in the partial order
the axis ordering defines.  Failures land in a corpus directory as JSON
files replayable by :func:`replay_corpus_entry` (and by
``CampaignEngine.run_one`` after ``ExperimentConfig.from_json``).

Everything is seeded: the same ``(seed, budget, space)`` triple visits
the same configs in the same order, so a corpus entry names the exact
trial that produced it.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from repro.core.constants import NETBENCH_APPS, RELATIVE_CYCLE_LEVELS
from repro.core.recovery import policy_by_name
from repro.harness.config import ExperimentConfig
from repro.harness.experiment import run_experiment
from repro.mem.faults import INJECTOR_NAMES
from repro.oracle.invariants import check_invariants, per_result_invariant_ids
from repro.telemetry.metrics import CounterSet

#: Schema tag stamped into corpus entries so stale files fail loudly.
CORPUS_SCHEMA = "repro-oracle-fuzz-v1"

#: A failure probe: config in, rendered violation messages out (empty =
#: the config passes).  :func:`invariant_probe` is the default; meta-
#: tests substitute their own to seed defects.
Probe = Callable[[ExperimentConfig], "tuple[str, ...]"]

#: The fuzzable axes.  Every combination is a *valid* config by
#: construction (``build_config`` never trips ``__post_init__``
#: validation), index 0 is the most benign value of each axis (the
#: shrinking target), and the dict order is the shrinker's axis order.
#: ``burst`` bundles the three burst fields because they are only valid
#: together.
CONFIG_SPACE: "dict[str, tuple]" = {
    "app": NETBENCH_APPS,
    "cycle_time": tuple(sorted(RELATIVE_CYCLE_LEVELS, reverse=True)),
    "policy": ("no-detection", "one-strike", "two-strike", "three-strike",
               "secded", "two-strike-subblock"),
    "dynamic": (False, True),
    "injector": INJECTOR_NAMES,
    "planes": ("both", "control", "data", "none"),
    "fault_scale": (10.0, 0.0, 30.0),
    "seed": (7, 11, 23),
    "packet_count": (25, 40),
    "burst": ((0.0, 0, 1.0), (0.05, 4, 8.0)),
    "l1_size_bytes": (4096, 1024),
    "l1_associativity": (1, 2),
}


def _space_with_apps(apps: "tuple[str, ...] | None",
                     ) -> "dict[str, tuple]":
    """CONFIG_SPACE with the app axis restricted to ``apps`` (in order)."""
    if apps is None:
        return dict(CONFIG_SPACE)
    unknown = sorted(set(apps) - set(NETBENCH_APPS))
    if unknown:
        raise ValueError(f"unknown app(s) {unknown}; "
                         f"expected a subset of {NETBENCH_APPS}")
    space = dict(CONFIG_SPACE)
    space["app"] = tuple(app for app in NETBENCH_APPS if app in apps)
    if not space["app"]:
        raise ValueError("the app axis cannot be empty")
    return space


def build_config(choices: "dict[str, int]",
                 space: "dict[str, tuple] | None" = None,
                 ) -> ExperimentConfig:
    """Materialise an :class:`ExperimentConfig` from per-axis indices."""
    space = CONFIG_SPACE if space is None else space
    if sorted(choices) != sorted(space):
        raise ValueError(f"choices must name exactly the axes "
                         f"{sorted(space)}, got {sorted(choices)}")
    values = {}
    for axis, options in space.items():
        index = choices[axis]
        if not 0 <= index < len(options):
            raise ValueError(f"axis {axis!r} index {index} outside "
                             f"[0, {len(options)})")
        values[axis] = options[index]
    burst_start, burst_length, burst_multiplier = values.pop("burst")
    values["policy"] = policy_by_name(values["policy"])
    return ExperimentConfig(
        burst_start_probability=burst_start, burst_length=burst_length,
        burst_multiplier=burst_multiplier, **values)


def config_size(choices: "dict[str, int]") -> int:
    """Shrinking metric: the sum of axis indices (0 = all-benign)."""
    return sum(choices.values())


def invariant_probe(config: ExperimentConfig) -> "tuple[str, ...]":
    """The default failure probe: per-result invariants on one run.

    Returns rendered violation messages; an empty tuple means the config
    passes.  Meta-tests substitute their own probes to seed defects.
    """
    result = run_experiment(config)
    violations = check_invariants([result], only=per_result_invariant_ids())
    return tuple(violation.render() for violation in violations)


def shrink_config(choices: "dict[str, int]", probe: Probe,
                  space: "dict[str, tuple] | None" = None,
                  counters: "CounterSet | None" = None,
                  ) -> "dict[str, int]":
    """Greedily walk a failing config toward all-benign axis settings.

    ``probe`` maps a config to a tuple of failure messages (empty =
    passing).  For each axis, the smallest index that still fails is
    kept; the loop repeats until a full pass makes no progress, so the
    returned choices are 1-minimal: lowering any single axis further
    would make the failure disappear.  The input must fail the probe.
    """
    space = CONFIG_SPACE if space is None else space
    if not probe(build_config(choices, space)):
        raise ValueError("shrink_config needs a failing config")
    current = dict(choices)
    improved = True
    while improved:
        improved = False
        for axis in space:
            for candidate_index in range(current[axis]):
                candidate = dict(current)
                candidate[axis] = candidate_index
                if counters is not None:
                    counters.bump("oracle.fuzz.shrink_probes")
                if probe(build_config(candidate, space)):
                    current = candidate
                    improved = True
                    break
    return current


@dataclass(frozen=True)
class FuzzFailure:
    """One fuzz trial whose config failed the probe."""

    trial: int                         #: 0-based index in the fuzz run
    choices: "tuple[tuple[str, int], ...]"  #: sampled axis indices
    label: str                         #: sampled config's label
    messages: "tuple[str, ...]"        #: probe failure messages
    shrunk_choices: "tuple[tuple[str, int], ...]"  #: minimised indices
    shrunk_label: str                  #: minimised config's label
    corpus_path: "str | None" = None   #: where the repro was filed

    def render(self) -> str:
        """One-line report form."""
        text = (f"trial {self.trial}: {self.label} -> "
                f"shrunk to {self.shrunk_label}: {self.messages[0]}")
        if self.corpus_path:
            text += f" (filed at {self.corpus_path})"
        return text


@dataclass(frozen=True)
class FuzzReport:
    """Outcome of one seeded fuzz run."""

    seed: int
    budget: int
    trials: int
    failures: "tuple[FuzzFailure, ...]"

    @property
    def ok(self) -> bool:
        """Whether every trial passed the probe."""
        return not self.failures

    def render(self) -> str:
        """Multi-line report form."""
        lines = [f"fuzz: seed={self.seed} trials={self.trials}/"
                 f"{self.budget} failures={len(self.failures)}"]
        lines.extend("  " + failure.render() for failure in self.failures)
        return "\n".join(lines)


class ConfigFuzzer:
    """Seeded random-walk sampler + shrink + corpus filing."""

    def __init__(self, seed: int = 0,
                 space: "dict[str, tuple] | None" = None,
                 probe: "Probe | None" = None,
                 counters: "CounterSet | None" = None) -> None:
        self.seed = seed
        self.space = dict(CONFIG_SPACE if space is None else space)
        self.probe = invariant_probe if probe is None else probe
        self.counters = counters
        self._rng = random.Random(seed)

    def sample(self) -> "dict[str, int]":
        """Draw one uniformly random choices dict (advances the walk)."""
        return {axis: self._rng.randrange(len(options))
                for axis, options in self.space.items()}

    def run(self, budget: int, shrink: bool = True,
            corpus_dir: "str | None" = None) -> FuzzReport:
        """Probe ``budget`` sampled configs, shrinking and filing failures."""
        if budget < 1:
            raise ValueError("fuzz budget must be positive")
        failures: "list[FuzzFailure]" = []
        trials = 0
        for trial in range(budget):
            choices = self.sample()
            trials += 1
            if self.counters is not None:
                self.counters.bump("oracle.fuzz.trials")
            messages = self.probe(build_config(choices, self.space))
            if not messages:
                continue
            if self.counters is not None:
                self.counters.bump("oracle.fuzz.failures")
            shrunk = (shrink_config(choices, self.probe, self.space,
                                    counters=self.counters)
                      if shrink else dict(choices))
            failures.append(self._file(trial, choices, messages, shrunk,
                                       corpus_dir))
        return FuzzReport(seed=self.seed, budget=budget, trials=trials,
                          failures=tuple(failures))

    def _file(self, trial: int, choices: "dict[str, int]",
              messages: "tuple[str, ...]", shrunk: "dict[str, int]",
              corpus_dir: "str | None") -> FuzzFailure:
        label = build_config(choices, self.space).label
        shrunk_config = build_config(shrunk, self.space)
        corpus_path: "str | None" = None
        if corpus_dir is not None:
            os.makedirs(corpus_dir, exist_ok=True)
            corpus_path = os.path.join(
                corpus_dir, f"fuzz-s{self.seed}-t{trial:04d}.json")
            entry = {
                "schema": CORPUS_SCHEMA,
                "fuzz_seed": self.seed,
                "trial": trial,
                "choices": dict(choices),
                "shrunk_choices": dict(shrunk),
                "config": shrunk_config.to_json(),
                "messages": list(messages),
            }
            with open(corpus_path, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, indent=2, sort_keys=True)
                handle.write("\n")
        return FuzzFailure(
            trial=trial, choices=tuple(sorted(choices.items())),
            label=label, messages=messages,
            shrunk_choices=tuple(sorted(shrunk.items())),
            shrunk_label=shrunk_config.label, corpus_path=corpus_path)


def run_fuzz(budget: int, seed: int = 0,
             apps: "tuple[str, ...] | None" = None,
             probe: "Probe | None" = None,
             corpus_dir: "str | None" = None,
             counters: "CounterSet | None" = None,
             shrink: bool = True) -> FuzzReport:
    """One seeded fuzz run over (optionally app-restricted) CONFIG_SPACE."""
    fuzzer = ConfigFuzzer(seed=seed, space=_space_with_apps(apps),
                          probe=probe, counters=counters)
    return fuzzer.run(budget, shrink=shrink, corpus_dir=corpus_dir)


def replay_corpus_entry(path: str, probe: "Probe | None" = None,
                        ) -> "tuple[ExperimentConfig, tuple[str, ...]]":
    """Re-run one filed corpus entry; returns (config, failure messages).

    An empty message tuple means the previously filed failure no longer
    reproduces (the defect was fixed).  Unknown schemas fail loudly.
    """
    with open(path, "r", encoding="utf-8") as handle:
        entry = json.load(handle)
    if entry.get("schema") != CORPUS_SCHEMA:
        raise ValueError(f"unknown corpus schema {entry.get('schema')!r} "
                         f"in {path}; expected {CORPUS_SCHEMA}")
    config = ExperimentConfig.from_json(entry["config"])
    probe = invariant_probe if probe is None else probe
    return config, tuple(probe(config))
