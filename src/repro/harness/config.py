"""Experiment configuration (one simulated processor+application run)."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from repro.core.constants import NETBENCH_APPS, RELATIVE_CYCLE_LEVELS
from repro.core.recovery import NO_DETECTION, RecoveryPolicy, policy_by_name
from repro.mem.faults import INJECTOR_NAMES

#: Where fault injection is active (paper Figures 6/7 study the planes
#: separately).
PLANES = ("control", "data", "both", "none")

#: Default acceleration of the physical fault rate for scaled-down runs;
#: see DESIGN.md ("Substitutions") and the fault-scale ablation bench.
DEFAULT_FAULT_SCALE = 10.0

#: How a config becomes a result: ``"execute"`` runs the faithful
#: kernel, ``"replay"`` re-prices a recorded trace
#: (:mod:`repro.replay.backend`).
BACKEND_NAMES = ("execute", "replay")

#: Why a ``replay`` config falls back to faithful execution, each
#: counted as ``replay.fallback.<reason>``: the static refusals of
#: :func:`~repro.replay.replayer.decline_reason`, then ``"diverged"``
#: (a sampled fault the replayer cannot bound).
FALLBACK_REASONS = ("l2-fill", "burst", "diverged")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines one golden-vs-faulty comparison run.

    The workload is ``(app, packet_count, seed)``; ``cycle_time`` (or
    ``dynamic``) clocks the L1 data cache of both planes.

    ``injector`` selects the fault-sampling implementation (see
    :data:`repro.mem.faults.INJECTOR_NAMES`): ``"reference"`` draws one
    Bernoulli sample per access exactly as the seed snapshots were
    frozen, ``"geometric"`` skip-samples the inter-fault gaps (same
    per-access fault law, ~order-of-magnitude cheaper per fault-free
    access).  The two are statistically indistinguishable but not
    RNG-stream identical, so absolute fault placements differ run to
    run; see EXPERIMENTS.md for when results are comparable.

    ``backend`` selects the execution strategy (see
    :data:`BACKEND_NAMES`): ``"execute"`` runs
    the full Python kernel faithfully, ``"replay"`` sweeps a recorded
    access trace through the vectorized replayer (recording the trace
    on first use, falling back to faithful execution when the fault
    law touches a branched-on value).  The backend is part of a
    config's identity -- the two lanes are verified equivalent by the
    oracle's replay twin but cached separately.
    """

    app: str
    packet_count: int = 300
    seed: int = 7
    cycle_time: float = 1.0
    policy: RecoveryPolicy = NO_DETECTION
    dynamic: bool = False
    fault_scale: float = DEFAULT_FAULT_SCALE
    planes: str = "both"
    l1_size_bytes: int = 4 * 1024
    l1_associativity: int = 1
    burst_start_probability: float = 0.0
    burst_length: int = 0
    burst_multiplier: float = 1.0
    l2_fill_fault_probability: float = 0.0
    injector: str = "reference"
    backend: str = "execute"

    def __post_init__(self) -> None:
        if self.app not in NETBENCH_APPS:
            raise ValueError(f"unknown application {self.app!r}")
        if self.packet_count < 1:
            raise ValueError("packet count must be positive")
        if self.planes not in PLANES:
            raise ValueError(f"planes must be one of {PLANES}")
        if self.fault_scale < 0:
            raise ValueError("fault scale must be non-negative")
        if not self.dynamic and self.cycle_time not in RELATIVE_CYCLE_LEVELS:
            raise ValueError(
                f"static cycle time must be one of {RELATIVE_CYCLE_LEVELS}")
        if self.l1_size_bytes < 64 or self.l1_size_bytes & (self.l1_size_bytes - 1):
            raise ValueError("L1 size must be a power of two >= 64")
        if self.l1_associativity < 1:
            raise ValueError("L1 associativity must be positive")
        if not 0.0 <= self.burst_start_probability <= 1.0:
            raise ValueError("burst start probability must be in [0, 1]")
        if self.burst_start_probability > 0 and self.burst_length < 1:
            raise ValueError("bursts need a positive length")
        if self.burst_multiplier < 1.0:
            raise ValueError("burst multiplier must be >= 1")
        if not 0.0 <= self.l2_fill_fault_probability <= 1.0:
            raise ValueError("L2 fill fault probability must be in [0, 1]")
        if self.injector not in INJECTOR_NAMES:
            raise ValueError(
                f"injector must be one of {INJECTOR_NAMES}, "
                f"got {self.injector!r}")
        if self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"backend must be one of {BACKEND_NAMES}, "
                f"got {self.backend!r}")

    @property
    def label(self) -> str:
        """Short human-readable identity for reports."""
        clock = "dynamic" if self.dynamic else f"Cr={self.cycle_time}"
        label = f"{self.app}/{clock}/{self.policy.name}/{self.planes}"
        if self.injector != "reference":
            label += f"/{self.injector}"
        if self.backend != "execute":
            label += f"/{self.backend}"
        return label

    @property
    def injector_seed(self) -> int:
        """The fault injector's seed, derived from ``seed`` (not a field,
        so it is not in the JSON form or the store key).  Execute, the
        trace recorder and the replayer all seed from it, so seed
        replicas decorrelate identically on both backends."""
        return self.seed * 1_000_003 + 17

    def golden(self) -> "ExperimentConfig":
        """The fault-free reference variant of this configuration.

        Golden observations depend only on the workload identity (app,
        packet count, seed) -- never on the clock,
        policy, or fault scale -- so the golden config drops every other
        axis back to its default.  The injector is always the
        skip-capable ``geometric`` one: a disabled injector draws no
        faults whatever its implementation, so it cannot change the
        observations, and this one lets every golden run ride the
        MemView fast lane.  This is the one sanctioned way to build a
        reference run (the profiler and the golden cache both use it).
        The golden cache has one other sanctioned source: the replay
        backend's trace recording (:func:`repro.replay.record.record_trace`)
        is a fault-free run of the same workload and hands its
        observations over through
        :func:`repro.harness.experiment.remember_golden`.
        """
        return ExperimentConfig(
            app=self.app, packet_count=self.packet_count, seed=self.seed,
            injector="geometric")

    def to_json(self) -> "dict[str, object]":
        """Canonical JSON-safe representation (the store key's substrate).

        The mapping is lossless and stable: every field appears under its
        dataclass name, in field order, and the recovery policy is
        serialized as its registry *name* when registered (enums as
        names) and as its field mapping otherwise.
        """
        try:
            registered = policy_by_name(self.policy.name)
        except ValueError:
            registered = None
        payload = {field.name: getattr(self, field.name)
                   for field in fields(self)}
        payload["policy"] = (self.policy.name if registered == self.policy
                             else {"name": self.policy.name,
                                   "strikes": self.policy.strikes,
                                   "code": self.policy.code,
                                   "sub_block": self.policy.sub_block})
        return payload

    @classmethod
    def from_json(cls, data: "dict[str, object]") -> "ExperimentConfig":
        """Rebuild a config from :meth:`to_json` output (or CLI fields).

        ``policy`` may be a registry name (``"two-strike"``) or a field
        mapping for unregistered policies.  Unknown keys are rejected so
        stale cache entries fail loudly instead of silently dropping an
        axis.  Validation runs through ``__post_init__`` as usual.
        """
        payload = dict(data)
        policy = payload.pop("policy", NO_DETECTION)
        if isinstance(policy, str):
            policy = policy_by_name(policy)
        elif isinstance(policy, dict):
            policy = RecoveryPolicy(**policy)
        unknown = sorted(set(payload)
                         - {field.name for field in fields(cls)})
        if unknown:
            raise ValueError(
                f"unknown ExperimentConfig field(s) {unknown}; the entry "
                f"was written by an incompatible schema")
        return cls(policy=policy, **payload)

    def with_options(self, **overrides: object) -> "ExperimentConfig":
        """This config with the named fields replaced (keyword-only).

        The sanctioned way to derive config variants -- seed replicas,
        injector twins, backend switches -- replacing the scattered
        ``dataclasses.replace`` call sites.  Unknown keys are rejected
        with the full field list (``dataclasses.replace`` would too,
        but with a constructor-shaped error); validation runs through
        ``__post_init__`` as usual.
        """
        field_names = tuple(self.__dataclass_fields__)
        unknown = sorted(set(overrides) - set(field_names))
        if unknown:
            raise ValueError(
                f"unknown ExperimentConfig field(s) {unknown}; "
                f"available fields: {field_names}")
        return replace(self, **overrides)  # type: ignore[arg-type]
