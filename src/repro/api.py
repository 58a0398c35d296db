"""The stable public API of the reproduction.

This module is *the* supported import surface: everything an external
caller needs to configure, run, persist, and resume experiments is
re-exported here under one roof, and nothing outside the ``repro``
package is required to use it (reprolint's ``private-import`` rule
checks both properties against this file's ``__all__``).

Internal module paths (``repro.harness.experiment``,
``repro.harness.store``, ...) remain importable but are not covenants;
code that wants stability across versions should import from
``repro.api``::

    from repro.api import (
        CampaignEngine, ExperimentConfig, ResultStore, Tracer,
        run_experiment)

    tracer = Tracer()
    result = run_experiment(ExperimentConfig(app="route", cycle_time=0.5),
                            tracer=tracer)
    engine = CampaignEngine(store=ResultStore(".repro-cache"))
    results = engine.run([ExperimentConfig(app="route", cycle_time=0.5,
                                           backend="replay")])

A config becomes a result in one of two ways: :func:`run_experiment`
(one faithful, uncached run, and the only place a tracer or a scripted
injector attaches) or :meth:`CampaignEngine.run` (the cached batch path,
which honours ``config.backend``).  The surface covers seven layers of
use:

* **single runs** -- :func:`run_experiment`, its config/result types
  :class:`ExperimentConfig` (``with_options`` for keyword-only
  derivation) and :class:`ExperimentResult` (JSON round-trip via
  ``to_json``/``from_json``);
* **execution backends** -- :data:`BACKEND_NAMES` (``"execute"`` runs
  the faithful kernel, ``"replay"`` re-prices a recorded trace; select
  via ``ExperimentConfig(backend=...)`` and run through
  :meth:`CampaignEngine.run`).  The trace-replay machinery itself stays
  in :mod:`repro.replay.record`, :mod:`repro.replay.replayer`,
  :mod:`repro.replay.trace` and :mod:`repro.replay.backend`, the only
  modules that import numpy, so importing this facade loads no numpy;
* **sweeps and campaigns** -- :class:`CampaignEngine`,
  :func:`default_engine`, :func:`map_parallel`;
* **persistence** -- :class:`ResultStore`, :func:`config_key`,
  :func:`canonical_json`;
* **policies and systems** -- the paper's recovery policies,
  :func:`policy_by_name`, :func:`run_multicore`, and the
  :class:`Tracer` observation hook;
* **fault sampling** -- :class:`FaultInjector` (the per-access
  reference sampler), :class:`GeometricFaultInjector` (the skip-sampling
  equivalent behind ``ExperimentConfig(injector="geometric")``), and
  :data:`INJECTOR_NAMES`;
* **verification** -- the oracle subsystem behind ``python -m repro
  check`` (see docs/VERIFICATION.md): :func:`run_check` /
  :class:`OracleReport`, the differential twins (:func:`run_differential`,
  :class:`Divergence`), the metamorphic invariants
  (:func:`check_invariants`, :func:`register_invariant`,
  :class:`Violation`), and the config fuzzer (:func:`run_fuzz`,
  :class:`FuzzReport`, :func:`replay_corpus_entry`).
"""

from __future__ import annotations

from repro.core.recovery import (
    ALL_POLICIES,
    EXTENSION_POLICIES,
    NO_DETECTION,
    ONE_STRIKE,
    RecoveryPolicy,
    THREE_STRIKE,
    TWO_STRIKE,
    policy_by_name,
)
from repro.harness.config import (
    BACKEND_NAMES,
    DEFAULT_FAULT_SCALE,
    PLANES,
    ExperimentConfig,
)
from repro.harness.engine import CampaignEngine, default_engine
from repro.harness.experiment import ExperimentResult, run_experiment
from repro.harness.parallel import map_parallel
from repro.harness.store import (
    CODE_VERSION,
    ResultStore,
    canonical_json,
    config_key,
)
from repro.mem.faults import (
    INJECTOR_NAMES,
    FaultInjector,
    GeometricFaultInjector,
    make_injector,
)
from repro.oracle.check import OracleReport, run_check
from repro.oracle.differential import Divergence, run_differential
from repro.oracle.fuzz import FuzzReport, replay_corpus_entry, run_fuzz
from repro.oracle.invariants import (
    Violation,
    check_invariants,
    register_invariant,
)
from repro.system.multicore import MulticoreResult, run_multicore
from repro.telemetry.tracer import NULL_TRACER, Tracer

__all__ = [
    "ALL_POLICIES",
    "BACKEND_NAMES",
    "CODE_VERSION",
    "CampaignEngine",
    "DEFAULT_FAULT_SCALE",
    "Divergence",
    "EXTENSION_POLICIES",
    "ExperimentConfig",
    "ExperimentResult",
    "FaultInjector",
    "FuzzReport",
    "GeometricFaultInjector",
    "INJECTOR_NAMES",
    "MulticoreResult",
    "NO_DETECTION",
    "NULL_TRACER",
    "ONE_STRIKE",
    "OracleReport",
    "PLANES",
    "RecoveryPolicy",
    "ResultStore",
    "THREE_STRIKE",
    "TWO_STRIKE",
    "Tracer",
    "Violation",
    "canonical_json",
    "check_invariants",
    "config_key",
    "default_engine",
    "make_injector",
    "map_parallel",
    "policy_by_name",
    "register_invariant",
    "replay_corpus_entry",
    "run_check",
    "run_differential",
    "run_experiment",
    "run_fuzz",
    "run_multicore",
]
