"""Execution-backend registry: how a batch of configs becomes results.

A *backend* is a strategy for turning :class:`ExperimentConfig` batches
into :class:`ExperimentResult` lists.  The harness ships two:

``execute``
    the faithful path -- every config runs the full Python kernel
    through ``harness/experiment.py`` (registered by
    :mod:`repro.harness.engine` at import).
``replay``
    the trace-replay path -- each (app, workload) pair is executed
    once to record a canonical access trace, and every further config
    is swept over the recorded trace with a vectorized numpy
    fault/recovery/energy pipeline, falling back to faithful
    execution when the fault law touches a branched-on value
    (registered by :mod:`repro.replay.backend`).

This module holds only names and the registry -- it imports nothing
from the rest of the harness, so ``config.py`` can validate backend
names without creating an import cycle.  Backend modules self-register
at import; :func:`backend_runner` lazily imports the owning module (via
:data:`BACKEND_MODULES`) on first use, so callers never need to
pre-import :mod:`repro.replay`.  A backend module may also define
optional module-level hooks, which the harness reaches by module name
alone: ``configure_backend(cache_dir)`` (:func:`configure_backend`),
``warm(config)`` (:func:`warm_backend`) and ``fallback_reasons()``
(:func:`backend_fallbacks`).
"""

from __future__ import annotations

import argparse
import importlib
from typing import Callable, List

#: Backend name -> module whose import registers the runner.
BACKEND_MODULES = {
    "execute": "repro.harness.engine",
    "replay": "repro.replay.backend",
}

#: Every selectable backend name, in declaration order.
BACKEND_NAMES = tuple(BACKEND_MODULES)

#: A backend runner maps a config batch to results, index-aligned.
BackendRunner = Callable[..., List]

_BACKEND_RUNNERS: "dict[str, BackendRunner]" = {}


def register_backend(name: str, runner: BackendRunner) -> None:
    """Register ``runner`` as the implementation of backend ``name``.

    Called at import time by the owning module listed in
    :data:`BACKEND_MODULES`; re-registration replaces the runner (so
    reloading a backend module in tests is harmless).
    """
    if name not in BACKEND_NAMES:
        raise ValueError(f"unknown backend {name!r}; "
                         f"expected one of {BACKEND_NAMES}")
    _BACKEND_RUNNERS[name] = runner


def backend_parent_parser() -> argparse.ArgumentParser:
    """The shared ``--backend`` option, as an argparse parent parser.

    Every experiment-running subcommand (figures/tables campaigns,
    ``trace``) composes this via ``parents=[...]`` so the flag is
    defined -- and documented -- exactly once.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--backend", choices=sorted(BACKEND_NAMES), default="execute",
        help="execution backend: 'execute' runs every config through "
             "the faithful Python kernel; 'replay' records one "
             "fault-free access trace per workload and re-prices each "
             "(Cr, policy, injector, seed) config over it with a "
             "vectorized fault/recovery/energy pipeline, falling back "
             "to faithful execution for configs it cannot model "
             "(default execute)")
    return parent


def _backend_hook(name: str, hook: str) -> "Callable | None":
    """Backend ``name``'s optional module-level ``hook``, or ``None``.

    Imports the owning module from :data:`BACKEND_MODULES`, so the
    harness never imports a backend package directly.
    """
    if name not in BACKEND_NAMES:
        raise ValueError(f"unknown backend {name!r}; "
                         f"expected one of {BACKEND_NAMES}")
    module = importlib.import_module(BACKEND_MODULES[name])
    return getattr(module, hook, None)


def configure_backend(name: str, cache_dir: "str | None") -> None:
    """Point backend ``name``'s persistent artifacts at ``cache_dir``.

    Calls the owning module's optional ``configure_backend(cache_dir)``
    hook; backends without persistent state (``execute`` -- result
    caching lives in the engine's
    :class:`~repro.harness.store.ResultStore`) simply lack the hook and
    this is a no-op.
    """
    configure = _backend_hook(name, "configure_backend")
    if configure is not None:
        configure(cache_dir)


def warm_backend(name: str, config: object) -> None:
    """Let backend ``name`` prepare ``config``'s workload.

    Calls the owning module's optional ``warm(config)`` hook.  The golden
    cache calls this on a miss, before it runs a golden execution of its
    own: the ``replay`` hook records the workload's trace, and that
    fault-free recording adopts its observations as the golden ones
    (:func:`~repro.harness.experiment.remember_golden`).  ``execute`` has
    no hook.
    """
    warm = _backend_hook(name, "warm")
    if warm is not None:
        warm(config)


def backend_fallbacks(name: str) -> "dict[str, int]":
    """Backend ``name``'s fallbacks to faithful execution since process
    start, per reason, from its optional ``fallback_reasons()`` hook
    (empty for a backend without one, such as ``execute``)."""
    reasons = _backend_hook(name, "fallback_reasons")
    return {} if reasons is None else reasons()


def backend_runner(name: str) -> BackendRunner:
    """The runner registered for ``name``, importing its module if needed."""
    if name not in BACKEND_NAMES:
        raise ValueError(f"unknown backend {name!r}; "
                         f"expected one of {BACKEND_NAMES}")
    if name not in _BACKEND_RUNNERS:
        importlib.import_module(BACKEND_MODULES[name])
    try:
        return _BACKEND_RUNNERS[name]
    except KeyError:
        raise RuntimeError(
            f"backend {name!r} did not register a runner; "
            f"import {BACKEND_MODULES[name]} (or repro.api) first"
        ) from None
