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
pre-import :mod:`repro.replay`.
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


def configure_backend(name: str, cache_dir: "str | None") -> None:
    """Point backend ``name``'s persistent artifacts at ``cache_dir``.

    Imports the owning module and calls its optional module-level
    ``configure_backend(cache_dir)`` hook; backends without persistent
    state (``execute`` -- result caching lives in the engine's
    :class:`~repro.harness.store.ResultStore`) simply lack the hook and
    this is a no-op.
    """
    if name not in BACKEND_NAMES:
        raise ValueError(f"unknown backend {name!r}; "
                         f"expected one of {BACKEND_NAMES}")
    module = importlib.import_module(BACKEND_MODULES[name])
    configure = getattr(module, "configure_backend", None)
    if configure is not None:
        configure(cache_dir)


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
