"""Rule ``layering``: the package import DAG and telemetry containment.

The simulator is layered so that the fault surface is auditable: pure
physics (``core``) and packet formats (``net``) at the bottom, the
simulated machine (``cpu``, ``mem``) above them, application kernels
(``apps``) above that, and the orchestration (``system``, ``harness``)
on top.  ``util`` is a dependency-free bottom layer everyone may use;
``analysis`` (this linter) is deliberately standalone.

Telemetry is special: it must be *non-perturbing* (PR 1), so only the
instrumented layers -- ``mem``, ``system``, ``harness`` -- may import
it, and nothing in telemetry may import upward (the regression class
this rule was written for: ``telemetry/report.py`` once lazily imported
``harness.report``).

Lazy imports inside functions count: an upward import is an upward
dependency no matter when it executes.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import FileContext, Rule, register
from repro.analysis.findings import Finding

#: layer -> layers it may import.  ``repro`` is the package root:
#: ``__init__`` imports nothing, and ``__main__`` dispatches to the
#: harness and oracle command lines.
LAYER_DAG: "dict[str, frozenset[str]]" = {
    "util": frozenset(),
    "net": frozenset({"util"}),
    "core": frozenset({"util"}),
    "cpu": frozenset({"core", "util"}),
    "telemetry": frozenset({"core", "util"}),
    "mem": frozenset({"core", "cpu", "telemetry", "util"}),
    "apps": frozenset({"net", "mem", "cpu", "core", "util"}),
    "analysis": frozenset({"util"}),
    "system": frozenset({"net", "mem", "cpu", "core", "apps",
                         "telemetry", "util"}),
    "harness": frozenset({"net", "mem", "cpu", "core", "apps",
                          "telemetry", "system", "analysis", "util"}),
    # The replay backend records through the faithful harness and
    # re-prices traces above it.  The harness must never import it back:
    # its one crossing is harness.experiment.replay_backend(), a single
    # importlib call by module *name*, so replay sits strictly above
    # harness and below the oracle that verifies it.
    "replay": frozenset({"net", "mem", "cpu", "core", "apps", "harness",
                         "util"}),
    # The verification oracle treats the simulator as the system under
    # test: it drives the harness and the replay backend (and everything
    # below them) but nothing may import it except the package root and
    # the facade.
    "oracle": frozenset({"net", "mem", "cpu", "core", "apps", "telemetry",
                         "system", "harness", "replay", "util"}),
    # The public facade (repro/api.py) sits beside the package root: it
    # re-exports the supported surface and may therefore reach anything.
    "api": frozenset({"net", "mem", "cpu", "core", "apps", "telemetry",
                      "system", "harness", "replay", "analysis", "oracle",
                      "util"}),
    "repro": frozenset({"net", "mem", "cpu", "core", "apps", "telemetry",
                        "system", "harness", "replay", "analysis",
                        "oracle", "util", "api"}),
}

#: Layers that may import :mod:`repro.telemetry` (the instrumented
#: consumers); implied by LAYER_DAG but named for the error message.
TELEMETRY_CONSUMERS = frozenset({"mem", "system", "harness", "oracle",
                                 "telemetry", "api", "repro"})


def _imported_repro_modules(context: FileContext,
                            node: ast.AST) -> "list[str]":
    """Absolute ``repro.*`` module targets of one import statement."""
    targets: "list[str]" = []
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name == "repro" or alias.name.startswith("repro."):
                targets.append(alias.name)
    elif isinstance(node, ast.ImportFrom):
        if node.level == 0:
            module = node.module or ""
            if module == "repro" or module.startswith("repro."):
                targets.append(module)
        elif context.module is not None:
            # Resolve a relative import against the containing package.
            parts = context.module.split(".")
            if context.path.endswith("__init__.py"):
                parts = parts + ["__init__"]
            if node.level < len(parts):
                base = parts[:len(parts) - node.level]
                module = ".".join(base + ([node.module]
                                          if node.module else []))
                if module == "repro" or module.startswith("repro."):
                    targets.append(module)
    return targets


def _layer_of(module: str) -> str:
    parts = module.split(".")
    if len(parts) == 1 or parts[1].startswith("__"):
        return "repro"
    return parts[1]


@register
class LayeringRule(Rule):
    """Enforce the import DAG and telemetry non-perturbation."""

    id = "layering"
    short = ("imports must follow the layer DAG "
             "(util < net/core < cpu/telemetry < mem < apps < "
             "system < harness < replay < oracle); telemetry "
             "only from its consumers")
    rationale = ("a layered fault surface keeps every simulated access "
                 "auditable, and telemetry stays non-perturbing when "
                 "only the instrumented layers can reach it")

    def check(self, context: FileContext) -> "Iterator[Finding]":
        source_layer = context.layer()
        if source_layer is None:
            return
        allowed = LAYER_DAG.get(source_layer)
        if allowed is None:
            yield self.finding(
                context, context.tree,
                f"module {context.module} is in unknown layer "
                f"{source_layer!r}; add it to the layer DAG in "
                f"repro/analysis/rules/layering.py")
            return
        if source_layer == "repro":
            return
        for node in ast.walk(context.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for target in _imported_repro_modules(context, node):
                target_layer = _layer_of(target)
                if target_layer == source_layer:
                    continue
                if target_layer == "telemetry" and \
                        source_layer not in TELEMETRY_CONSUMERS:
                    yield self.finding(
                        context, node,
                        f"layer {source_layer!r} imports {target}: only "
                        f"the instrumented consumers "
                        f"({', '.join(sorted(TELEMETRY_CONSUMERS - {'repro', 'telemetry'}))}) "
                        f"may import telemetry -- it must stay "
                        f"non-perturbing")
                elif target_layer not in allowed:
                    yield self.finding(
                        context, node,
                        f"layer {source_layer!r} may not import layer "
                        f"{target_layer!r} ({target}); allowed: "
                        f"{', '.join(sorted(allowed)) or 'nothing'}")
