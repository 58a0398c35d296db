"""Rule ``sim-memory``: application data-plane state lives in simulated memory.

The paper's premise (Section 4) is that *every* data-plane access flows
through the faulty L1: packet buffers, routing structures, and scheduler
state are all exposed to injected faults.  A kernel that keeps per-packet
state in host containers (``self.x = ...`` inside the packet path) or
reaches around :class:`~repro.mem.view.MemView` straight into the
hierarchy silently shrinks the fault surface and biases every error rate
downstream.

Within ``repro.apps``, inside classes deriving from ``NetBenchApp``:

* methods other than ``__init__``/``control_plane``/``run_control_plane``
  /``register_static_region`` are considered data-plane, and may not
  assign to ``self`` attributes, assign into ``self`` containers, or call
  mutating container methods on them;
* no method may call through ``.hierarchy.`` except the architectural
  ``inspect`` (zero-cost observation used for golden comparison).

Genuine observation counters (values already read through the faulty
cache, recorded for post-run analysis) should carry an inline
``# reprolint: disable=sim-memory`` with a justification.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import FileContext, Rule, register
from repro.analysis.findings import Finding

#: Methods allowed to mutate host-side state (construction/control
#: plane).
CONTROL_PLANE_METHODS = frozenset({
    "__init__", "control_plane", "run_control_plane",
    "register_static_region",
})

#: Mutating container methods that store state host-side.
_MUTATING_METHODS = frozenset({
    "append", "add", "update", "setdefault", "insert", "extend",
    "pop", "popitem", "remove", "clear", "appendleft",
})

#: The only attribute reachable through ``.hierarchy.`` in app code:
#: architectural inspection (free, used for the golden comparison).
_ALLOWED_HIERARCHY_ATTRS = frozenset({"inspect"})


def _is_netbench_class(node: ast.ClassDef) -> bool:
    """Whether the class names ``NetBenchApp`` as a direct base."""
    for base in node.bases:
        if isinstance(base, ast.Name) and base.id == "NetBenchApp":
            return True
        if isinstance(base, ast.Attribute) and base.attr == "NetBenchApp":
            return True
    return False


def _self_attribute(node: ast.AST) -> "str | None":
    """``self.<attr>`` -> attr name, else None."""
    if isinstance(node, ast.Attribute) and \
            isinstance(node.value, ast.Name) and node.value.id == "self":
        return node.attr
    return None


def _self_container_target(node: ast.AST) -> "str | None":
    """``self.<attr>[...]`` -> attr name, else None."""
    if isinstance(node, ast.Subscript):
        return _self_attribute(node.value)
    return None


@register
class SimulatedMemoryRule(Rule):
    """Data-plane kernels may not keep state outside simulated memory."""

    id = "sim-memory"
    short = ("app data-plane methods must route state through "
             "MemView/Environment, not host containers")
    rationale = ("every data-plane access must flow through the faulty L1 "
                 "(paper Section 4); host-side state shrinks the fault "
                 "surface and biases error rates")

    def check(self, context: FileContext) -> "Iterator[Finding]":
        module = context.module or ""
        if not module.startswith("repro.apps"):
            return
        for node in ast.walk(context.tree):
            if isinstance(node, ast.ClassDef) and _is_netbench_class(node):
                yield from self._check_class(context, node)
        yield from self._check_hierarchy_access(context)

    # -- host-container state in data-plane methods ---------------------------

    def _check_class(self, context: FileContext,
                     class_node: ast.ClassDef) -> "Iterator[Finding]":
        for item in class_node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name in CONTROL_PLANE_METHODS:
                continue
            yield from self._check_data_plane_method(context, item)

    def _check_data_plane_method(
            self, context: FileContext,
            method: "ast.FunctionDef | ast.AsyncFunctionDef",
    ) -> "Iterator[Finding]":
        for node in ast.walk(method):
            targets: "list[ast.expr]" = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                attr = _self_attribute(target)
                if attr is not None:
                    yield self.finding(
                        context, node,
                        f"data-plane method {method.name}() stores host "
                        f"state in self.{attr}; per-packet state belongs "
                        f"in simulated memory via MemView")
                    continue
                container = _self_container_target(target)
                if container is not None:
                    yield self.finding(
                        context, node,
                        f"data-plane method {method.name}() writes into "
                        f"host container self.{container}; per-packet "
                        f"state belongs in simulated memory via MemView")
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in _MUTATING_METHODS:
                owner = _self_attribute(node.func.value)
                if owner is not None:
                    yield self.finding(
                        context, node,
                        f"data-plane method {method.name}() mutates host "
                        f"container self.{owner}.{node.func.attr}(); "
                        f"per-packet state belongs in simulated memory "
                        f"via MemView")

    # -- MemView bypass -------------------------------------------------------

    def _check_hierarchy_access(
            self, context: FileContext) -> "Iterator[Finding]":
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Attribute) and \
                    node.value.attr == "hierarchy" and \
                    node.attr not in _ALLOWED_HIERARCHY_ATTRS:
                yield self.finding(
                    context, node,
                    f"app code reaches around MemView via "
                    f".hierarchy.{node.attr}; data-plane accesses must go "
                    f"through Environment.view / Environment.work")
