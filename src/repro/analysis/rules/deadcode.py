"""Rule ``dead-code``: every definition must be reachable from a root.

A simulator accumulating unreferenced helpers is a simulator whose
audit surface is larger than its behaviour: dead code still turns up in
fault-surface reviews, still rots against API changes, and still costs
reading time in a reproduction whose whole value is being checkable
against the paper.  This project rule flags top-level functions,
classes, and methods of ``repro.*`` that are referenced *nowhere*:

* the **liveness corpus** is every analysed file plus the reference
  trees (tests, benchmarks, examples): any ``Name`` load, any attribute
  access ``obj.name``, any import alias, and any string literal that is
  a valid identifier (registries and config dispatch address code by
  string: ``ExperimentConfig(injector="geometric")``,
  ``only=["fault-monotonic"]``);
* **exempt** definitions: dunders (protocol dispatch), decorated
  definitions (``@register_*`` registries, ``@property``,
  ``@dataclass`` -- the decorator is the use), ``visit_*`` methods
  (``ast.NodeVisitor`` dispatches reflectively by name), and names
  listed in their module's ``__all__`` (an export *is* the use; the
  api-drift rule separately checks exports resolve).

Matching is by name, deliberately over-approximate: a method is live if
*any* attribute access anywhere uses its name.  The rule therefore
never needs type inference and a finding is near-certainly real -- the
fix is to delete the definition or to add the missing registration.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.analysis.base import FileContext
from repro.analysis.findings import Finding
from repro.analysis.project import (
    ProjectContext,
    ProjectRule,
    register_project,
)


def _docstring_constants(tree: ast.Module) -> "Set[int]":
    """ids of Constant nodes that are docstrings (not identifiers)."""
    ids: "Set[int]" = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.FunctionDef,
                             ast.AsyncFunctionDef, ast.ClassDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and \
                    isinstance(body[0].value, ast.Constant) and \
                    isinstance(body[0].value.value, str):
                ids.add(id(body[0].value))
    return ids


def _collect_uses(context: FileContext, into: "Set[str]") -> None:
    """Add every referenced name in one file to the corpus."""
    docstrings = _docstring_constants(context.tree)
    for node in ast.walk(context.tree):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, (ast.Load, ast.Del)):
                into.add(node.id)
        elif isinstance(node, ast.Attribute):
            into.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                into.add(alias.name.split(".")[-1])
                if alias.asname is not None:
                    into.add(alias.asname)
        elif isinstance(node, ast.Constant) and \
                isinstance(node.value, str) and \
                id(node) not in docstrings and \
                node.value.isidentifier():
            into.add(node.value)


def _is_exempt(name: str, decorators: "tuple[str, ...]") -> bool:
    if name.startswith("__") and name.endswith("__"):
        return True
    if decorators:
        return True
    if name.startswith("visit_"):
        return True
    return False


@register_project
class DeadCodeRule(ProjectRule):
    """Flag project definitions referenced from no code, test, or
    registry."""

    id = "dead-code"
    severity = "error"
    short = ("every function/class/method must be referenced from "
             "code, tests, registries, or __all__")
    rationale = ("unreachable code inflates the audit surface of the "
                 "fault model without being covered by the oracle; "
                 "delete it or register it where it is meant to be "
                 "used")

    def check_project(self,
                      project: ProjectContext) -> "Iterator[Finding]":
        used: "Set[str]" = set()
        for context in project.files.values():
            _collect_uses(context, used)
        for context in project.reference_files:
            _collect_uses(context, used)
        for info in project.modules.values():
            if not info.module.startswith("repro"):
                continue
            exported = set(info.exports)
            for function in info.functions.values():
                if _is_exempt(function.name, function.decorators):
                    continue
                if function.name in exported:
                    continue
                if function.name not in used:
                    yield self.project_finding(
                        project, function.path, function.node,
                        f"function {function.name}() is never "
                        f"referenced from code, tests, registries, or "
                        f"__all__; delete it or wire it up")
            for cls in info.classes.values():
                if not _is_exempt(cls.name, cls.decorators) and \
                        cls.name not in exported and \
                        cls.name not in used:
                    yield self.project_finding(
                        project, cls.path, cls.node,
                        f"class {cls.name} is never referenced from "
                        f"code, tests, registries, or __all__; delete "
                        f"it or wire it up")
                    continue
                for method in cls.methods.values():
                    if _is_exempt(method.name, method.decorators):
                        continue
                    if method.name not in used:
                        yield self.project_finding(
                            project, method.path, method.node,
                            f"method {cls.name}.{method.name}() is "
                            f"never referenced from code, tests, "
                            f"registries, or __all__; delete it or "
                            f"wire it up")
