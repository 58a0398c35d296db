"""Rule ``private-import``: no cross-module use of ``_private`` names.

PR 1 fixed ``harness/profile.py`` importing private helpers from
``harness/experiment.py`` by promoting them to a public API
(``execute_workload``/``load_workload``).  This rule prevents the
regression class: a leading-underscore name is a module-local contract,
and importing one from another module couples callers to internals that
may change without notice.  The fix is always to promote the name (as
PR 2 did for ``repro.apps.radix.FNV_OFFSET``) or to add a public
wrapper -- never to suppress.

The rule also audits the public facade (``repro/api.py``): the facade
is the supported import surface, so nothing outside ``repro/`` may be
needed to use it.  Every import in the facade must target ``repro.*``
(plus ``__future__``), it must declare an explicit ``__all__``, and
every ``__all__`` entry must be a public name actually bound in the
module -- an unbound or private export would force callers back onto
internal paths.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import FileContext, Rule, register
from repro.analysis.findings import Finding


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


#: The public facade module audited for self-containment.
API_FACADE_MODULE = "repro.api"


@register
class PrivateImportRule(Rule):
    """Forbid importing or dereferencing another module's ``_private``."""

    id = "private-import"
    short = "no cross-module imports of _private names"
    rationale = ("leading-underscore names are module-local contracts; "
                 "promote them to a public API instead of importing "
                 "them (the PR 1 regression class)")

    def check(self, context: FileContext) -> "Iterator[Finding]":
        if context.module == API_FACADE_MODULE:
            yield from self._check_api_facade(context)
        aliases = self._module_aliases(context)
        for node in ast.walk(context.tree):
            if isinstance(node, ast.ImportFrom):
                is_repro = (node.level > 0 or
                            (node.module or "").split(".")[0] == "repro")
                if not is_repro:
                    continue
                for alias in node.names:
                    if _is_private(alias.name):
                        yield self.finding(
                            context, node,
                            f"imports private name {alias.name!r} from "
                            f"{node.module or 'package'}; promote it to "
                            f"a public API instead")
            elif isinstance(node, ast.Attribute) and \
                    _is_private(node.attr) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id in aliases:
                yield self.finding(
                    context, node,
                    f"dereferences private name "
                    f"{aliases[node.value.id]}.{node.attr} of another "
                    f"module; promote it to a public API instead")

    def _check_api_facade(self, context: FileContext,
                          ) -> "Iterator[Finding]":
        """The facade must be usable with nothing outside ``repro/``."""
        bound: "set[str]" = set()
        exported: "list[tuple[ast.AST, str]]" = []
        has_all = False
        for node in context.tree.body:
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level > 0 or (module != "__future__" and
                                      module.split(".")[0] != "repro"):
                    yield self.finding(
                        context, node,
                        f"the public facade imports from {module or '.'}: "
                        f"nothing outside repro/ may be needed to use "
                        f"repro.api")
                for alias in node.names:
                    bound.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                yield self.finding(
                    context, node,
                    "the public facade must use 'from repro... import' "
                    "so every exported name is bound locally")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bound.add(target.id)
                        if target.id == "__all__" and \
                                isinstance(node.value, (ast.List, ast.Tuple)):
                            has_all = True
                            for element in node.value.elts:
                                if isinstance(element, ast.Constant) and \
                                        isinstance(element.value, str):
                                    exported.append((element, element.value))
        if not has_all:
            yield self.finding(
                context, context.tree,
                "the public facade must declare an explicit __all__ "
                "listing the supported surface")
            return
        for node, name in exported:
            if _is_private(name):
                yield self.finding(
                    context, node,
                    f"the public facade exports private name {name!r}")
            elif name not in bound:
                yield self.finding(
                    context, node,
                    f"__all__ lists {name!r} but the facade never binds "
                    f"it; export it via 'from repro... import'")

    @staticmethod
    def _module_aliases(context: FileContext) -> "dict[str, str]":
        """Local name -> imported repro module (for attribute checks)."""
        aliases: "dict[str, str]" = {}
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if not alias.name.startswith("repro"):
                        continue
                    local = alias.asname or alias.name.split(".")[0]
                    aliases[local] = alias.name
            elif isinstance(node, ast.ImportFrom) and \
                    (node.module or "").startswith("repro"):
                for alias in node.names:
                    # ``from repro.apps import radix``-style submodule
                    # imports; names that are functions/classes simply
                    # never receive private attribute access.
                    local = alias.asname or alias.name
                    aliases[local] = f"{node.module}.{alias.name}"
        return aliases
