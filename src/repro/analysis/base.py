"""Rule framework: the context a rule sees and the rule registry.

A rule is a class with an ``id``, a paper-level ``rationale``, and a
``check(context)`` method yielding
:class:`~repro.analysis.findings.Finding` objects.  Rules register
themselves with the :func:`register` decorator; the engine instantiates
every registered rule once per run.

Rules receive a :class:`FileContext` per file: the parsed AST, the raw
source lines, and the dotted module name (when the file belongs to the
``repro`` package).  Rules must be pure functions of that context -- no
filesystem access, no global state -- so the engine can run them in any
order.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, Type

from repro.analysis.findings import Finding


@dataclass
class FileContext:
    """Everything a rule may look at for one file."""

    path: str                     #: path as given on the command line
    module: "str | None"          #: dotted module name, e.g. ``repro.mem.cache``
    tree: ast.Module              #: parsed abstract syntax tree
    lines: "list[str]"            #: raw source split into lines

    def source_line(self, lineno: int) -> str:
        """The raw text of a 1-based source line ('' when out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def layer(self) -> "str | None":
        """The architecture layer of this module (``repro.<layer>....``).

        The bare package root (``repro``, ``repro.__main__``) maps to
        ``"repro"``; files outside the package map to ``None``.
        """
        if self.module is None or not self.module.startswith("repro"):
            return None
        parts = self.module.split(".")
        if len(parts) == 1 or parts[1].startswith("__"):
            return "repro"
        return parts[1]


class Rule:
    """Base class for reprolint rules."""

    #: Unique identifier used in reports and suppressions.
    id: str = ""
    #: One-line description for ``--list-rules``.
    short: str = ""
    #: Why the reproduction needs this rule (paper-level rationale).
    rationale: str = ""

    def check(self, context: FileContext) -> "Iterator[Finding]":
        """Yield findings for one file."""
        raise NotImplementedError

    def finding(self, context: FileContext, node: ast.AST,
                message: str) -> Finding:
        """Build a finding anchored at an AST node."""
        lineno = getattr(node, "lineno", 1)
        column = getattr(node, "col_offset", 0)
        return Finding(
            rule=self.id,
            path=context.path,
            line=lineno,
            column=column,
            message=message,
            source_line=context.source_line(lineno),
        )


#: Registry of rule classes, keyed by rule id, in registration order.
RULE_REGISTRY: "Dict[str, Type[Rule]]" = {}


def register(rule_class: "Type[Rule]") -> "Type[Rule]":
    """Class decorator adding a rule to the global registry."""
    if not rule_class.id:
        raise ValueError(f"{rule_class.__name__} must set an id")
    if rule_class.id in RULE_REGISTRY:
        raise ValueError(f"duplicate rule id {rule_class.id!r}")
    RULE_REGISTRY[rule_class.id] = rule_class
    return rule_class


def dotted_name(node: ast.AST) -> "str | None":
    """Render an attribute chain like ``a.b.c`` ('' -> None when dynamic)."""
    parts: "list[str]" = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None
