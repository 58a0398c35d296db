"""The reprolint engine: file discovery, parsing, suppression, reporting.

The engine is deliberately standalone -- it imports nothing from the
simulator (``analysis`` sits beside ``util`` at the bottom of the layer
DAG), so linting can never be perturbed by the code under analysis.

Per-file pipeline::

    read -> parse AST -> run every rule -> drop suppressed findings
    -> report suppressions that name no rule

Suppressions are line comments::

    risky_line()  # reprolint: disable=determinism
    risky_line()  # reprolint: disable=layering,private-import
    risky_line()  # reprolint: disable=all

A suppression id that is neither a registered rule nor ``all`` is
itself a finding (``unknown-suppression``): a rule that is renamed or
deleted must not leave comments behind that silence nothing.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, Iterator, List, Optional, Sequence, Set

from repro.analysis import rules as _rules  # noqa: F401  (registration)
from repro.analysis.base import FileContext, RULE_REGISTRY, Rule
from repro.analysis.findings import Finding, sort_findings

#: Suppression comment grammar.
_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable=([A-Za-z0-9_,-]+)")

#: Engine-level finding ids (not rules: they cannot be suppressed).
PARSE_ERROR = "parse-error"
UNKNOWN_SUPPRESSION = "unknown-suppression"


def iter_python_files(paths: "Sequence[str]") -> "List[str]":
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: "List[str]" = []
    for path in paths:
        if os.path.isfile(path):
            found.append(path)
            continue
        for root, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames
                                 if not d.startswith(".")
                                 and d != "__pycache__")
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    found.append(os.path.join(root, filename))
    return sorted(dict.fromkeys(found))


def module_name_for(path: str) -> "Optional[str]":
    """Dotted module name for files inside a ``repro`` package tree.

    Works for the real tree (``src/repro/mem/cache.py`` ->
    ``repro.mem.cache``) and for fixture trees rooted at any directory
    named ``repro``.  Files outside such a tree return ``None``.
    """
    normalized = os.path.normpath(path)
    parts = normalized.split(os.sep)
    if "repro" not in parts:
        return None
    anchor = len(parts) - 1 - parts[::-1].index("repro")
    module_parts = parts[anchor:]
    module_parts[-1] = module_parts[-1][:-3]  # strip .py
    if module_parts[-1] == "__init__":
        module_parts.pop()
    return ".".join(module_parts)


def make_rules() -> "List[Rule]":
    """Instantiate every registered rule, in registration order."""
    return [rule_class() for rule_class in RULE_REGISTRY.values()]


def _suppressions(lines: "Sequence[str]") -> "Dict[int, Set[str]]":
    """1-based line number -> rule ids its suppression comment names."""
    found: "Dict[int, Set[str]]" = {}
    for lineno, line in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(line)
        if match is not None:
            found[lineno] = {part for part in match.group(1).split(",")
                             if part}
    return found


def _unknown_suppressions(path: str, lines: "Sequence[str]",
                          table: "Dict[int, Set[str]]",
                          ) -> "Iterator[Finding]":
    known = set(RULE_REGISTRY) | {"all"}
    for lineno, ids in sorted(table.items()):
        line = lines[lineno - 1]
        match = _SUPPRESS_RE.search(line)
        for rule_id in sorted(ids - known):
            yield Finding(
                rule=UNKNOWN_SUPPRESSION, path=path, line=lineno,
                column=match.start() if match else 0,
                message=f"suppression names {rule_id!r}, which is not a "
                        f"reprolint rule; delete it (known: "
                        f"{', '.join(sorted(RULE_REGISTRY))}, all)",
                source_line=line)


def lint_source(source: str, path: str,
                rules: "Sequence[Rule]") -> "List[Finding]":
    """Lint in-memory source (the unit the tests exercise directly)."""
    lines = source.splitlines()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        lineno = error.lineno or 1
        return [Finding(
            rule=PARSE_ERROR, path=path,
            line=lineno, column=error.offset or 0,
            message=f"file does not parse: {error.msg}",
            source_line=lines[lineno - 1]
            if 0 < lineno <= len(lines) else "")]
    context = FileContext(
        path=path,
        module=module_name_for(path),
        tree=tree,
        lines=lines,
    )
    table = _suppressions(lines)
    findings: "List[Finding]" = []
    for rule in rules:
        for finding in rule.check(context):
            suppressed = table.get(finding.line, ())
            if "all" in suppressed or finding.rule in suppressed:
                continue
            findings.append(finding)
    findings.extend(_unknown_suppressions(path, lines, table))
    return sort_findings(findings)


def lint_paths(paths: "Sequence[str]",
               rules: "Sequence[Rule]") -> "List[Finding]":
    """Lint every ``.py`` file under the given files/directories."""
    findings: "List[Finding]" = []
    for path in iter_python_files(paths):
        with open(path, "r", encoding="utf-8") as handle:
            findings.extend(lint_source(handle.read(), path, rules))
    return sort_findings(findings)
