"""Finding records produced by reprolint rules.

A finding is one rule violation at one source location.  Findings are
value objects: the engine sorts, filters (suppressions), and serialises
them, but never mutates them.  Every finding fails the lint run.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str           #: rule identifier (e.g. ``determinism``)
    path: str           #: file path as given to the engine
    line: int           #: 1-based line number
    column: int         #: 0-based column offset
    message: str        #: human-readable description of the violation
    source_line: str = field(default="", compare=False)

    def to_dict(self) -> "dict[str, object]":
        """JSON-ready representation (used by ``--format json``)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "source_line": self.source_line,
        }

    def render(self) -> str:
        """One-line human rendering: ``path:line:col: error[rule] msg``."""
        return (f"{self.path}:{self.line}:{self.column}: "
                f"error[{self.rule}] {self.message}")


def sort_findings(findings: "list[Finding]") -> "list[Finding]":
    """Stable report order: by path, then line, then column, then rule."""
    return sorted(findings,
                  key=lambda f: (f.path, f.line, f.column, f.rule))
