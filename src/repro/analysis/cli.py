"""``python -m repro lint`` -- the reprolint command line.

Exit codes: 0 clean, 1 at least one unsuppressed finding, 2 usage
error.

Default operation lints ``src/repro`` with every rule, matching
``make lint`` and the CI gate.

Output formats (``--format``): ``text`` (human, default), ``json``
(machine-readable report), and ``github`` (GitHub Actions
``::error file=...,line=...`` workflow annotations, one per finding,
so CI failures land on the offending line in the diff view).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.analysis.base import RULE_REGISTRY
from repro.analysis.engine import lint_paths, make_rules
from repro.analysis.findings import Finding

#: Default lint root (relative to the repository root).
DEFAULT_PATH = "src/repro"

#: Report formats.
FORMATS = ("text", "json", "github")

#: Version of the ``--format json`` payload.
JSON_VERSION = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="reprolint: AST-based invariant linter for the "
                    "clumsy-packet-processor reproduction "
                    "(determinism, memory hygiene, layering, "
                    "encapsulation, numeric safety)")
    parser.add_argument("paths", nargs="*",
                        help=f"files or directories to lint (default: "
                             f"{DEFAULT_PATH})")
    parser.add_argument("--format", choices=FORMATS, default="text",
                        help="report format: text (default), json, or "
                             "github (workflow annotations)")
    parser.add_argument("--list-rules", action="store_true",
                        help="list rule ids with descriptions and exit")
    return parser


def _list_rules() -> str:
    lines = ["reprolint rules:"]
    for rule_id, rule_class in sorted(RULE_REGISTRY.items()):
        lines.append(f"  {rule_id}")
        lines.append(f"      {rule_class.short}")
        lines.append(f"      rationale: {rule_class.rationale}")
    return "\n".join(lines)


def _github_annotation(finding: Finding) -> str:
    """One GitHub Actions workflow annotation for a finding."""
    # Annotation messages are %-escaped per the workflow-command
    # grammar; newlines never occur in findings but escape anyway.
    message = (f"{finding.rule}: {finding.message}"
               .replace("%", "%25")
               .replace("\r", "%0D")
               .replace("\n", "%0A"))
    return (f"::error file={finding.path},line={finding.line},"
            f"col={finding.column + 1}::{message}")


def main(argv: "Optional[List[str]]" = None) -> int:
    """Entry point for ``python -m repro lint``."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    paths = args.paths or [DEFAULT_PATH]
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        parser.error(f"no such path: {', '.join(missing)}")

    findings = lint_paths(paths, make_rules())
    if args.format == "json":
        print(json.dumps({
            "version": JSON_VERSION,
            "paths": paths,
            "findings": [finding.to_dict() for finding in findings],
            "errors": len(findings),
        }, indent=2))
    else:
        render = (_github_annotation if args.format == "github"
                  else Finding.render)
        for finding in findings:
            print(render(finding))
        print(f"reprolint: {len(findings)} error(s) in "
              f"{', '.join(paths)}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
