"""reprolint: AST-based invariant linter for the reproduction.

The paper's methodology rests on invariants nothing in Python enforces:
bit-determinism per seed (golden vs. fault-injected comparison), a
data plane that touches simulated state only through ``MemView``, a
layered import DAG that keeps telemetry non-perturbing, module
encapsulation, and float-safe metric comparisons.  ``repro.analysis``
turns each into a static rule over one file's syntax tree.

Usage::

    python -m repro lint                # lint src/repro
    python -m repro lint --format json  # machine-readable report
    python -m repro lint --list-rules   # rule ids and rationales

The subsystem is standalone by design -- it imports nothing from the
simulator, so the linter can never be perturbed by the code it audits.
See docs/LINTING.md for the rule catalogue and suppression grammar.
"""

from repro.analysis.base import (
    FileContext,
    RULE_REGISTRY,
    Rule,
    register,
)
from repro.analysis.engine import (
    lint_paths,
    lint_source,
    make_rules,
    module_name_for,
)
from repro.analysis.findings import Finding

__all__ = [
    "FileContext",
    "Finding",
    "RULE_REGISTRY",
    "Rule",
    "lint_paths",
    "lint_source",
    "make_rules",
    "module_name_for",
    "register",
]
