"""Rule ``float-equality``: no ``==``/``!=`` between float metrics.

Energy, delay, and fallibility are floating-point products of long
multiply-accumulate chains (energy model, EDF exponents, noise-immunity
curves).  Exact equality between two such values is almost never the
intended predicate -- it silently becomes "never equal" after any
reordering of the arithmetic, which is exactly how a threshold check or
a regression assertion rots.  Use ``math.isclose``, an explicit
tolerance, or compare the integer counters the floats were derived
from.

The rule is name-driven: it fires when either operand of an ``==``/
``!=`` is an identifier (variable, attribute, or call) whose name
matches a known metric vocabulary.  Identity comparisons with ``None``
and comparisons inside ``assert`` helpers that use a tolerance are
unaffected.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.base import FileContext, Rule, dotted_name, register
from repro.analysis.findings import Finding

#: Metric name vocabulary (word-boundary matched against identifiers).
METRIC_WORDS = ("energy", "delay", "fallibility", "edf", "edp",
                "latency", "makespan")

_METRIC_RE = re.compile(
    r"(^|_)(" + "|".join(METRIC_WORDS) + r")(_|$|\d)", re.IGNORECASE)


def _metric_name(node: ast.AST) -> "str | None":
    """The metric-ish identifier an expression refers to, if any."""
    if isinstance(node, ast.Call):
        return _metric_name(node.func)
    name = dotted_name(node)
    if name is None:
        return None
    leaf = name.split(".")[-1]
    if _METRIC_RE.search(leaf):
        return leaf
    return None


@register
class FloatEqualityRule(Rule):
    """Forbid exact equality on float energy/delay/fallibility metrics."""

    id = "float-equality"
    short = "no ==/!= on float energy/delay/fallibility metrics"
    rationale = ("metrics are long float accumulation chains; exact "
                 "equality rots into 'never equal' -- use math.isclose "
                 "or compare the underlying integer counters")

    def check(self, context: FileContext) -> "Iterator[Finding]":
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[index], operands[index + 1]
                # ``x is None``-style guards use Is, never reach here;
                # equality against None is still a code smell but not a
                # float hazard.
                if isinstance(left, ast.Constant) and left.value is None:
                    continue
                if isinstance(right, ast.Constant) and right.value is None:
                    continue
                symbol = "==" if isinstance(op, ast.Eq) else "!="
                metric = _metric_name(left) or _metric_name(right)
                if metric is not None:
                    yield self.finding(
                        context, node,
                        f"exact {symbol} on float metric {metric!r}; "
                        f"use math.isclose() or an explicit tolerance")
