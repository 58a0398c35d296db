"""Rule ``determinism``: runs must be bit-identical per seed.

The paper's methodology (Section 2) compares a golden run against a
fault-injected run over the same trace; any nondeterminism outside the
seeded fault model silently biases the error counts, the failure mode
Soyturk et al. document for un-audited injection harnesses.  Therefore
simulator code may draw randomness only from explicitly seeded
generators -- ``random.Random(seed)`` instances (as ``mem/faults.py``
and ``net/trace.py`` do) or seeded numpy generators
(``numpy.random.default_rng(seed)``); the module-level ``random``/
``numpy.random`` generators and argless constructors
(``random.Random()``, ``numpy.random.default_rng()``), which seed
themselves from OS entropy, are forbidden.  It may never read
wall-clock time, and may not iterate sets whose order the hash seed
controls.

The in-process seed-determinism tests cannot see these defects: an
environment read or a hash-ordered set iteration changes results only
between processes.

Two measurement carve-outs: the profiling clocks
(``time.perf_counter``/``process_time`` families) and environment reads
(``os.environ``/``os.getenv``) are the *job* of the measurement context
-- the ``harness``/``telemetry`` layers -- and are allowed there only.
Anywhere else they launder host state into results that must be a pure
function of config + seed.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import FileContext, Rule, dotted_name, register
from repro.analysis.findings import Finding

#: ``random`` module attributes that are safe: the seeded-generator class
#: (an argless ``random.Random()`` draws OS entropy and is flagged).
_SAFE_RANDOM_ATTRS = frozenset({"Random"})

#: ``numpy.random`` constructors that are deterministic *when seeded*:
#: argless calls fall back to OS entropy and are flagged.
_NUMPY_SEEDABLE_CONSTRUCTORS = frozenset({"default_rng", "RandomState"})

#: Names ``numpy`` is conventionally imported as.
_NUMPY_ALIASES = frozenset({"numpy", "np"})

#: ``time`` module functions that read host clocks.
_CLOCK_FUNCTIONS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
})

#: Clock functions that measure *host* performance rather than feed
#: simulated time; legitimate in the measurement layers (see
#: :func:`_is_measurement_context`), never in the simulator proper.
_PROFILING_CLOCKS = frozenset({
    "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
})

#: Layers whose job is measuring/orchestrating the host run: wall-clock
#: profiling and environment knobs are their business.  Everything else
#: must be a pure function of config + seed.
_MEASUREMENT_LAYERS = frozenset({"harness", "telemetry"})

#: ``datetime``/``date`` constructors that read host clocks.
_NOW_FUNCTIONS = frozenset({"now", "utcnow", "today"})

#: Modules whose very import signals nondeterminism.
_ENTROPY_MODULES = frozenset({"secrets"})

#: Builtins that materialise an iterable in iteration order.
_ORDER_SENSITIVE_BUILTINS = frozenset({"list", "tuple", "iter"})


def _is_set_expression(node: ast.AST) -> bool:
    """True for a set display or a direct set()/frozenset() call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


@register
class DeterminismRule(Rule):
    """Forbid unseeded randomness, wall clocks, and set-order dependence."""

    id = "determinism"
    short = ("no unseeded randomness, wall-clock reads, or "
             "unordered-set iteration")
    rationale = ("golden vs. fault-injected runs must be bit-identical "
                 "per seed (paper Section 2); only random.Random(seed) "
                 "instances may produce randomness")

    def check(self, context: FileContext) -> "Iterator[Finding]":
        measurement = context.layer() in _MEASUREMENT_LAYERS
        for node in ast.walk(context.tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                yield from self._check_import_from(context, node,
                                                   measurement)
            elif isinstance(node, ast.Import):
                yield from self._check_import(context, node)
            else:
                if isinstance(node, ast.Call):
                    yield from self._check_call(context, node,
                                                measurement)
                if isinstance(node, ast.Attribute) and not measurement:
                    yield from self._check_environ(context, node)
                yield from self._check_set_iteration(context, node)

    # -- imports --------------------------------------------------------------

    def _check_import_from(self, context: FileContext,
                           node: ast.ImportFrom,
                           measurement: bool) -> "Iterator[Finding]":
        module = node.module or ""
        if module == "random":
            for alias in node.names:
                if alias.name not in _SAFE_RANDOM_ATTRS:
                    yield self.finding(
                        context, node,
                        f"'from random import {alias.name}' uses the "
                        f"unseeded module-level generator; construct a "
                        f"seeded random.Random(seed) instead")
        elif module == "time":
            for alias in node.names:
                if alias.name in _CLOCK_FUNCTIONS and not \
                        (measurement and alias.name in _PROFILING_CLOCKS):
                    yield self.finding(
                        context, node,
                        f"'from time import {alias.name}' reads the host "
                        f"clock; simulated time must come from the cycle "
                        f"accounting")
        elif module in _ENTROPY_MODULES or module.split(".")[0] in \
                _ENTROPY_MODULES:
            yield self.finding(
                context, node,
                f"import of entropy module {module!r} is inherently "
                f"nondeterministic")

    def _check_import(self, context: FileContext,
                      node: ast.Import) -> "Iterator[Finding]":
        for alias in node.names:
            if alias.name.split(".")[0] in _ENTROPY_MODULES:
                yield self.finding(
                    context, node,
                    f"import of entropy module {alias.name!r} is "
                    f"inherently nondeterministic")

    # -- calls ----------------------------------------------------------------

    def _check_call(self, context: FileContext, node: ast.Call,
                    measurement: bool) -> "Iterator[Finding]":
        name = dotted_name(node.func)
        if name is None:
            return
        parts = name.split(".")
        root, leaf = parts[0], parts[-1]
        argless = not node.args and not node.keywords
        if root == "random" and len(parts) == 2 and \
                leaf not in _SAFE_RANDOM_ATTRS:
            yield self.finding(
                context, node,
                f"random.{leaf}() draws from the unseeded module-level "
                f"generator; use a random.Random(seed) instance")
        elif name == "random.Random" and argless:
            yield self.finding(
                context, node,
                "random.Random() without a seed draws OS entropy; pass "
                "an explicit seed (random.Random(seed))")
        elif root == "time" and len(parts) == 2 and \
                leaf in _CLOCK_FUNCTIONS and not \
                (measurement and leaf in _PROFILING_CLOCKS):
            yield self.finding(
                context, node,
                f"time.{leaf}() reads the host clock; runs must be "
                f"reproducible per seed")
        elif root in ("datetime", "date") and leaf in _NOW_FUNCTIONS:
            yield self.finding(
                context, node,
                f"{name}() reads the host clock; runs must be "
                f"reproducible per seed")
        elif root == "os" and leaf == "getenv" and len(parts) == 2 and \
                not measurement:
            yield self.finding(
                context, node,
                "os.getenv() launders host state into the run; results "
                "must be a function of config + seed -- route knobs "
                "through explicit parameters (environment reads belong "
                "in harness/ or telemetry/)")
        elif root == "os" and leaf == "urandom" and len(parts) == 2:
            yield self.finding(
                context, node,
                "os.urandom() is unseedable entropy; use a "
                "random.Random(seed) instance")
        elif root == "uuid" and leaf in ("uuid1", "uuid4"):
            yield self.finding(
                context, node,
                f"uuid.{leaf}() is nondeterministic; derive identifiers "
                f"from the seed or a counter")
        elif root in _NUMPY_ALIASES and len(parts) == 3 and \
                parts[1] == "random":
            if leaf in _NUMPY_SEEDABLE_CONSTRUCTORS:
                if argless:
                    yield self.finding(
                        context, node,
                        f"{name}() without a seed draws OS entropy; pass "
                        f"an explicit seed ({name}(seed))")
            else:
                yield self.finding(
                    context, node,
                    f"{name}() draws from numpy's unseeded module-level "
                    f"generator; use a seeded Generator "
                    f"(numpy.random.default_rng(seed))")

    # -- environment ----------------------------------------------------------

    def _check_environ(self, context: FileContext,
                       node: ast.Attribute) -> "Iterator[Finding]":
        if node.attr == "environ" and \
                isinstance(node.value, ast.Name) and \
                node.value.id == "os":
            yield self.finding(
                context, node,
                "os.environ launders host state into the run; results "
                "must be a function of config + seed -- route knobs "
                "through explicit parameters (environment reads belong "
                "in harness/ or telemetry/)")

    # -- set iteration --------------------------------------------------------

    def _check_set_iteration(self, context: FileContext,
                             node: ast.AST) -> "Iterator[Finding]":
        message = ("iteration over an unordered set depends on the hash "
                   "seed; wrap it in sorted()")
        if isinstance(node, ast.For) and _is_set_expression(node.iter):
            yield self.finding(context, node.iter, message)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for generator in node.generators:
                if _is_set_expression(generator.iter):
                    yield self.finding(context, generator.iter, message)
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Name) and \
                node.func.id in _ORDER_SENSITIVE_BUILTINS and \
                node.args and _is_set_expression(node.args[0]):
            yield self.finding(
                context, node,
                f"{node.func.id}() over a set materialises hash-seed "
                f"order; use sorted() for a deterministic sequence")
