"""Built-in reprolint rules.

Importing this package populates
:data:`repro.analysis.base.RULE_REGISTRY` with the ``@register``-decorated
:class:`~repro.analysis.base.Rule` subclasses.  A new rule is a module
here plus an import below -- nothing else to wire.
"""

from repro.analysis.rules import (  # noqa: F401  (imported for registration)
    determinism,
    floatcmp,
    hygiene,
    layering,
    privacy,
)

__all__ = ["determinism", "floatcmp", "hygiene", "layering", "privacy"]
