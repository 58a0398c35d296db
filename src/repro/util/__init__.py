"""Dependency-free helpers shared by every layer.

``repro.util`` sits at the very bottom of the layering DAG (see
``docs/LINTING.md``): it may not import anything else from ``repro``,
and every other layer may import it.  It exists so that presentation
helpers (fixed-width tables) can be used by both ``repro.telemetry``
and ``repro.harness`` without creating an upward telemetry->harness
dependency.
"""
