"""Shared hypothesis strategies for the property-based tests.

The kernel oracles, the mixed-width architectural equivalence test, and
the injector statistical-equivalence suite all generate the same shapes
of data (byte payloads, MemView access sequences, simulator knobs).
Centralising the strategies keeps their bounds consistent -- a payload
that exercises the MD5 padding boundaries, an operation mix that covers
every accessor width -- instead of each file re-deriving them inline.
"""

from hypothesis import strategies as st

from repro.core.constants import RELATIVE_CYCLE_LEVELS
from repro.core.recovery import TWO_STRIKE
from repro.harness.config import ExperimentConfig
from repro.mem.faults import INJECTOR_NAMES
from repro.oracle.fuzz import CONFIG_SPACE, build_config

#: Every MemView accessor, as "<r|w><width-in-bits>" tags.
ACCESS_KINDS = ("r8", "r16", "r32", "w8", "w16", "w32")


def make_config(app="tl", seed=3, **overrides):
    """A small, fault-heavy campaign config (the engine tests' default).

    Every axis can be overridden; the defaults keep simulation cheap
    (25 packets) while still injecting real faults (Cr=0.5 at 30x fault
    scale under two-strike recovery).
    """
    defaults = dict(app=app, packet_count=25, seed=seed, cycle_time=0.5,
                    policy=TWO_STRIKE, fault_scale=30.0)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def experiment_configs():
    """Valid :class:`ExperimentConfig` objects across the fuzzer's space.

    Draws one index per :data:`repro.oracle.fuzz.CONFIG_SPACE` axis and
    materialises through :func:`repro.oracle.fuzz.build_config`, so the
    hypothesis tests and the config fuzzer explore the *same* space --
    every generated config is valid by construction and shrinks toward
    the all-benign corner (hypothesis minimises each index toward 0,
    which is also the fuzzer's shrinking target).
    """
    return st.fixed_dictionaries({
        axis: st.integers(min_value=0, max_value=len(options) - 1)
        for axis, options in CONFIG_SPACE.items()
    }).map(build_config)


def payloads(max_size: int, min_size: int = 0):
    """Byte payloads (message bodies, packet data) up to ``max_size``.

    Zero-length payloads are included by default: the empty message is a
    boundary case for every kernel (checksum of nothing, MD5 of the
    empty string, CRC of an empty region).
    """
    return st.binary(min_size=min_size, max_size=max_size)


def memory_operations(span: int):
    """``(kind, offset, value)`` MemView accesses within a window.

    ``kind`` is drawn from :data:`ACCESS_KINDS`; ``offset`` stays at
    least 4 bytes short of ``span`` so any width fits once the caller
    aligns it; ``value`` covers the full u32 range (narrower writes mask
    it down).
    """
    return st.tuples(
        st.sampled_from(ACCESS_KINDS),
        st.integers(min_value=0, max_value=span - 4),
        st.integers(min_value=0, max_value=2 ** 32 - 1),
    )


def operation_sequences(span: int, max_size: int):
    """Non-empty sequences of :func:`memory_operations` accesses."""
    return st.lists(memory_operations(span), min_size=1, max_size=max_size)


def injectors():
    """Every registered fault-injector name (reference first).

    Mirrors :data:`repro.mem.faults.INJECTOR_NAMES` so property tests
    sweep exactly the set ``make_injector`` accepts and shrink toward
    the reference sampler.
    """
    return st.sampled_from(INJECTOR_NAMES)


def seeds():
    """Experiment seeds (any non-negative 31-bit value)."""
    return st.integers(min_value=0, max_value=2 ** 31 - 1)


def cycle_times():
    """The paper's discrete relative cycle time (Cr) levels."""
    return st.sampled_from(RELATIVE_CYCLE_LEVELS)
