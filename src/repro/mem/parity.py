"""Per-word parity code (paper Sections 4 and 5.4).

The paper protects each 32-bit word of the L1 data cache with a single
(even) parity bit.  A parity bit catches every odd-weight corruption of the
word it protects and misses every even-weight corruption -- which is why
the paper's two-bit faults (100x rarer than single-bit) escape detection.
"""

from __future__ import annotations

from repro.core import constants


def parity_of_bytes(data: bytes) -> int:
    """Even-parity bit (0 or 1) of a byte string."""
    acc = 0
    for byte in data:
        acc ^= byte
    acc ^= acc >> 4
    acc ^= acc >> 2
    acc ^= acc >> 1
    return acc & 1


def parity_of_int(value: int, bits: int = constants.PARITY_WORD_BITS) -> int:
    """Even-parity bit of the low ``bits`` bits of an integer."""
    if value < 0:
        raise ValueError("parity is defined over unsigned values")
    value &= (1 << bits) - 1
    parity = 0
    while value:
        value &= value - 1
        parity ^= 1
    return parity


def detects(flip_count: int) -> bool:
    """Whether a single parity bit detects a ``flip_count``-bit corruption."""
    if flip_count < 0:
        raise ValueError("flip count must be non-negative")
    return flip_count % 2 == 1


def detected_words(corruption_by_word: "dict[int, frozenset[int]]",
                   ) -> "tuple[int, ...]":
    """Word addresses whose corruption a per-word parity bit flags.

    ``corruption_by_word`` maps word addresses to the set of flipped bit
    positions; only odd-weight corruption is detectable (the paper's
    100x-rarer even-weight faults escape).  The hierarchy uses this to
    decide whether a read raises a strike -- and telemetry uses the same
    word list to attribute the strike to a cache line.
    """
    return tuple(word for word, bits in corruption_by_word.items()
                 if detects(len(bits)))
