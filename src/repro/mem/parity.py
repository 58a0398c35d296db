"""Per-word parity code (paper Sections 4 and 5.4).

The paper protects each 32-bit word of the L1 data cache with a single
(even) parity bit.  A parity bit catches every odd-weight corruption of the
word it protects and misses every even-weight corruption -- which is why
the paper's two-bit faults (100x rarer than single-bit) escape detection.
The simulator does not compute parity per access: it reads that rule from
:meth:`repro.core.recovery.RecoveryPolicy.classify`, and the tests check
the table against these functions.
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
