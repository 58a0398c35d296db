"""Hamming SEC-DED code for 32-bit words (the paper's dismissed option).

Section 4 of the paper rules out error *correction*: "the error correction
techniques (such as Hamming codes) would incur unnecessary complication on
the design and energy consumption".  This module implements the real
(39,32) Hamming code with an overall parity bit -- Single Error Correction,
Double Error Detection -- so the reproduction can *measure* that tradeoff
instead of assuming it (see the ``secded`` recovery policies and the
protection-scheme ablation bench).  The simulator does not run the codec
per access: it reads the codec's outcome classes from
:meth:`repro.core.recovery.RecoveryPolicy.classify`, and the tests check
that table against :func:`encode` and :func:`decode`.

Layout: check bits occupy codeword positions 1, 2, 4, 8, 16, 32 (1-based),
data bits fill the remaining positions in order, and position 0 holds the
overall parity over the whole codeword.
"""

from __future__ import annotations

from dataclasses import dataclass

DATA_BITS = 32
CHECK_BITS = 6          # ceil(log2(39)) covers positions 1..38
CODEWORD_BITS = 39      # 32 data + 6 Hamming checks + 1 overall parity

#: Codeword positions (1-based) holding Hamming check bits.
_CHECK_POSITIONS = tuple(1 << i for i in range(CHECK_BITS))

#: Codeword positions (1-based) holding data bits, in data-bit order.
_DATA_POSITIONS = tuple(position for position in range(1, CODEWORD_BITS)
                        if position not in _CHECK_POSITIONS)

assert len(_DATA_POSITIONS) == DATA_BITS


def _parity(value: int) -> int:
    parity = 0
    while value:
        value &= value - 1
        parity ^= 1
    return parity


def encode(data: int) -> int:
    """Encode a 32-bit word into a 39-bit SEC-DED codeword.

    Bit ``i`` of the returned integer is codeword position ``i`` (position
    0 is the overall parity bit).
    """
    if not 0 <= data < (1 << DATA_BITS):
        raise ValueError(f"data does not fit 32 bits: {data:#x}")
    codeword = 0
    for bit_index, position in enumerate(_DATA_POSITIONS):
        if (data >> bit_index) & 1:
            codeword |= 1 << position
    for check in _CHECK_POSITIONS:
        covered = 0
        for position in range(1, CODEWORD_BITS):
            if position & check and (codeword >> position) & 1:
                covered ^= 1
        if covered:
            codeword |= 1 << check
    if _parity(codeword >> 1):
        codeword |= 1
    return codeword


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of decoding one (possibly corrupted) codeword."""

    data: int                 #: best-effort decoded 32-bit word
    corrected: bool           #: a single-bit error was repaired
    detected_uncorrectable: bool  #: a double-bit error was flagged

    @property
    def clean(self) -> bool:
        """Neither corrected nor flagged: the codeword was intact."""
        return not self.corrected and not self.detected_uncorrectable


def decode(codeword: int) -> DecodeResult:
    """Decode a 39-bit codeword, correcting single and flagging double errors.

    Triple and heavier corruptions alias onto the single/clean cases --
    the fundamental SEC-DED limitation the tests document.
    """
    if not 0 <= codeword < (1 << CODEWORD_BITS):
        raise ValueError(f"codeword does not fit 39 bits: {codeword:#x}")
    syndrome = 0
    for check_index, check in enumerate(_CHECK_POSITIONS):
        covered = 0
        for position in range(1, CODEWORD_BITS):
            if position & check and (codeword >> position) & 1:
                covered ^= 1
        if covered:
            syndrome |= check
    overall = _parity(codeword)

    def extract(word: int) -> int:
        data = 0
        for bit_index, position in enumerate(_DATA_POSITIONS):
            if (word >> position) & 1:
                data |= 1 << bit_index
        return data

    if syndrome == 0 and overall == 0:
        return DecodeResult(data=extract(codeword), corrected=False,
                            detected_uncorrectable=False)
    if overall == 1:
        # Odd corruption weight: a single-bit error (correctable).  A zero
        # syndrome means the overall parity bit itself flipped.
        repaired = codeword ^ (1 << syndrome) if syndrome else codeword ^ 1
        return DecodeResult(data=extract(repaired), corrected=True,
                            detected_uncorrectable=False)
    # Even corruption weight with a non-zero syndrome: double error.
    return DecodeResult(data=extract(codeword), corrected=False,
                        detected_uncorrectable=True)
