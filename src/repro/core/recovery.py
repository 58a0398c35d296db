"""Fault detection and strike-based recovery policies (paper Section 4).

The architecture optionally protects each 32-bit L1 data-cache word with a
detection/correction code.  A detected failure on a read is ambiguous: the
fault may have corrupted the stored data (a *write* fault -- retrying the
read keeps failing) or only the value on its way out of the array (a *read*
fault -- the stored copy is fine).  The paper's strike policies resolve the
ambiguity by bounded retry:

* **one-strike** -- assume every detected fault is a write fault: invalidate
  the block immediately and fetch from the (reliable) L2.
* **two-strike** -- retry the L1 read once; invalidate and go to L2 only if
  the retry also fails.
* **three-strike** -- retry the L1 read twice before giving up on the block.

Two extensions beyond the paper's evaluated design are modelled so their
cost can be *measured* rather than assumed:

* ``code="secded"`` -- the Hamming SEC-DED protection the paper dismisses
  for its "unnecessary complication ... and energy consumption" (Section
  4).  Single-bit corruption is corrected inline (and scrubbed); double-bit
  corruption is detected and handled by the strike machinery; triple and
  heavier corruption aliases silently.
* ``sub_block=True`` -- footnote 2's sub-block alternative: on strike
  exhaustion only the affected words are refetched from L2 instead of
  invalidating the whole line.

``no-detection`` disables protection entirely: faults flow silently into
the application.

:meth:`RecoveryPolicy.classify` is the one table from a word's flipped-bit
count to what its code makes of it; the memory hierarchy and the trace
replayer both read it.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Valid protection codes, in increasing strength/energy order.
PROTECTION_CODES = ("none", "parity", "secded")

#: Recovery-action names as they appear in telemetry
#: :class:`~repro.telemetry.events.RecoveryFallback` events.
FALLBACK_INVALIDATE = "invalidate-line"
FALLBACK_SUB_BLOCK = "sub-block-refill"

#: What a protection code makes of one word's corruption, least to most
#: severe: a read reports its worst word.  ``corrected`` and ``clean``
#: values are usable; ``undetected`` corruption reaches the application
#: silently; ``detected`` hands the read to the strike machinery.
OUTCOMES = ("clean", "corrected", "undetected", "detected")


@dataclass(frozen=True)
class RecoveryPolicy:
    """A named detection/recovery configuration.

    ``strikes`` is the total number of L1 read attempts made on a detected
    (uncorrectable) failure before the recovery action fires (so
    one-strike = 1 attempt, three-strike = 3 attempts).  ``strikes == 0``
    means no detection at all and requires ``code == "none"``.
    """

    name: str
    strikes: int
    code: str = "parity"
    sub_block: bool = False

    def __post_init__(self) -> None:
        if self.strikes < 0:
            raise ValueError("strikes must be non-negative")
        if self.code not in PROTECTION_CODES:
            raise ValueError(
                f"unknown protection code {self.code!r}; "
                f"expected one of {PROTECTION_CODES}")
        if (self.strikes == 0) != (self.code == "none"):
            raise ValueError(
                "zero strikes if and only if the code is 'none'")
        if self.code == "none" and self.name != "no-detection":
            raise ValueError("an unprotected policy must be 'no-detection'")

    @property
    def detects_faults(self) -> bool:
        """Whether any protection code is present."""
        return self.code != "none"

    @property
    def corrects_faults(self) -> bool:
        """Whether single-bit corruption is repaired inline (SEC-DED)."""
        return self.code == "secded"

    @property
    def max_retries(self) -> int:
        """Extra L1 read attempts after the first detected failure."""
        return max(self.strikes - 1, 0)

    @property
    def fallback_action(self) -> str:
        """The recovery action's telemetry name (Section 4 / footnote 2)."""
        return FALLBACK_SUB_BLOCK if self.sub_block else FALLBACK_INVALIDATE

    def classify(self, flips: int) -> str:
        """The :data:`OUTCOMES` entry for ``flips`` corrupted bits in a word.

        Parity flags odd-weight corruption and misses even-weight
        corruption (the paper's 100x-rarer two-bit faults escape).
        SEC-DED corrects one bit, detects two, and aliases silently at
        three and beyond.  Without a code every corruption is silent.
        """
        if flips < 0:
            raise ValueError("flip count must be non-negative")
        if flips == 0:
            return "clean"
        if self.code == "parity":
            return "detected" if flips % 2 else "undetected"
        if self.code == "secded":
            if flips == 1:
                return "corrected"
            if flips == 2:
                return "detected"
        return "undetected"


#: The four schemes evaluated in the paper's Figures 9-12, in order.
NO_DETECTION = RecoveryPolicy("no-detection", strikes=0, code="none")
ONE_STRIKE = RecoveryPolicy("one-strike", strikes=1)
TWO_STRIKE = RecoveryPolicy("two-strike", strikes=2)
THREE_STRIKE = RecoveryPolicy("three-strike", strikes=3)

#: Extension policies (Section 4's dismissed/deferred alternatives).
SECDED = RecoveryPolicy("secded", strikes=2, code="secded")
TWO_STRIKE_SUB_BLOCK = RecoveryPolicy("two-strike-subblock", strikes=2,
                                      sub_block=True)

ALL_POLICIES = (NO_DETECTION, ONE_STRIKE, TWO_STRIKE, THREE_STRIKE)
EXTENSION_POLICIES = (SECDED, TWO_STRIKE_SUB_BLOCK)

_BY_NAME = {policy.name: policy
            for policy in ALL_POLICIES + EXTENSION_POLICIES}


def policy_by_name(name: str) -> RecoveryPolicy:
    """Look up a policy (paper scheme or extension) by its report name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown recovery policy {name!r}; "
            f"expected one of {sorted(_BY_NAME)}") from None
