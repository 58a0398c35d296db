"""Detection/recovery policies (paper Section 4)."""

import itertools

import pytest

from repro.core.recovery import (
    ALL_POLICIES,
    NO_DETECTION,
    ONE_STRIKE,
    OUTCOMES,
    SECDED,
    THREE_STRIKE,
    TWO_STRIKE,
    RecoveryPolicy,
    policy_by_name,
)
from repro.mem import secded
from repro.mem.parity import parity_of_int

#: Data words the codec checks corrupt.
WORDS = (0, 0xC0FFEE42, 0xFFFFFFFF)

#: SEC-DED codeword positions of the 32 data bits, in data-bit order:
#: every position that is neither the overall parity bit (0) nor a
#: Hamming check bit (a power of two).
DATA_POSITIONS = tuple(position
                       for position in range(1, secded.CODEWORD_BITS)
                       if position & (position - 1))


def _flip_masks(flips):
    """Every way to flip ``flips`` of a word's 32 data bits."""
    for positions in itertools.combinations(range(32), flips):
        yield positions, sum(1 << position for position in positions)


class TestPaperPolicies:
    def test_four_schemes_in_paper_order(self):
        assert [policy.name for policy in ALL_POLICIES] == [
            "no-detection", "one-strike", "two-strike", "three-strike"]

    def test_strike_counts(self):
        assert NO_DETECTION.strikes == 0
        assert ONE_STRIKE.strikes == 1
        assert TWO_STRIKE.strikes == 2
        assert THREE_STRIKE.strikes == 3

    def test_detection_flag(self):
        assert not NO_DETECTION.detects_faults
        assert all(policy.detects_faults for policy in ALL_POLICIES[1:])

    def test_retry_budget(self):
        # one-strike invalidates immediately; three-strike retries twice.
        assert ONE_STRIKE.max_retries == 0
        assert TWO_STRIKE.max_retries == 1
        assert THREE_STRIKE.max_retries == 2
        assert NO_DETECTION.max_retries == 0


class TestLookup:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_round_trip_by_name(self, policy):
        assert policy_by_name(policy.name) is policy

    @pytest.mark.parametrize("name", ["four-strike",
                                      "two-strike-waydisable"])
    def test_unknown_name_rejected(self, name):
        with pytest.raises(ValueError, match="unknown recovery policy"):
            policy_by_name(name)


class TestValidation:
    def test_negative_strikes_rejected(self):
        with pytest.raises(ValueError):
            RecoveryPolicy("bogus", strikes=-1)

    def test_zero_strikes_reserved_for_no_detection(self):
        with pytest.raises(ValueError):
            RecoveryPolicy("silent", strikes=0, code="none")
        with pytest.raises(ValueError):
            RecoveryPolicy("half-armed", strikes=0)  # parity needs strikes
        assert RecoveryPolicy("no-detection", strikes=0,
                              code="none").strikes == 0

    def test_custom_deeper_policy_allowed(self):
        # The scheme generalises beyond the paper's three strikes.
        policy = RecoveryPolicy("five-strike", strikes=5)
        assert policy.max_retries == 4


class TestClassify:
    """``RecoveryPolicy.classify`` against the real codecs, 0-3 flips."""

    def test_parity_matches_the_parity_bit(self):
        for flips in range(4):
            for data in WORDS:
                for _, mask in _flip_masks(flips):
                    changed = parity_of_int(data ^ mask) != parity_of_int(
                        data)
                    expected = ("detected" if changed
                                else "undetected" if mask else "clean")
                    for policy in ALL_POLICIES[1:]:
                        assert policy.classify(flips) == expected

    def test_secded_matches_the_codec(self):
        for flips in range(4):
            for data in WORDS:
                codeword = secded.encode(data)
                for positions, _ in _flip_masks(flips):
                    corrupted = codeword
                    for position in positions:
                        corrupted ^= 1 << DATA_POSITIONS[position]
                    result = secded.decode(corrupted)
                    if result.detected_uncorrectable:
                        outcome = "detected"
                    elif result.data != data:
                        outcome = "undetected"   # silently wrong
                    elif result.corrected:
                        outcome = "corrected"
                    else:
                        outcome = "clean"
                    assert SECDED.classify(flips) == outcome

    def test_unprotected_corruption_is_silent(self):
        assert NO_DETECTION.classify(0) == "clean"
        for flips in (1, 2, 3):
            assert NO_DETECTION.classify(flips) == "undetected"

    def test_outcomes_cover_the_table(self):
        seen = {policy.classify(flips)
                for policy in (NO_DETECTION, TWO_STRIKE, SECDED)
                for flips in range(4)}
        assert seen == set(OUTCOMES)

    def test_negative_flip_count_rejected(self):
        for policy in (NO_DETECTION, TWO_STRIKE, SECDED):
            with pytest.raises(ValueError):
                policy.classify(-1)
