"""Hamming SEC-DED codec and its integration into the hierarchy."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.recovery import (
    RecoveryPolicy,
    SECDED,
    TWO_STRIKE,
    TWO_STRIKE_SUB_BLOCK,
)
from repro.mem.secded import (
    CODEWORD_BITS,
    DecodeResult,
    decode,
    encode,
)
from tests.test_hierarchy import EVEN, ODD, ScriptedInjector, make_hierarchy
from repro.mem.faults import FaultEvent


class TestCodec:
    @pytest.mark.parametrize("data", [0, 1, 0xFFFFFFFF, 0xDEADBEEF,
                                      0x55555555, 0x80000001])
    def test_roundtrip_clean(self, data):
        result = decode(encode(data))
        assert result.data == data
        assert result.clean

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.integers(min_value=0, max_value=CODEWORD_BITS - 1))
    @settings(max_examples=60, deadline=None)
    def test_single_bit_errors_corrected(self, data, position):
        corrupted = encode(data) ^ (1 << position)
        result = decode(corrupted)
        assert result.corrected
        assert result.data == data

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.sets(st.integers(min_value=0, max_value=CODEWORD_BITS - 1),
                   min_size=2, max_size=2))
    @settings(max_examples=60, deadline=None)
    def test_double_bit_errors_detected(self, data, positions):
        corrupted = encode(data)
        for position in positions:
            corrupted ^= 1 << position
        result = decode(corrupted)
        assert result.detected_uncorrectable
        assert not result.corrected

    def test_exhaustive_single_bit_for_one_word(self):
        data = 0xC0FFEE42
        codeword = encode(data)
        for position in range(CODEWORD_BITS):
            result = decode(codeword ^ (1 << position))
            assert result.corrected and result.data == data

    def test_triple_errors_can_alias(self):
        # The SEC-DED limitation: some 3-bit corruptions decode "corrected"
        # to the wrong word -- document it by finding one.
        data = 0
        codeword = encode(data)
        aliased = False
        for positions in itertools.combinations(range(10), 3):
            corrupted = codeword
            for position in positions:
                corrupted ^= 1 << position
            result = decode(corrupted)
            if not result.detected_uncorrectable and result.data != data:
                aliased = True
                break
        assert aliased

    def test_input_validation(self):
        with pytest.raises(ValueError):
            encode(1 << 32)
        with pytest.raises(ValueError):
            decode(1 << CODEWORD_BITS)


class TestPolicyPresets:
    def test_secded_policy_corrects(self):
        assert SECDED.corrects_faults
        assert SECDED.detects_faults
        assert not TWO_STRIKE.corrects_faults

    def test_sub_block_flag(self):
        assert TWO_STRIKE_SUB_BLOCK.sub_block
        assert not TWO_STRIKE.sub_block

    def test_invalid_code_rejected(self):
        with pytest.raises(ValueError):
            RecoveryPolicy("bogus", strikes=1, code="crc")


class TestSecdedHierarchy:
    def test_single_bit_read_fault_corrected_inline(self):
        hierarchy, _ = make_hierarchy(policy=SECDED, script=[None, ODD])
        hierarchy.write(0x100, 7, 4)
        assert hierarchy.read(0x100, 4) == 7
        assert hierarchy.corrected_faults == 1
        assert hierarchy.detected_faults == 0

    def test_single_bit_write_fault_corrected_and_scrubbed(self):
        hierarchy, _ = make_hierarchy(policy=SECDED, script=[ODD])
        hierarchy.write(0x100, 0xFF, 4)
        assert hierarchy.read(0x100, 4) == 0xFF
        assert hierarchy.scrubbed_words == 1
        # After scrubbing, the stored copy is healed: flush to L2 and
        # reread -- still the intended value.
        hierarchy.l1d.flush()
        assert hierarchy.read(0x100, 4) == 0xFF

    def test_double_bit_fault_detected_and_recovered(self):
        hierarchy, _ = make_hierarchy(policy=SECDED, script=[None, EVEN])
        hierarchy.write(0x100, 9, 4)
        hierarchy.l1d.flush()
        hierarchy.write(0x100, 9, 4)
        assert hierarchy.read(0x100, 4) == 9  # retry (strike 2) is clean
        hierarchy2, _ = make_hierarchy(policy=SECDED, script=[EVEN])
        hierarchy2.write(0x200, 5, 4)        # double-bit write corruption
        hierarchy2.l1d.flush()
        # Corruption escaped via writeback before any read could detect it.
        assert hierarchy2.read(0x200, 4) == 5 ^ (1 << 1) ^ (1 << 9)

    def test_triple_bit_fault_aliases_silently(self):
        triple = FaultEvent(bit_positions=(0, 7, 20))
        hierarchy, _ = make_hierarchy(policy=SECDED, script=[triple])
        hierarchy.write(0x100, 0, 4)
        expected = (1 << 0) | (1 << 7) | (1 << 20)
        assert hierarchy.read(0x100, 4) == expected
        assert hierarchy.undetected_corruptions == 1
        assert hierarchy.detected_faults == 0

    def test_two_word_read_reports_its_worst_word(self):
        # A read of 0x102..0x105 covers words 0x100 and 0x104.  Next to
        # a double-bit word, a correctable word still leaves the read
        # detected; next to a triple-bit word the read is silent.
        near = FaultEvent(bit_positions=(16,))   # byte 0x102, bit 0
        triple = FaultEvent(bit_positions=(0, 7, 20))
        hierarchy, _ = make_hierarchy(policy=SECDED, script=[near, EVEN])
        hierarchy.write(0x100, 0, 4)
        hierarchy.write(0x104, 0, 4)
        assert hierarchy.read(0x102, 4) == 0     # two strikes, then L2
        assert hierarchy.detected_faults == 2
        assert hierarchy.corrected_faults == 0
        hierarchy, _ = make_hierarchy(policy=SECDED, script=[near, triple])
        hierarchy.write(0x100, 0, 4)
        hierarchy.write(0x104, 0, 4)
        assert hierarchy.read(0x102, 4) == 1 | (1 << 16) | (1 << 23)
        assert hierarchy.undetected_corruptions == 1
        assert hierarchy.detected_faults == 0
        assert hierarchy.corrected_faults == 0

    def test_single_bit_fault_after_strike_exhaustion_is_corrected(self):
        # The read after strike exhaustion is classified like every other
        # read: SEC-DED corrects its single-bit fault.
        single = FaultEvent(bit_positions=(4,))
        hierarchy, _ = make_hierarchy(
            policy=SECDED, script=[None, EVEN, None, None, single])
        hierarchy.write(0x100, 5, 4)
        hierarchy.l1d.flush()            # 5 reaches L2
        hierarchy.write(0x100, 5, 4)     # double-bit write corruption
        assert hierarchy.read(0x100, 4) == 5
        assert hierarchy.detected_faults == 2
        assert hierarchy.corrected_faults == 1
        assert hierarchy.recovery_invalidations == 1

    def test_double_bit_fault_after_strike_exhaustion_is_detected(self):
        # With the strike budget spent the value flows on, but the
        # double-bit fault is counted.
        hierarchy, _ = make_hierarchy(
            policy=SECDED, script=[None, EVEN, None, None, EVEN])
        hierarchy.write(0x100, 5, 4)
        hierarchy.l1d.flush()
        hierarchy.write(0x100, 5, 4)
        assert hierarchy.read(0x100, 4) == 5 ^ (1 << 1) ^ (1 << 9)
        assert hierarchy.detected_faults == 3
        assert hierarchy.corrected_faults == 0
        assert hierarchy.recovery_invalidations == 1

    def test_cancelling_flips_read_clean(self):
        # A read flip on the same position as stored corruption cancels:
        # the delivered value is the intended one and no code can tell.
        hierarchy, _ = make_hierarchy(policy=SECDED, script=[ODD, ODD])
        hierarchy.write(0x100, 0, 4)     # store corrupted at bit 3
        value = hierarchy.read(0x100, 4)  # read flips bit 3 back
        assert value == 0

    def test_secded_energy_exceeds_parity(self):
        parity, parity_cpu = make_hierarchy(policy=TWO_STRIKE)
        secded, secded_cpu = make_hierarchy(policy=SECDED)
        for hierarchy in (parity, secded):
            hierarchy.write(0x100, 1, 4)
            hierarchy.read(0x100, 4)
        assert secded_cpu.energy.l1d > parity_cpu.energy.l1d


class TestSubBlockRecovery:
    def test_sub_block_refetch_preserves_line_neighbours(self):
        # Word 0x100 gets a persistent write corruption; word 0x104 (same
        # 32-byte line) holds newer dirty data.  Sub-block recovery must
        # heal 0x100 from L2 without losing 0x104.
        hierarchy, _ = make_hierarchy(policy=TWO_STRIKE_SUB_BLOCK,
                                      script=[None, None, ODD])
        hierarchy.write(0x100, 7, 4)     # clean
        hierarchy.l1d.flush()            # 7 reaches L2
        hierarchy.write(0x104, 0xAA, 4)  # clean, dirty in L1 only
        hierarchy.write(0x100, 7, 4)     # corrupted rewrite
        assert hierarchy.read(0x100, 4) == 7     # healed from L2
        assert hierarchy.sub_block_refills == 1
        assert hierarchy.recovery_invalidations == 0
        assert hierarchy.read(0x104, 4) == 0xAA  # neighbour survived

    def test_full_line_invalidation_loses_neighbours(self):
        # The same scenario under plain two-strike: whole-line invalidation
        # rolls the neighbour back to its (stale) L2 copy.
        hierarchy, _ = make_hierarchy(policy=TWO_STRIKE,
                                      script=[None, None, ODD])
        hierarchy.write(0x100, 7, 4)
        hierarchy.l1d.flush()
        hierarchy.write(0x104, 0xAA, 4)
        hierarchy.write(0x100, 7, 4)
        assert hierarchy.read(0x100, 4) == 7
        assert hierarchy.recovery_invalidations == 1
        assert hierarchy.read(0x104, 4) == 0  # newer data lost
