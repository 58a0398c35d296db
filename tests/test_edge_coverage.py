"""Edge coverage: narrow-access corruption mapping, CLI extensions,
and result accessors."""

import pytest

from repro.harness.cli import main
from repro.harness.config import ExperimentConfig
from repro.harness.experiment import run_experiment
from repro.mem.faults import FaultEvent
from tests.test_hierarchy import ScriptedInjector, make_hierarchy
from repro.core.recovery import TWO_STRIKE


class TestNarrowAccessCorruption:
    def test_u8_write_fault_maps_to_word_bit(self):
        # A fault on a byte write at offset 2 of a word must be tracked at
        # word-relative bit 16 + n, so parity sees the word inconsistent.
        hierarchy, _ = make_hierarchy(policy=TWO_STRIKE,
                                      script=[FaultEvent(bit_positions=(3,))])
        hierarchy.write(0x102, 0x00, 1)    # byte write, corrupted
        assert hierarchy.corruption == {0x100: frozenset({19})}

    def test_u16_write_fault_high_byte(self):
        hierarchy, _ = make_hierarchy(policy=TWO_STRIKE,
                                      script=[FaultEvent(bit_positions=(9,))])
        hierarchy.write(0x102, 0x0000, 2)  # halfword at offset 2
        assert hierarchy.corruption == {0x100: frozenset({25})}

    def test_narrow_read_detects_word_poison(self):
        # Poison via a byte write; a later byte read of the same word
        # must trip the (per-word) parity check.
        hierarchy, _ = make_hierarchy(policy=TWO_STRIKE,
                                      script=[FaultEvent(bit_positions=(0,))])
        hierarchy.write(0x101, 0xAA, 1)
        hierarchy.read(0x103, 1)           # different byte, same word
        assert hierarchy.detected_faults >= 1

    def test_misaligned_u16_spanning_words_tracks_both(self):
        # A u16 at offset 3 covers bytes 3 and 4: two words.  A 2-bit
        # fault with one flip in each stays per-word single-bit.
        event = FaultEvent(bit_positions=(0, 8))
        hierarchy, _ = make_hierarchy(policy=TWO_STRIKE, script=[event])
        hierarchy.write(0x103, 0x0000, 2)
        assert hierarchy.corruption == {0x100: frozenset({24}),
                                         0x104: frozenset({0})}


class TestResultAccessors:
    def test_fatal_probability_zero_without_fatal(self):
        result = run_experiment(ExperimentConfig(
            app="tl", packet_count=10, fault_scale=0.0))
        assert result.fatal_probability == 0.0

    def test_delay_uses_total_cycles_when_nothing_processed(self):
        from repro.harness.experiment import ExperimentResult
        result = ExperimentResult(
            config=ExperimentConfig(app="tl", packet_count=10),
            offered_packets=10, processed_packets=0, erroneous_packets=0,
            category_errors={}, fatal=True, fatal_reason="x",
            cycles=123.0, instructions=7, energy={"total": 1.0},
            l1d_accesses=0, l1d_miss_rate=0.0, detected_faults=0,
            injected_faults=0)
        assert result.delay_per_packet == 123.0
        assert result.fallibility == 2.0
        assert result.error_probability("fatal") == 1.0

    def test_mean_error_persistence_accessor(self):
        from repro.harness.experiment import ExperimentResult
        result = ExperimentResult(
            config=ExperimentConfig(app="tl", packet_count=10),
            offered_packets=10, processed_packets=10, erroneous_packets=5,
            category_errors={}, fatal=False, fatal_reason=None,
            cycles=1.0, instructions=1, energy={"total": 1.0},
            l1d_accesses=1, l1d_miss_rate=0.0, detected_faults=0,
            injected_faults=0, error_runs=(2, 3))
        assert result.mean_error_persistence == 2.5


class TestCliExtensions:
    def test_ext_dvs(self, capsys):
        assert main(["ext_dvs"]) == 0
        assert "DVS" in capsys.readouterr().out

    def test_ext_anatomy_small(self, capsys):
        assert main(["ext_anatomy", "--packets", "40", "--seeds", "3"]) == 0
        assert "Fault anatomy" in capsys.readouterr().out

    def test_ext_multicore_small(self, capsys):
        assert main(["ext_multicore", "--packets", "24",
                     "--seeds", "3"]) == 0
        assert "engines" in capsys.readouterr().out
