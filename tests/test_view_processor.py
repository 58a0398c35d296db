"""Typed memory view and processor accounting."""

import pytest

from repro.core import constants
from repro.cpu.processor import Processor
from repro.cpu.watchdog import FatalExecutionError, Watchdog
from repro.mem.errors import MemoryAccessError


class TestMemView:
    def test_u8_roundtrip(self, env):
        env.view.write_u8(0x1000, 0x7F)
        assert env.view.read_u8(0x1000) == 0x7F

    def test_u16_little_endian(self, env):
        env.view.write_u16(0x1000, 0xBEEF)
        assert env.view.read_u8(0x1000) == 0xEF
        assert env.view.read_u8(0x1001) == 0xBE

    def test_u16_roundtrip(self, env):
        env.view.write_u16(0x1000, 0xBEEF)
        assert env.view.read_u16(0x1000) == 0xBEEF

    def test_u32_little_endian(self, env):
        env.view.write_u32(0x1000, 0x01020304)
        assert bytes(env.view.read_u8(0x1000 + offset)
                     for offset in range(4)) == b"\x04\x03\x02\x01"

    def test_values_masked_to_width(self, env):
        env.view.write_u8(0x1000, 0x1FF)
        assert env.view.read_u8(0x1000) == 0xFF

    def test_bulk_bytes_roundtrip(self, env):
        payload = bytes(range(48))
        env.view.write_bytes(0x1000, payload)
        assert bytes(env.view.read_u8(0x1000 + offset)
                     for offset in range(48)) == payload

    def test_u32_array_roundtrip(self, env):
        values = [0, 1, 0xFFFFFFFF, 0x12345678]
        for index, value in enumerate(values):
            env.view.write_u32(0x1000 + 4 * index, value)
        assert [env.view.read_u32(0x1000 + 4 * index)
                for index in range(4)] == values

    def test_negative_address_rejected(self, env):
        with pytest.raises(MemoryAccessError):
            env.view.read_u32(-4)

    def test_unaligned_in_line_read_returns_shifted_bytes(self, env):
        # x86-style unaligned load semantics within a cache line.
        env.view.write_u32(0x1000, 0x04030201)
        env.view.write_u32(0x1004, 0x08070605)
        assert env.view.read_u32(0x1001) == 0x05040302


class TestProcessor:
    def test_instructions_are_single_cycle(self):
        processor = Processor()
        processor.execute(250)
        assert processor.cycles == 250
        assert processor.instructions == 250

    def test_stall_adds_cycles_only(self):
        processor = Processor()
        processor.stall(13.5)
        assert processor.cycles == 13.5
        assert processor.instructions == 0

    def test_frequency_change_penalty(self):
        processor = Processor()
        processor.frequency_change_penalty()
        assert processor.cycles == constants.FREQUENCY_CHANGE_PENALTY_CYCLES
        assert processor.frequency_changes == 1

    def test_finalize_charges_core_and_fetch_energy(self):
        processor = Processor()
        processor.execute(100)
        processor.stall(50)
        account = processor.finalize()
        model = account.model
        assert account.core == pytest.approx(
            150 * model.core_energy_per_cycle)
        assert account.l1i == pytest.approx(100 * model.l1i_read_energy)

    def test_finalize_is_idempotent(self):
        processor = Processor()
        processor.execute(10)
        first = processor.finalize().total
        assert processor.finalize().total == first

    def test_negative_work_rejected(self):
        processor = Processor()
        with pytest.raises(ValueError):
            processor.execute(-1)
        with pytest.raises(ValueError):
            processor.stall(-1.0)


class TestWatchdog:
    def test_trips_past_limit(self):
        watchdog = Watchdog(3, "loop")
        for _ in range(3):
            watchdog.tick()
        with pytest.raises(FatalExecutionError, match="runaway loop"):
            watchdog.tick()

    def test_reset_restarts_budget(self):
        watchdog = Watchdog(2, "loop")
        watchdog.tick()
        watchdog.tick()
        watchdog.reset()
        watchdog.tick()
        assert watchdog.count == 1

    def test_invalid_limit_rejected(self):
        with pytest.raises(ValueError):
            Watchdog(0, "loop")

    def test_error_carries_description(self):
        watchdog = Watchdog(1, "radix lookup")
        watchdog.tick()
        with pytest.raises(FatalExecutionError, match="radix lookup"):
            watchdog.tick()


class TestEnvironmentWork:
    def test_work_applies_instruction_scale(self, env):
        env.work(100)
        assert env.processor.instructions == round(
            100 * env.instruction_scale)
