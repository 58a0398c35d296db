"""In-memory algorithm kernels vs host-side oracles."""

import binascii
import hashlib
import random

import pytest
from hypothesis import given, settings

from repro.apps.checksum import checksum_region, update_ttl_and_checksum
from repro.apps.crc32 import (
    CRC_TABLE_ENTRIES,
    build_crc_table,
    crc32_region,
    crc_table_values,
)
from repro.apps.md5 import Md5Kernel, t_table_values
from repro.net.ip import Ipv4Header, internet_checksum
from tests.conftest import build_test_environment
from tests.strategies import payloads


class TestChecksumKernel:
    def test_matches_host_reference(self, env):
        data = bytes(range(1, 41))
        env.view.write_bytes(0x1000, data)
        assert checksum_region(env, 0x1000, 40) == internet_checksum(data)

    def test_odd_length(self, env):
        data = b"\x12\x34\x56"
        env.view.write_bytes(0x1000, data)
        assert checksum_region(env, 0x1000, 3) == internet_checksum(data)

    def test_empty_region(self, env):
        assert checksum_region(env, 0x1000, 0) == 0xFFFF

    def test_negative_length_rejected(self, env):
        with pytest.raises(ValueError):
            checksum_region(env, 0x1000, -1)

    def test_valid_header_sums_to_zero(self, env):
        header = Ipv4Header(source=123, destination=456).pack()
        env.view.write_bytes(0x1000, header)
        assert checksum_region(env, 0x1000, 20) == 0

    @settings(max_examples=25, deadline=None)
    @given(payloads(max_size=60))
    def test_property_matches_reference(self, data):
        env = build_test_environment()
        env.view.write_bytes(0x1000, data)
        assert checksum_region(env, 0x1000,
                               len(data)) == internet_checksum(data)


class TestTtlUpdate:
    def test_decrements_and_revalidates(self, env):
        header = Ipv4Header(source=9, destination=8, ttl=64).pack()
        env.view.write_bytes(0x1000, header)
        new_ttl, _checksum = update_ttl_and_checksum(env, 0x1000)
        assert new_ttl == 63
        assert env.view.read_u8(0x1008) == 63
        # The rewritten header must carry a valid checksum again.
        assert checksum_region(env, 0x1000, 20) == 0

    def test_ttl_wraps_like_a_byte(self, env):
        header = Ipv4Header(source=9, destination=8, ttl=0).pack()
        env.view.write_bytes(0x1000, header)
        new_ttl, _ = update_ttl_and_checksum(env, 0x1000)
        assert new_ttl == 255


class TestCrcKernel:
    def test_table_matches_binascii_generator_polynomial(self):
        table = crc_table_values()
        assert len(table) == CRC_TABLE_ENTRIES
        # Spot-check the classic first entries of the reflected table.
        assert table[0] == 0
        assert table[1] == 0x77073096
        assert table[255] == 0x2D02EF8D

    @pytest.mark.parametrize("message", [
        b"", b"a", b"123456789", b"hello world", bytes(range(256))])
    def test_matches_binascii(self, env, message):
        table = build_crc_table(env)
        buffer = env.allocator.alloc("msg", max(len(message), 4))
        env.view.write_bytes(buffer.address, message)
        assert (crc32_region(env, table, buffer.address, len(message))
                == binascii.crc32(message))

    def test_table_stored_in_simulated_memory(self, env):
        table = build_crc_table(env)
        stored = [env.view.read_u32(table.address + 4 * index)
                  for index in range(CRC_TABLE_ENTRIES)]
        assert stored == crc_table_values()

    def test_corrupted_table_entry_changes_crc(self, env):
        table = build_crc_table(env)
        buffer = env.allocator.alloc("msg", 16)
        env.view.write_bytes(buffer.address, b"packet-data!")
        good = crc32_region(env, table, buffer.address, 12)
        # Flip one bit of the table entry the first byte indexes:
        # index = (0xFFFFFFFF ^ 'p') & 0xFF.
        entry_address = table.address + 4 * (0xFF ^ ord("p"))
        env.view.write_u32(entry_address,
                           env.view.read_u32(entry_address) ^ 1)
        bad = crc32_region(env, table, buffer.address, 12)
        assert bad != good

    def test_negative_length_rejected(self, env):
        table = build_crc_table(env)
        with pytest.raises(ValueError):
            crc32_region(env, table, 0x1000, -1)

    @settings(max_examples=20, deadline=None)
    @given(payloads(max_size=80))
    def test_property_matches_binascii(self, message):
        env = build_test_environment()
        table = build_crc_table(env)
        buffer = env.allocator.alloc("msg", max(len(message), 4))
        env.view.write_bytes(buffer.address, message)
        assert (crc32_region(env, table, buffer.address, len(message))
                == binascii.crc32(message))


class TestMd5Kernel:
    @pytest.fixture
    def kernel(self, env):
        kernel = Md5Kernel(env)
        kernel.initialize()
        return kernel

    def test_t_table_is_rfc1321(self):
        table = t_table_values()
        assert table[0] == 0xD76AA478
        assert table[1] == 0xE8C7B756
        assert table[63] == 0xEB86D391

    @pytest.mark.parametrize("message", [
        b"", b"a", b"abc", b"message digest",
        b"a" * 55, b"b" * 56, b"c" * 63, b"d" * 64, b"e" * 65,
        b"f" * 128, b"0123456789" * 20])
    def test_rfc_vectors_and_padding_boundaries(self, env, kernel, message):
        buffer = env.allocator.alloc("msg", max(len(message), 4))
        env.view.write_bytes(buffer.address, message)
        assert (kernel.digest(buffer.address, len(message))
                == hashlib.md5(message).digest())

    def test_single_bit_flip_diffuses(self, env, kernel):
        buffer = env.allocator.alloc("msg", 64)
        message = bytes(64)
        env.view.write_bytes(buffer.address, message)
        clean = kernel.digest(buffer.address, 64)
        env.view.write_u8(buffer.address + 17, 0x01)
        dirty = kernel.digest(buffer.address, 64)
        differing_bits = sum(bin(a ^ b).count("1")
                             for a, b in zip(clean, dirty))
        assert differing_bits > 30  # avalanche

    def test_negative_length_rejected(self, env, kernel):
        with pytest.raises(ValueError):
            kernel.digest(0x1000, -1)

    @settings(max_examples=15, deadline=None)
    @given(payloads(max_size=200))
    def test_property_matches_hashlib(self, message):
        env = build_test_environment()
        kernel = Md5Kernel(env)
        kernel.initialize()
        buffer = env.allocator.alloc("msg", max(len(message), 4))
        env.view.write_bytes(buffer.address, message)
        assert (kernel.digest(buffer.address, len(message))
                == hashlib.md5(message).digest())
