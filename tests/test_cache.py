"""Generic set-associative cache model."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.backing import BackingStore
from repro.mem.cache import WORD_CODECS, Cache
from repro.mem.errors import StraddlingAccessError


def make_cache(size=256, line=32, assoc=2, store_size=1 << 14,
               lower=None, **kwargs):
    lower = lower if lower is not None else BackingStore(store_size)
    return Cache("T", size, line, assoc, lower, **kwargs), lower


class TestGeometry:
    def test_sets_computed(self):
        cache, _ = make_cache(size=256, line=32, assoc=2)
        assert cache.num_sets == 4

    def test_line_address(self):
        cache, _ = make_cache()
        assert cache.line_address(0x47) == 0x40

    @pytest.mark.parametrize("kwargs", [
        dict(size=0), dict(line=0), dict(line=24), dict(assoc=0),
        dict(size=100)])
    def test_invalid_geometry_rejected(self, kwargs):
        with pytest.raises(ValueError):
            make_cache(**kwargs)


class TestBasicBehaviour:
    def test_read_miss_fills_from_lower(self):
        cache, store = make_cache()
        store.write_block(0x100, b"\xAB" * 4)
        assert cache.read(0x100, 4) == b"\xAB" * 4
        assert cache.stats.misses == 1

    def test_second_read_hits(self):
        cache, _ = make_cache()
        cache.read(0x100, 4)
        cache.read(0x104, 4)
        assert cache.stats.read_hits == 1
        assert cache.stats.misses == 1

    def test_write_read_roundtrip(self):
        cache, _ = make_cache()
        cache.write(0x40, b"\x01\x02\x03\x04")
        assert cache.read(0x40, 4) == b"\x01\x02\x03\x04"

    def test_write_back_is_lazy(self):
        cache, store = make_cache()
        cache.write(0x40, b"dirt")
        # The lower level must not see the write until eviction/flush.
        assert store.read_block(0x40, 4) == bytes(4)
        cache.flush()
        assert store.read_block(0x40, 4) == b"dirt"

    def test_straddling_access_rejected(self):
        cache, _ = make_cache(line=32)
        with pytest.raises(StraddlingAccessError):
            cache.read(30, 4)
        with pytest.raises(StraddlingAccessError):
            cache.write(30, b"1234")


class TestReplacement:
    def test_lru_victim_selected(self):
        # 2-way, 4 sets of 32B lines: addresses 0x000, 0x080, 0x100 collide
        # in set 0 (stride = num_sets * line = 128).
        cache, _ = make_cache(size=256, line=32, assoc=2)
        cache.read(0x000, 4)
        cache.read(0x080, 4)
        cache.read(0x000, 4)    # refresh 0x000; LRU is now 0x080
        cache.read(0x100, 4)    # evicts 0x080
        assert cache.contains(0x000)
        assert not cache.contains(0x080)
        assert cache.contains(0x100)

    def test_eviction_writes_back_dirty_victim(self):
        cache, store = make_cache(size=256, line=32, assoc=1)
        cache.write(0x000, b"aaaa")
        cache.read(0x100, 4)    # direct-mapped conflict evicts dirty line
        assert store.read_block(0x000, 4) == b"aaaa"
        assert cache.stats.writebacks == 1

    def test_clean_eviction_skips_writeback(self):
        cache, _ = make_cache(size=256, line=32, assoc=1)
        cache.read(0x000, 4)
        cache.read(0x100, 4)
        assert cache.stats.evictions == 1
        assert cache.stats.writebacks == 0

    def test_capacity_bounded(self):
        cache, _ = make_cache(size=256, line=32, assoc=2)
        for i in range(64):
            cache.read(i * 32, 4)
        assert cache.resident_lines <= 8


def cache_state(cache):
    """The LRU clock, the statistics and every resident line."""
    return (cache.clock, dataclasses.astuple(cache.stats),
            [[(line.tag, line.last_use, line.dirty, bytes(line.data))
              for line in ways] for ways in cache.sets])


def resident_line(cache, address):
    line_index = cache.line_address(address) // cache.line_size
    tag = line_index // cache.num_sets
    (line,) = [line for line in cache.sets[line_index % cache.num_sets]
               if line.tag == tag]
    return line


class TestOnePassLookup:
    """Edge cases of the hit/miss lookup every slow-path access makes."""

    @pytest.mark.parametrize("is_write", [False, True])
    def test_straddling_access_changes_nothing(self, is_write):
        cache, _ = make_cache(size=256, line=32, assoc=2)
        cache.write(0x00, b"aaaa")
        cache.read(0x20, 4)    # both lines the access touches are resident
        before = cache_state(cache)
        with pytest.raises(StraddlingAccessError) as raised:
            if is_write:
                cache.write(0x1E, b"1234")
            else:
                cache.read(0x1E, 4)
        assert str(raised.value) == (
            "T: access [0x1e, 0x22) straddles a 32-byte line")
        assert cache_state(cache) == before

    def test_miss_into_a_full_set_evicts_the_lru_line(self):
        writebacks = []
        cache, store = make_cache(size=256, line=32, assoc=2,
                                  on_writeback=writebacks.append)
        cache.write(0x000, b"aaaa")    # set 0: dirty, least recently used
        cache.read(0x080, 4)           # set 0: clean
        cache.read(0x100, 4)           # set 0 is full: evicts 0x000
        assert [cache.contains(address)
                for address in (0x000, 0x080, 0x100)] == [False, True, True]
        assert store.read_block(0x000, 4) == b"aaaa"
        assert writebacks == [0x000]
        cache.read(0x180, 4)           # evicts 0x080, clean: no writeback
        assert not cache.contains(0x080)
        assert writebacks == [0x000]
        assert (cache.stats.evictions, cache.stats.writebacks) == (2, 1)

    @pytest.mark.parametrize("is_write", [False, True])
    def test_fill_stamps_the_line_after_the_tick(self, is_write):
        fill_clocks = []
        cache, _ = make_cache(
            on_fill=lambda address: fill_clocks.append(cache.clock))
        cache.read(0x40, 4)
        cache.read(0x44, 4)
        if is_write:
            cache.write(0x100, b"zz")
        else:
            cache.read(0x100, 4)
        assert cache.clock == 3
        assert fill_clocks == [1, 3]
        assert resident_line(cache, 0x100).last_use == 3
        assert resident_line(cache, 0x40).last_use == 2


class TestCallbacks:
    def test_fill_and_writeback_callbacks_fire(self):
        fills, writebacks = [], []
        cache, _ = make_cache(size=256, line=32, assoc=1,
                              on_fill=fills.append,
                              on_writeback=writebacks.append)
        cache.write(0x000, b"dirt")
        cache.read(0x100, 4)
        assert fills == [0x000, 0x100]
        assert writebacks == [0x000]

    def test_flush_fires_writeback_callback(self):
        writebacks = []
        cache, _ = make_cache(on_writeback=writebacks.append)
        cache.write(0x20, b"dirt")
        cache.flush()
        assert writebacks == [0x20]


class TestMaintenance:
    def test_invalidate_discards_without_writeback(self):
        cache, store = make_cache()
        cache.write(0x40, b"dirt")
        assert cache.invalidate_line(0x44)
        assert not cache.contains(0x40)
        assert store.read_block(0x40, 4) == bytes(4)
        assert cache.stats.invalidations == 1

    def test_invalidate_missing_line_is_noop(self):
        cache, _ = make_cache()
        assert not cache.invalidate_line(0x40)
        assert cache.stats.invalidations == 0

    def test_poke_updates_only_resident_lines(self):
        cache, _ = make_cache()
        assert not cache.poke(0x40, b"zz")
        cache.read(0x40, 4)
        assert cache.poke(0x40, b"zz")
        assert cache.read(0x40, 2) == b"zz"

    def test_poke_read_requires_residency(self):
        cache, _ = make_cache()
        with pytest.raises(KeyError):
            cache.poke_read(0x40)
        cache.write(0x40, b"\x7F")
        assert cache.poke_read(0x40) == b"\x7F"

    def test_poke_does_not_touch_stats(self):
        cache, _ = make_cache()
        cache.read(0x40, 4)
        before = cache.stats.accesses
        cache.poke(0x40, b"x")
        cache.poke_read(0x40)
        assert cache.stats.accesses == before


class TestMultiLevel:
    def test_l1_over_l2_inclusion_of_data(self):
        store = BackingStore(1 << 14)
        l2 = Cache("L2", 1024, 64, 2, store)
        l1, _ = make_cache(size=256, line=32, assoc=1, lower=l2)
        l1.write(0x200, b"deep")
        l1.flush()
        assert l2.read(0x200, 4) == b"deep"

    def test_l1_miss_reads_through_l2(self):
        store = BackingStore(1 << 14)
        l2 = Cache("L2", 1024, 64, 2, store)
        l1, _ = make_cache(size=256, line=32, assoc=1, lower=l2)
        store.write_block(0x300, b"data")
        assert l1.read(0x300, 4) == b"data"
        assert l2.stats.misses == 1
        assert l1.read(0x300, 4) == b"data"
        assert l2.stats.accesses == 1  # second read served by L1


class TestAgainstReferenceModel:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(
        st.tuples(st.booleans(),
                  st.integers(min_value=0, max_value=1023),
                  st.integers(min_value=0, max_value=255)),
        min_size=1, max_size=300))
    def test_read_your_writes_property(self, operations):
        # Whatever the cache does internally, the architectural bytes must
        # match a flat reference memory.
        cache, _ = make_cache(size=128, line=16, assoc=2, store_size=1024)
        reference = bytearray(1024)
        for is_write, address, value in operations:
            if is_write:
                cache.write(address, bytes([value]))
                reference[address] = value
            else:
                assert cache.read(address, 1) == bytes([reference[address]])

    def test_randomised_flush_consistency(self):
        rng = random.Random(0)
        cache, store = make_cache(size=128, line=16, assoc=1, store_size=2048)
        reference = bytearray(2048)
        for _ in range(2000):
            address = rng.randrange(2048)
            value = rng.randrange(256)
            cache.write(address, bytes([value]))
            reference[address] = value
        cache.flush()
        assert store.read_block(0, 2048) == bytes(reference)


def indexed_lines(cache):
    """The lines ``cache.sets`` holds, keyed by their line address."""
    return {(line.tag * cache.num_sets + set_index) * cache.line_size: line
            for set_index, ways in enumerate(cache.sets) for line in ways}


def assert_index_matches_sets(cache):
    expected = indexed_lines(cache)
    assert len(expected) == sum(len(ways) for ways in cache.sets)
    assert cache.lines.keys() == expected.keys()
    assert all(cache.lines[address] is line
               for address, line in expected.items())
    assert cache.resident_lines == len(expected)


def assert_words_agree(cache):
    """Every width at every in-line offset reads and writes what
    ``poke_read`` shows."""
    for line_address in list(cache.lines):
        for width in WORD_CODECS:
            for offset in range(cache.line_size - width + 1):
                address = line_address + offset
                stored = cache.poke_read(address, width)
                assert cache.read_word(address, width) == int.from_bytes(
                    stored, "little")
                value = int.from_bytes(stored[::-1], "little") ^ offset
                cache.write_word(address, width, value)
                assert cache.poke_read(address, width) == value.to_bytes(
                    width, "little")
    assert_index_matches_sets(cache)


ADDRESSES = st.integers(min_value=0, max_value=1023)
CORES = st.integers(min_value=0, max_value=1)
WIDTHS = st.sampled_from(sorted(WORD_CODECS))

#: (operation, L1 index, address, width / length / bytes, word value)
OPERATIONS = st.one_of(
    st.tuples(st.just("read_word"), CORES, ADDRESSES, WIDTHS, st.just(0)),
    st.tuples(st.just("write_word"), CORES, ADDRESSES, WIDTHS,
              st.integers(min_value=0, max_value=0xFFFFFFFF)),
    st.tuples(st.just("read"), CORES, ADDRESSES,
              st.integers(min_value=1, max_value=8), st.just(0)),
    st.tuples(st.just("write"), CORES, ADDRESSES,
              st.binary(min_size=1, max_size=8), st.just(0)),
    st.tuples(st.just("poke"), CORES, ADDRESSES,
              st.binary(min_size=1, max_size=4), st.just(0)),
    st.tuples(st.just("invalidate"), CORES, ADDRESSES, st.just(1),
              st.just(0)),
    st.tuples(st.just("flush"), CORES, ADDRESSES, st.just(1), st.just(0)),
)

#: Topology -> associativity of each L1 over the one small L2.
TOPOLOGIES = {"1-way": (1,), "2-way": (2,), "two-l1s-shared-l2": (2, 1)}


class TestResidentLineIndex:
    """``Cache.lines`` indexes exactly the lines ``Cache.sets`` holds."""

    @settings(max_examples=60, deadline=None)
    @given(topology=st.sampled_from(sorted(TOPOLOGIES)),
           operations=st.lists(OPERATIONS, max_size=120))
    def test_index_tracks_sets_under_random_operations(self, topology,
                                                       operations):
        l2 = Cache("L2", 256, 32, 2, BackingStore(1024))
        l1s = [Cache(f"L1-{core}", 64, 16, associativity, l2)
               for core, associativity in enumerate(TOPOLOGIES[topology])]
        for name, core, address, argument, value in operations:
            cache = l1s[core % len(l1s)]
            length = argument if isinstance(argument, int) else len(argument)
            # Keep the access inside its line; straddles have their tests.
            address = min(address, cache.line_address(address)
                          + cache.line_size - length)
            if name == "read_word":
                word = cache.read_word(address, argument)
                assert word == int.from_bytes(
                    cache.poke_read(address, argument), "little")
            elif name == "write_word":
                value &= (1 << (8 * argument)) - 1
                cache.write_word(address, argument, value)
                assert cache.poke_read(address, argument) == value.to_bytes(
                    argument, "little")
            elif name == "read":
                assert cache.read(address, argument) == cache.poke_read(
                    address, argument)
            elif name == "write":
                cache.write(address, argument)
                assert cache.poke_read(address, length) == argument
            elif name == "poke":
                resident = cache.contains(address)
                assert cache.poke(address, argument) == resident
                if resident:
                    assert cache.poke_read(address, length) == argument
            elif name == "invalidate":
                resident = cache.contains(address)
                assert cache.invalidate_line(address) == resident
                assert not cache.contains(address)
            else:
                cache.flush()
                assert not cache.lines
            for level in (*l1s, l2):
                assert_index_matches_sets(level)
        for level in (*l1s, l2):
            assert_words_agree(level)
