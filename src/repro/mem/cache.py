"""Generic set-associative, write-back, write-allocate cache with real data.

The caches hold actual line contents (not just tags) so that an injected
fault can corrupt the level-1 copy of a word while the level-2 copy stays
correct until -- and unless -- the dirty line is written back.  This is the
containment property the paper's recovery schemes rely on: "the data in the
level-2 cache will be correct unless an incorrect value from level-1 is
written to it."

Replacement is true LRU within a set.  Accesses must not straddle a line
boundary; the typed :class:`repro.mem.view.MemView` API guarantees natural
alignment, so a straddling access indicates a corrupted address and raises
:class:`repro.mem.errors.StraddlingAccessError` (which experiments convert
into a fatal error).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from repro.mem.backing import BackingStore
from repro.mem.errors import StraddlingAccessError

#: LRU victim key, hoisted so eviction does not build a closure per miss.
_LINE_LAST_USE = operator.attrgetter("last_use")


@dataclass
class CacheStatistics:
    """Hit/miss and traffic counters for one cache."""

    reads: int = 0
    writes: int = 0
    read_hits: int = 0
    write_hits: int = 0
    evictions: int = 0
    writebacks: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        """Reads plus writes."""
        return self.reads + self.writes

    @property
    def hits(self) -> int:
        """Read plus write hits."""
        return self.read_hits + self.write_hits

    @property
    def misses(self) -> int:
        """Accesses that missed."""
        return self.accesses - self.hits

    @property
    def miss_rate(self) -> float:
        """Miss fraction in [0, 1]; zero before any access."""
        accesses = self.accesses
        return self.misses / accesses if accesses else 0.0


@dataclass
class CacheLine:
    """One cache line: tag, LRU stamp, dirty bit, and the actual bytes."""

    tag: int
    data: bytearray
    dirty: bool = False
    last_use: int = 0


class Cache:
    """A set-associative cache over a lower level (another Cache or DRAM).

    Parameters
    ----------
    name:
        Used in error messages and reports (e.g. ``"L1D"``).
    size, line_size, associativity:
        Geometry in bytes/ways; size must be a multiple of
        ``line_size * associativity``.
    lower:
        The next level: another :class:`Cache` or a
        :class:`repro.mem.backing.BackingStore`.
    on_fill, on_writeback:
        Optional callbacks invoked per line transferred from / to the lower
        level; the hierarchy uses them to charge latency and energy.
    """

    def __init__(
        self,
        name: str,
        size: int,
        line_size: int,
        associativity: int,
        lower: "Cache | BackingStore",
        on_fill=None,
        on_writeback=None,
    ) -> None:
        if line_size <= 0 or line_size & (line_size - 1):
            raise ValueError(f"line size must be a power of two, got {line_size}")
        if associativity <= 0:
            raise ValueError(f"associativity must be positive, got {associativity}")
        if size <= 0 or size % (line_size * associativity):
            raise ValueError(
                f"size {size} must be a positive multiple of "
                f"line_size*associativity ({line_size}*{associativity})")
        self.name = name
        self.size = size
        self.line_size = line_size
        self.associativity = associativity
        self.num_sets = size // (line_size * associativity)
        self.lower = lower
        self.stats = CacheStatistics()
        #: Per-set ways and the LRU clock.  Public: the fault-free fast
        #: lane (repro.mem.view / repro.mem.hierarchy) performs its
        #: hit-only lookups inline; treat as read-mostly internals
        #: elsewhere.
        self.sets: "list[list[CacheLine]]" = [[] for _ in range(self.num_sets)]
        #: Ways retired per set by the way-disabling recovery action; a
        #: set's effective capacity is ``associativity - disabled``.
        self._disabled_ways: "list[int]" = [0] * self.num_sets
        self.clock = 0
        self._on_fill = on_fill
        self._on_writeback = on_writeback
        # Optional telemetry tracer (duck-typed; None keeps the mem layer
        # dependency-free).  Only line *traffic* is counted here -- fault
        # and strike events belong to the hierarchy, which knows why an
        # invalidation happened.
        self._tracer: "object | None" = None
        # Counter keys precomputed once: bump sites sit on the per-access
        # hot path and must not format strings per event.
        self._counter_evictions = f"{name}.evictions"
        self._counter_writebacks = f"{name}.writebacks"
        self._counter_fills = f"{name}.fills"
        self._counter_invalidations = f"{name}.invalidations"

    def attach_tracer(self, tracer: "object | None") -> None:
        """Route this cache's line-traffic counters to a tracer."""
        self._tracer = tracer

    # -- geometry helpers ----------------------------------------------------

    def line_address(self, address: int) -> int:
        """Base address of the line containing ``address``."""
        return address & ~(self.line_size - 1)

    def _set_index(self, line_address: int) -> int:
        return (line_address // self.line_size) % self.num_sets

    def _tag(self, line_address: int) -> int:
        return line_address // self.line_size // self.num_sets

    def _check_within_line(self, address: int, length: int) -> None:
        if self.line_address(address) != self.line_address(address + length - 1):
            raise StraddlingAccessError(
                f"{self.name}: access [{address:#x}, {address + length:#x}) "
                f"straddles a {self.line_size}-byte line")

    # -- lookup / fill ---------------------------------------------------------

    def _find(self, set_index: int, tag: int) -> "CacheLine | None":
        for line in self.sets[set_index]:
            if line.tag == tag:
                return line
        return None

    def _lower_read_line(self, line_address: int) -> bytes:
        if isinstance(self.lower, Cache):
            return self.lower.read(line_address, self.line_size)
        return self.lower.read_block(line_address, self.line_size)

    def _lower_write_line(self, line_address: int, data: bytes) -> None:
        if isinstance(self.lower, Cache):
            self.lower.write(line_address, data)
        else:
            self.lower.write_block(line_address, data)

    def _evict_if_needed(self, set_index: int) -> None:
        ways = self.sets[set_index]
        if len(ways) < self.associativity - self._disabled_ways[set_index]:
            return
        self._evict_one(set_index)

    def _evict_one(self, set_index: int) -> None:
        """Evict the set's LRU line with normal writeback accounting."""
        ways = self.sets[set_index]
        victim = min(ways, key=_LINE_LAST_USE)
        ways.remove(victim)
        self.stats.evictions += 1
        if self._tracer is not None and self._tracer.enabled:
            self._tracer.counters.bump(self._counter_evictions)
            if victim.dirty:
                self._tracer.counters.bump(self._counter_writebacks)
        if victim.dirty:
            self.stats.writebacks += 1
            victim_address = (
                (victim.tag * self.num_sets + set_index) * self.line_size)
            self._lower_write_line(victim_address, bytes(victim.data))
            if self._on_writeback is not None:
                self._on_writeback(victim_address)

    def _fill(self, line_address: int) -> CacheLine:
        set_index = self._set_index(line_address)
        self._evict_if_needed(set_index)
        data = bytearray(self._lower_read_line(line_address))
        line = CacheLine(tag=self._tag(line_address), data=data,
                         last_use=self.clock)
        self.sets[set_index].append(line)
        if self._tracer is not None and self._tracer.enabled:
            self._tracer.counters.bump(self._counter_fills)
        if self._on_fill is not None:
            self._on_fill(line_address)
        return line

    def _access_line(self, address: int, length: int, is_write: bool,
                     ) -> "tuple[CacheLine, int, bool]":
        """Common hit/miss path; returns (line, offset-in-line, was_hit)."""
        self._check_within_line(address, length)
        self.clock += 1
        line_address = self.line_address(address)
        set_index = self._set_index(line_address)
        line = self._find(set_index, self._tag(line_address))
        hit = line is not None
        if line is None:
            line = self._fill(line_address)
        line.last_use = self.clock
        return line, address - line_address, hit

    # -- public access API ------------------------------------------------------

    def read(self, address: int, length: int) -> bytes:
        """Read ``length`` bytes (within one line), filling on a miss."""
        line, offset, hit = self._access_line(address, length, is_write=False)
        self.stats.reads += 1
        if hit:
            self.stats.read_hits += 1
        return bytes(line.data[offset:offset + length])

    def write(self, address: int, data: bytes) -> None:
        """Write bytes (within one line); write-allocate on a miss."""
        line, offset, hit = self._access_line(address, len(data), is_write=True)
        self.stats.writes += 1
        if hit:
            self.stats.write_hits += 1
        line.data[offset:offset + len(data)] = data
        line.dirty = True

    # -- maintenance operations ---------------------------------------------------

    def poke(self, address: int, data: bytes) -> bool:
        """Overwrite bytes in place if (and only if) the line is resident.

        Used by the hierarchy to corrupt a resident copy on a write fault
        without touching statistics.  Returns whether the line was present.
        """
        self._check_within_line(address, len(data))
        line_address = self.line_address(address)
        line = self._find(self._set_index(line_address),
                          self._tag(line_address))
        if line is None:
            return False
        offset = address - line_address
        line.data[offset:offset + len(data)] = data
        return True

    def poke_read(self, address: int, length: int = 1) -> bytes:
        """Read resident bytes in place without statistics or side effects.

        Raises ``KeyError`` if the line is not resident; pair with
        :meth:`contains`.  Used for post-run state inspection.
        """
        self._check_within_line(address, length)
        line_address = self.line_address(address)
        line = self._find(self._set_index(line_address),
                          self._tag(line_address))
        if line is None:
            raise KeyError(f"{self.name}: {address:#x} not resident")
        offset = address - line_address
        return bytes(line.data[offset:offset + length])

    def contains(self, address: int) -> bool:
        """Whether the line holding ``address`` is resident."""
        line_address = self.line_address(address)
        return self._find(self._set_index(line_address),
                          self._tag(line_address)) is not None

    def invalidate_line(self, address: int) -> bool:
        """Drop the line holding ``address`` *without* writing it back.

        This is the strike-recovery action: the line is presumed corrupt,
        so its contents are discarded and the next access refetches from
        the lower level.  Returns whether a line was actually dropped.
        """
        line_address = self.line_address(address)
        set_index = self._set_index(line_address)
        line = self._find(set_index, self._tag(line_address))
        if line is None:
            return False
        self.sets[set_index].remove(line)
        self.stats.invalidations += 1
        if self._tracer is not None and self._tracer.enabled:
            self._tracer.counters.bump(self._counter_invalidations)
        return True

    def set_index_for(self, address: int) -> int:
        """The set (array row) holding ``address`` (public helper)."""
        return self._set_index(self.line_address(address))

    def disable_way(self, set_index: int) -> bool:
        """Permanently retire one way of ``set_index`` for this run.

        The INTERPLAY-style recovery action: a consistently-faulting way
        is taken out of service, shrinking the set's effective capacity
        by one line, in exchange for keeping the array at speed.  Any
        lines beyond the new capacity are evicted immediately (LRU
        first) with normal writeback accounting.  The last active way of
        a set is never retired -- a set must stay able to hold at least
        one line -- so this returns False (and changes nothing) when the
        set is already down to one way.
        """
        if self._disabled_ways[set_index] >= self.associativity - 1:
            return False
        self._disabled_ways[set_index] += 1
        capacity = self.associativity - self._disabled_ways[set_index]
        while len(self.sets[set_index]) > capacity:
            self._evict_one(set_index)
        return True

    def disabled_ways_in(self, set_index: int) -> int:
        """Ways retired from ``set_index`` so far."""
        return self._disabled_ways[set_index]

    @property
    def disabled_way_count(self) -> int:
        """Total ways retired across all sets."""
        return sum(self._disabled_ways)

    def flush(self) -> None:
        """Write back every dirty line and empty the cache.

        Fires the writeback callback per dirty line, exactly as eviction
        does, so the owner's bookkeeping (energy, parity poisoning) stays
        consistent.
        """
        for set_index, ways in enumerate(self.sets):
            for line in ways:
                if line.dirty:
                    self.stats.writebacks += 1
                    line_address = (
                        (line.tag * self.num_sets + set_index) * self.line_size)
                    self._lower_write_line(line_address, bytes(line.data))
                    if self._on_writeback is not None:
                        self._on_writeback(line_address)
            ways.clear()

    @property
    def resident_lines(self) -> int:
        """Number of valid lines currently held (for tests)."""
        return sum(len(ways) for ways in self.sets)
