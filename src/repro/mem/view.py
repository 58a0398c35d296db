"""Typed load/store view over the memory hierarchy.

The NetBench reimplementations talk to simulated memory exclusively through
this API.  Application code always issues naturally-aligned little-endian
accesses; addresses *derived from corrupted data* may be anything, and the
view forwards them as hardware would: an access that stays within one cache
line returns the bytes at that address (unaligned-but-in-line loads behave
like x86), a line-straddling access yields deterministic garbage (ARM-style
unaligned junk, handled by the hierarchy), and an access outside the
address space raises :class:`repro.mem.errors.MemoryAccessError`, which the
harness scores as a fatal error (the crash case of paper Section 2).

Fast lane
---------
Each accessor opens with an inlined copy of the hierarchy's fault-free
fast lane (see the ``repro.mem.hierarchy`` module docstring for the
protocol and its correctness argument): when the injector has leased a
fault-free stretch and no word the access covers is tracked as
corrupted, a resident line-contained access is served right here in a
single Python frame --
the dominant cost of simulating at the paper's fault rates is CPython
call overhead, and this is the one place where flattening the layering
pays for itself.  The inlined path mutates only *public* state
(``Cache.sets``/``clock``/``stats``, ``Processor.cycles``, the
hierarchy's lease and charge attributes) and is effect-for-effect
identical to the full path; anything it cannot serve -- no lease, a
miss, a straddling or negative address, a non-skipping injector -- falls
through to :meth:`MemoryHierarchy.read` / ``write``, which runs its own
fast lane against the same shared lease, so the two copies cannot
disagree about the fault schedule.
"""

from __future__ import annotations

from repro.mem.errors import MemoryAccessError
from repro.mem.hierarchy import MemoryHierarchy


class MemView:
    """Byte/halfword/word accessors over a :class:`MemoryHierarchy`."""

    def __init__(self, hierarchy: MemoryHierarchy) -> None:
        self.hierarchy = hierarchy

    @staticmethod
    def _check_address(address: int) -> None:
        if address < 0:
            raise MemoryAccessError(f"negative address {address:#x}")

    # -- loads -------------------------------------------------------------

    def read_u8(self, address: int) -> int:
        """Load one byte."""
        h = self.hierarchy
        injector = h.injector
        corruption = h.corruption
        if injector.supports_skip and address >= 0 and (
                not corruption
                or address & -4 not in corruption):
            if injector.enabled and injector.scale != 0.0:
                lease = h.skip_lease
                if lease == 0:
                    lease = h.skip_lease = injector.acquire_skip_lease(
                        h.cycle_time)
            else:
                # Disabled (or zero-scale) injector: hazard-free with
                # nothing scheduled, so serve without spending lease.
                lease = -1
            if lease:
                l1d = h.l1d
                line_address = address & -l1d.line_size
                num_sets = l1d.num_sets
                line_index = line_address // l1d.line_size
                tag = line_index // num_sets
                for line in l1d.sets[line_index % num_sets]:
                    if line.tag == tag:
                        l1d.clock = clock = l1d.clock + 1
                        line.last_use = clock
                        stats = l1d.stats
                        stats.reads += 1
                        stats.read_hits += 1
                        if lease > 0:
                            h.skip_lease = lease - 1
                        stall = h.fast_read_stall
                        h.processor.cycles += stall
                        h.stall_cycles_l1 += stall
                        h.processor.energy.l1d += h.fast_read_energy
                        h.fast_reads += 1
                        return line.data[address - line_address]
        self._check_address(address)
        return h.read(address, 1)

    def read_u16(self, address: int) -> int:
        """Load a halfword (little-endian)."""
        h = self.hierarchy
        injector = h.injector
        corruption = h.corruption
        if injector.supports_skip and address >= 0 and (
                not corruption
                or (address & -4 not in corruption
                    and (address + 1) & -4 not in corruption)):
            if injector.enabled and injector.scale != 0.0:
                lease = h.skip_lease
                if lease == 0:
                    lease = h.skip_lease = injector.acquire_skip_lease(
                        h.cycle_time)
            else:
                # Disabled (or zero-scale) injector: hazard-free with
                # nothing scheduled, so serve without spending lease.
                lease = -1
            if lease:
                l1d = h.l1d
                line_size = l1d.line_size
                line_address = address & -line_size
                if line_address == (address + 1) & -line_size:
                    num_sets = l1d.num_sets
                    line_index = line_address // line_size
                    tag = line_index // num_sets
                    for line in l1d.sets[line_index % num_sets]:
                        if line.tag == tag:
                            l1d.clock = clock = l1d.clock + 1
                            line.last_use = clock
                            stats = l1d.stats
                            stats.reads += 1
                            stats.read_hits += 1
                            if lease > 0:
                                h.skip_lease = lease - 1
                            stall = h.fast_read_stall
                            h.processor.cycles += stall
                            h.stall_cycles_l1 += stall
                            h.processor.energy.l1d += h.fast_read_energy
                            h.fast_reads += 1
                            offset = address - line_address
                            return int.from_bytes(
                                line.data[offset:offset + 2], "little")
        self._check_address(address)
        return h.read(address, 2)

    def read_u32(self, address: int) -> int:
        """Load a word (little-endian)."""
        h = self.hierarchy
        injector = h.injector
        corruption = h.corruption
        if injector.supports_skip and address >= 0 and (
                not corruption
                or (address & -4 not in corruption
                    and (address + 3) & -4 not in corruption)):
            if injector.enabled and injector.scale != 0.0:
                lease = h.skip_lease
                if lease == 0:
                    lease = h.skip_lease = injector.acquire_skip_lease(
                        h.cycle_time)
            else:
                # Disabled (or zero-scale) injector: hazard-free with
                # nothing scheduled, so serve without spending lease.
                lease = -1
            if lease:
                l1d = h.l1d
                line_size = l1d.line_size
                line_address = address & -line_size
                if line_address == (address + 3) & -line_size:
                    num_sets = l1d.num_sets
                    line_index = line_address // line_size
                    tag = line_index // num_sets
                    for line in l1d.sets[line_index % num_sets]:
                        if line.tag == tag:
                            l1d.clock = clock = l1d.clock + 1
                            line.last_use = clock
                            stats = l1d.stats
                            stats.reads += 1
                            stats.read_hits += 1
                            if lease > 0:
                                h.skip_lease = lease - 1
                            stall = h.fast_read_stall
                            h.processor.cycles += stall
                            h.stall_cycles_l1 += stall
                            h.processor.energy.l1d += h.fast_read_energy
                            h.fast_reads += 1
                            offset = address - line_address
                            return int.from_bytes(
                                line.data[offset:offset + 4], "little")
        self._check_address(address)
        return h.read(address, 4)

    # -- stores -------------------------------------------------------------

    def write_u8(self, address: int, value: int) -> None:
        """Store one byte."""
        h = self.hierarchy
        injector = h.injector
        value &= 0xFF
        corruption = h.corruption
        if injector.supports_skip and address >= 0 and (
                not corruption
                or address & -4 not in corruption):
            if injector.enabled and injector.scale != 0.0:
                lease = h.skip_lease
                if lease == 0:
                    lease = h.skip_lease = injector.acquire_skip_lease(
                        h.cycle_time)
            else:
                # Disabled (or zero-scale) injector: hazard-free with
                # nothing scheduled, so serve without spending lease.
                lease = -1
            if lease:
                l1d = h.l1d
                line_address = address & -l1d.line_size
                num_sets = l1d.num_sets
                line_index = line_address // l1d.line_size
                tag = line_index // num_sets
                for line in l1d.sets[line_index % num_sets]:
                    if line.tag == tag:
                        l1d.clock = clock = l1d.clock + 1
                        line.last_use = clock
                        stats = l1d.stats
                        stats.writes += 1
                        stats.write_hits += 1
                        line.data[address - line_address] = value
                        line.dirty = True
                        if lease > 0:
                            h.skip_lease = lease - 1
                        h.processor.energy.l1d += h.fast_write_energy
                        h.fast_writes += 1
                        return
        self._check_address(address)
        h.write(address, value, 1)

    def write_u16(self, address: int, value: int) -> None:
        """Store a halfword (little-endian)."""
        h = self.hierarchy
        injector = h.injector
        value &= 0xFFFF
        corruption = h.corruption
        if injector.supports_skip and address >= 0 and (
                not corruption
                or (address & -4 not in corruption
                    and (address + 1) & -4 not in corruption)):
            if injector.enabled and injector.scale != 0.0:
                lease = h.skip_lease
                if lease == 0:
                    lease = h.skip_lease = injector.acquire_skip_lease(
                        h.cycle_time)
            else:
                # Disabled (or zero-scale) injector: hazard-free with
                # nothing scheduled, so serve without spending lease.
                lease = -1
            if lease:
                l1d = h.l1d
                line_size = l1d.line_size
                line_address = address & -line_size
                if line_address == (address + 1) & -line_size:
                    num_sets = l1d.num_sets
                    line_index = line_address // line_size
                    tag = line_index // num_sets
                    for line in l1d.sets[line_index % num_sets]:
                        if line.tag == tag:
                            l1d.clock = clock = l1d.clock + 1
                            line.last_use = clock
                            stats = l1d.stats
                            stats.writes += 1
                            stats.write_hits += 1
                            offset = address - line_address
                            line.data[offset:offset + 2] = value.to_bytes(
                                2, "little")
                            line.dirty = True
                            if lease > 0:
                                h.skip_lease = lease - 1
                            h.processor.energy.l1d += h.fast_write_energy
                            h.fast_writes += 1
                            return
        self._check_address(address)
        h.write(address, value, 2)

    def write_u32(self, address: int, value: int) -> None:
        """Store a word (little-endian)."""
        h = self.hierarchy
        injector = h.injector
        value &= 0xFFFFFFFF
        corruption = h.corruption
        if injector.supports_skip and address >= 0 and (
                not corruption
                or (address & -4 not in corruption
                    and (address + 3) & -4 not in corruption)):
            if injector.enabled and injector.scale != 0.0:
                lease = h.skip_lease
                if lease == 0:
                    lease = h.skip_lease = injector.acquire_skip_lease(
                        h.cycle_time)
            else:
                # Disabled (or zero-scale) injector: hazard-free with
                # nothing scheduled, so serve without spending lease.
                lease = -1
            if lease:
                l1d = h.l1d
                line_size = l1d.line_size
                line_address = address & -line_size
                if line_address == (address + 3) & -line_size:
                    num_sets = l1d.num_sets
                    line_index = line_address // line_size
                    tag = line_index // num_sets
                    for line in l1d.sets[line_index % num_sets]:
                        if line.tag == tag:
                            l1d.clock = clock = l1d.clock + 1
                            line.last_use = clock
                            stats = l1d.stats
                            stats.writes += 1
                            stats.write_hits += 1
                            offset = address - line_address
                            line.data[offset:offset + 4] = value.to_bytes(
                                4, "little")
                            line.dirty = True
                            if lease > 0:
                                h.skip_lease = lease - 1
                            h.processor.energy.l1d += h.fast_write_energy
                            h.fast_writes += 1
                            return
        self._check_address(address)
        h.write(address, value, 4)

    # -- bulk helpers ------------------------------------------------------

    def write_bytes(self, address: int, data: bytes) -> None:
        """Store a byte string through the cache, byte by byte.

        Each byte is one store (one fault hazard, one hit/miss, one
        energy charge), but on the fast lane whole line-resident chunks
        are served with a single lookup: consuming ``k`` lease units at
        once is equivalent to ``k`` single-byte stores because the
        leased stretch is fault-free in any order, and the end state of
        the LRU clock and statistics is byte-exact.  Only the L1 energy
        accumulates as ``k * charge`` instead of ``k`` separate adds --
        identical to the last ulp or two, and never on the reference
        injector's path.  Anything the chunk loop cannot serve (miss,
        tracked corruption, a scheduled fault closer than the chunk)
        falls back to the per-byte path for the remainder.
        """
        h = self.hierarchy
        injector = h.injector
        start = 0
        total = len(data)
        if injector.supports_skip and address >= 0 and not h.corruption:
            hazardous = injector.enabled and injector.scale != 0.0
            l1d = h.l1d
            line_size = l1d.line_size
            num_sets = l1d.num_sets
            while start < total:
                addr = address + start
                line_address = addr & -line_size
                chunk = min(total - start, line_address + line_size - addr)
                if hazardous:
                    lease = h.skip_lease
                    if lease == 0:
                        lease = h.skip_lease = injector.acquire_skip_lease(
                            h.cycle_time)
                    if lease < chunk:
                        break
                line_index = line_address // line_size
                tag = line_index // num_sets
                for line in l1d.sets[line_index % num_sets]:
                    if line.tag == tag:
                        break
                else:
                    break
                l1d.clock = clock = l1d.clock + chunk
                line.last_use = clock
                stats = l1d.stats
                stats.writes += chunk
                stats.write_hits += chunk
                offset = addr - line_address
                line.data[offset:offset + chunk] = data[start:start + chunk]
                line.dirty = True
                if hazardous:
                    h.skip_lease = lease - chunk
                h.processor.energy.l1d += chunk * h.fast_write_energy
                h.fast_writes += chunk
                start += chunk
        for offset in range(start, total):
            self.write_u8(address + offset, data[offset])

    def read_bytes(self, address: int, length: int) -> bytes:
        """Load ``length`` bytes through the cache, byte by byte."""
        return bytes(self.read_u8(address + offset)
                     for offset in range(length))

    def write_u32_array(self, address: int, values: "list[int]") -> None:
        """Store consecutive 32-bit words starting at ``address``."""
        for index, value in enumerate(values):
            self.write_u32(address + 4 * index, value)

    def read_u32_array(self, address: int, count: int) -> "list[int]":
        """Load ``count`` consecutive 32-bit words."""
        return [self.read_u32(address + 4 * index) for index in range(count)]
