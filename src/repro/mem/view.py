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
Each accessor opens with the hierarchy's fault-free fast lane (see the
``repro.mem.hierarchy`` module docstring for the lease and refund
contract): when the injector has leased a fault-free stretch and no word
the access covers is tracked as corrupted, a resident line-contained
access is served right here in a single Python frame -- the dominant
cost of simulating at the paper's fault rates is CPython call overhead,
and this is the one place where flattening the layering pays for itself.
The lane finds the line with one ``Cache.lines.get`` on the L1D's
resident-line index, moves a halfword or word through the shared
little-endian codecs of ``repro.mem.cache.WORD_CODECS`` (a byte is one
index), and mutates only *public* state (the line, ``Cache.clock`` and
``stats``, ``Processor.cycles``, the hierarchy's lease and charge
attributes); it is effect-for-effect identical to the full path, which
reaches the same line through the same index and codecs
(:meth:`repro.mem.cache.Cache.read_word`).  Anything it cannot serve
-- no lease, a miss, a straddling or negative address, a non-skipping
injector -- falls through to :meth:`MemoryHierarchy.read` / ``write``,
which refunds the unspent lease to the injector before drawing for the
access, so the fault schedule continues exactly where the lane left it.

The lane exists once per direction: :func:`_load` and :func:`_store`
build the three typed accessors of each from their width, a closure
constant, so an access still runs in one frame.  A shared per-access
helper would add a call to every access: measured on one faulted config
per app against one fully inlined copy per accessor, a helper cost about
6% of kernel time and these factories about 2% (DESIGN.md section 10).
``write_bytes`` keeps its own chunked copy of the store lane, which
serves a whole line-resident chunk per lookup.
"""

from __future__ import annotations

from typing import Callable

from repro.mem.cache import WORD_CODECS
from repro.mem.errors import MemoryAccessError
from repro.mem.hierarchy import MemoryHierarchy


def _load(width: int, doc: str) -> "Callable[[MemView, int], int]":
    """Build the ``width``-byte load accessor around the read fast lane."""
    last = width - 1
    unpack_from = WORD_CODECS[width].unpack_from

    def load(self: "MemView", address: int) -> int:
        h = self.hierarchy
        injector = h.injector
        corruption = h.corruption
        if injector.supports_skip and address >= 0 and (
                not corruption
                or (address & -4 not in corruption
                    and (address + last) & -4 not in corruption)):
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
                if width == 1 or line_address == (address + last) & -line_size:
                    line = l1d.lines.get(line_address)
                    if line is not None:
                        l1d.clock = clock = l1d.clock + 1
                        line.last_use = clock
                        stats = l1d.stats
                        stats.reads += 1
                        stats.read_hits += 1
                        if lease > 0:
                            h.skip_lease = lease - 1
                        h.processor.cycles += h.l1_read_stall
                        h.processor.energy.l1d += h.l1_read_energy
                        h.fast_reads += 1
                        if width == 1:
                            return line.data[address - line_address]
                        return unpack_from(line.data,
                                           address - line_address)[0]
        if address < 0:
            raise MemoryAccessError(f"negative address {address:#x}")
        return h.read(address, width)

    load.__name__ = f"read_u{8 * width}"
    load.__qualname__ = f"MemView.{load.__name__}"
    load.__doc__ = doc
    return load


def _store(width: int, doc: str,
           ) -> "Callable[[MemView, int, int], None]":
    """Build the ``width``-byte store accessor around the write fast lane."""
    last = width - 1
    mask = (1 << (8 * width)) - 1
    pack_into = WORD_CODECS[width].pack_into

    def store(self: "MemView", address: int, value: int) -> None:
        h = self.hierarchy
        injector = h.injector
        value &= mask
        corruption = h.corruption
        if injector.supports_skip and address >= 0 and (
                not corruption
                or (address & -4 not in corruption
                    and (address + last) & -4 not in corruption)):
            if injector.enabled and injector.scale != 0.0:
                lease = h.skip_lease
                if lease == 0:
                    lease = h.skip_lease = injector.acquire_skip_lease(
                        h.cycle_time)
            else:
                lease = -1
            if lease:
                l1d = h.l1d
                line_size = l1d.line_size
                line_address = address & -line_size
                if width == 1 or line_address == (address + last) & -line_size:
                    line = l1d.lines.get(line_address)
                    if line is not None:
                        l1d.clock = clock = l1d.clock + 1
                        line.last_use = clock
                        stats = l1d.stats
                        stats.writes += 1
                        stats.write_hits += 1
                        if width == 1:
                            line.data[address - line_address] = value
                        else:
                            pack_into(line.data, address - line_address,
                                      value)
                        line.dirty = True
                        if lease > 0:
                            h.skip_lease = lease - 1
                        h.processor.energy.l1d += h.l1_write_energy
                        h.fast_writes += 1
                        return
        if address < 0:
            raise MemoryAccessError(f"negative address {address:#x}")
        h.write(address, value, width)

    store.__name__ = f"write_u{8 * width}"
    store.__qualname__ = f"MemView.{store.__name__}"
    store.__doc__ = doc
    return store


class MemView:
    """Byte/halfword/word accessors over a :class:`MemoryHierarchy`."""

    def __init__(self, hierarchy: MemoryHierarchy) -> None:
        self.hierarchy = hierarchy

    read_u8 = _load(1, "Load one byte.")
    read_u16 = _load(2, "Load a halfword (little-endian).")
    read_u32 = _load(4, "Load a word (little-endian).")
    write_u8 = _store(1, "Store one byte.")
    write_u16 = _store(2, "Store a halfword (little-endian).")
    write_u32 = _store(4, "Store a word (little-endian).")

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
        falls back to the per-byte path for the remainder.  Each served
        chunk is reported to :meth:`_chunk_stored`.
        """
        h = self.hierarchy
        injector = h.injector
        start = 0
        total = len(data)
        if injector.supports_skip and address >= 0 and not h.corruption:
            hazardous = injector.enabled and injector.scale != 0.0
            l1d = h.l1d
            line_size = l1d.line_size
            lines = l1d.lines
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
                line = lines.get(line_address)
                if line is None:
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
                h.processor.energy.l1d += chunk * h.l1_write_energy
                h.fast_writes += chunk
                self._chunk_stored(addr, chunk)
                start += chunk
        for offset in range(start, total):
            self.write_u8(address + offset, data[offset])

    def _chunk_stored(self, address: int, count: int) -> None:
        """Hook called after the lane stores ``count`` bytes at ``address``.

        A no-op here; the trace recorder overrides it to emit one merged
        store event per chunk.
        """
