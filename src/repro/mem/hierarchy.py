"""The clumsy memory hierarchy: a faulty, over-clocked L1D over a safe L2.

This module wires together the paper's architecture (Section 4 / 5.1):

* a 4 KB direct-mapped L1 data cache with 32-byte lines and a 2-cycle
  nominal latency, running at a selectable relative cycle time ``Cr`` --
  faults are injected into its CPU-initiated accesses, its latency shrinks
  proportionally to ``Cr`` (with a one-core-cycle load-use floor), and its
  access energy shrinks with the voltage swing;
* a 128 KB 4-way unified L2 with 128-byte lines and 15-cycle latency,
  assumed fault-free: "the data in the level-2 cache will be correct
  unless an incorrect value from level-1 is written to it";
* per-word protection -- parity (the paper's scheme) or Hamming SEC-DED
  (the alternative the paper dismisses) -- with one/two/three-strike
  recovery (:mod:`repro.core.recovery`), optionally at sub-block
  granularity (footnote 2).

Fault semantics
---------------
A **read fault** corrupts the value leaving the array; the stored copy is
intact, so a strike retry usually returns clean data.  A **write fault**
corrupts the stored copy while the check bits were generated from the
intended value, so the word's stored state is inconsistent and reads keep
flagging it; retries keep failing until the policy invalidates the block
(or refetches the affected words, with ``sub_block``) from L2.

Detection fidelity follows the codes exactly, through the one table
:meth:`repro.core.recovery.RecoveryPolicy.classify` that the trace
replayer reads too: parity catches odd-weight corruption and misses
even-weight corruption (the paper's 100x-rarer two-bit faults escape);
SEC-DED corrects single-bit corruption inline (scrubbing the stored
copy), detects double-bit corruption, and aliases silently at three bits
and beyond.  A read covering several words reports its worst word.
Every read attempt -- first, retry, or the read after strike exhaustion
-- is classified the same way.  Corruption is tracked as the set of
flipped bit positions per 32-bit word, so combinations of stored and
in-flight corruption compose correctly (flips on the same position
cancel).

Only CPU-initiated accesses draw faults; line fills and writebacks are
assumed protected by the bus.  The hierarchy charges all latency (stall
cycles) and energy to a :class:`repro.cpu.processor.Processor`.  A CPU
access of 1, 2 or 4 bytes reaches its L1D line with one lookup in the
cache's resident-line index and moves its value through the
little-endian codecs of :data:`repro.mem.cache.WORD_CODECS`
(:meth:`~repro.mem.cache.Cache.read_word`/``write_word``), the lookup
and codecs the MemView lane uses; line transfers between levels stay
byte strings.

Fault-free fast lane
--------------------
When the injector can promise stretches of fault-free accesses (it
sets ``supports_skip`` -- see
:class:`repro.mem.faults.GeometricFaultInjector`),
:class:`repro.mem.view.MemView` serves resident line-contained accesses
to words with no tracked corruption on a lane of its own, bypassing the
per-access fault bookkeeping; ``repro.mem.view`` documents the lane.
This module owns the lane's shared state and its contract:
``skip_lease`` holds the fault-free accesses leased from the injector
(``acquire_skip_lease``) and not yet spent; ``fast_reads`` and
``fast_writes`` count what it served.  ``l1_read_stall``,
``l1_read_energy`` and ``l1_write_energy`` are the per-access L1
charges of *both* lanes: ``_refresh_l1_charges`` computes them once
per clock setting, and the lane and :meth:`_charge_l1_access` both add
them, so one place prices an L1 access.  Any access the lane cannot serve
falls back to :meth:`read`/:meth:`write`, which return the unspent
lease (``refund_skip_lease``) before drawing for the access, and a
clock change returns it too, so the fault schedule is followed
exactly.  The lane is behaviourally invisible -- cache statistics, LRU
state, stall cycles, and energy are identical to the full path, and
parity/recovery semantics are untouched because they can only act when
a fault or tracked corruption exists, which is exactly when the lane
disengages.  Misses and straddling accesses always take the full path
(fills, telemetry events, and wild-access handling live here).
"""

from __future__ import annotations

import weakref

from repro.core import constants
from repro.core.recovery import NO_DETECTION, OUTCOMES, RecoveryPolicy
from repro.cpu.processor import Processor
from repro.mem.backing import BackingStore
from repro.mem.cache import Cache
from repro.mem.errors import MemoryAccessError, StraddlingAccessError
from repro.mem.faults import FaultEvent, FaultInjector
from repro.telemetry.events import (
    FaultInjected,
    FrequencySwitch,
    ParityStrike,
    RecoveryFallback,
)
from repro.telemetry.tracer import NULL_TRACER

#: Shared empty corruption set: ``dict.get`` defaults on the per-access
#: path must not allocate a fresh frozenset per word.
_NO_BITS: "frozenset[int]" = frozenset()


def weak_callback(method):
    """The bound ``method``, called through a weak reference to its object.

    A cache holding its owner's bound method would close a reference
    cycle (owner, cache, method), so a finished run's stack -- its 4 MiB
    backing store included -- would wait for the cyclic garbage
    collector.  The function is looked up now, on the object's class, so
    a subclass's override is the one called.
    """
    function = method.__func__
    owner = weakref.ref(method.__self__)
    return lambda line_address: function(owner(), line_address)


def _garbage_value(address: int, length: int) -> int:
    """Deterministic pseudo-garbage for a straddling (misaligned) load.

    Models what an ARM-class core returns for an unaligned access: junk
    that depends only on the address, so runs stay reproducible.
    """
    accumulator = 2166136261
    for part in (address & 0xFFFFFFFF, length):
        accumulator = ((accumulator ^ part) * 16777619) & 0xFFFFFFFF
    return accumulator & ((1 << (8 * length)) - 1)


class MemoryHierarchy:
    """L1D + L2 + DRAM with fault injection, protection, and recovery."""

    def __init__(
        self,
        processor: Processor,
        injector: FaultInjector,
        policy: RecoveryPolicy = NO_DETECTION,
        cycle_time: float = 1.0,
        memory_size: int = 1 << 22,
        l1_size: int = constants.L1_SIZE_BYTES,
        l1_associativity: int = constants.L1_ASSOCIATIVITY,
        shared_l2: "Cache | None" = None,
        shared_memory: "BackingStore | None" = None,
        l2_fill_fault_probability: float = 0.0,
    ) -> None:
        """Build the hierarchy.

        Line sizes, the L2 geometry and the latencies come from
        :mod:`repro.core.constants`; only the L1D's size and
        associativity vary per config.

        ``shared_l2``/``shared_memory`` let several cores (each with its
        own private L1D, processor, and injector) share one L2 and backing
        store, as network-processor engines do; see
        :mod:`repro.system.multicore`.  When sharing, the L2's own fill
        charges are managed by the sharing system, not this hierarchy.

        ``l2_fill_fault_probability`` models over-clocking the L2 as well
        (the design the paper deliberately avoids): each line delivered to
        the L1 suffers a single-bit flip with this probability.  Such
        corruption enters *before* the L1's check bits are generated, so
        no L1-side code can see it -- the ablation showing why the paper
        keeps the L2 at specification.
        """
        if l2_fill_fault_probability < 0 or l2_fill_fault_probability > 1:
            raise ValueError("L2 fill fault probability must be in [0, 1]")
        self.processor = processor
        self.injector = injector
        self.policy = policy
        self._l2_fill_fault_probability = l2_fill_fault_probability
        self._memory_latency = constants.MEMORY_LATENCY_CYCLES
        self._l1_latency = constants.L1_HIT_LATENCY_CYCLES
        self._l2_latency = constants.L2_HIT_LATENCY_CYCLES
        if shared_l2 is not None:
            if shared_memory is None:
                raise ValueError("a shared L2 requires the shared memory")
            self.memory = shared_memory
            self.l2 = shared_l2
        else:
            self.memory = (shared_memory if shared_memory is not None
                           else BackingStore(memory_size))
            self.l2 = Cache("L2", constants.L2_SIZE_BYTES,
                            constants.L2_LINE_BYTES,
                            constants.L2_ASSOCIATIVITY,
                            lower=self.memory,
                            on_fill=weak_callback(self._on_l2_fill))
        self.l1d = Cache("L1D", l1_size, constants.L1_LINE_BYTES,
                         l1_associativity, lower=self.l2,
                         on_fill=weak_callback(self._on_l1_fill),
                         on_writeback=weak_callback(self._on_l1_line_leaves))
        self._cycle_time = cycle_time
        #: word-aligned address -> positions (0..31) where the stored L1
        #: data disagrees with what the check bits were generated from.
        self.corruption: "dict[int, frozenset[int]]" = {}
        self.detected_faults = 0
        self.corrected_faults = 0
        self.undetected_corruptions = 0
        self.recovery_invalidations = 0
        self.sub_block_refills = 0
        self.scrubbed_words = 0
        self.wild_reads = 0
        self.wild_writes = 0
        #: every injected fault's (address, is_write) -- AVF-style
        #: attribution of faults to application structures (see
        #: repro.harness.vulnerability).
        self.fault_sites: "list[tuple[int, bool]]" = []
        #: Telemetry sink; NULL_TRACER keeps the hot paths event-free.
        self.tracer = NULL_TRACER
        #: Accesses served by the fault-free fast lane (aggregates; the
        #: lane itself stays event-free).
        self.fast_reads = 0
        self.fast_writes = 0
        #: Fault-free accesses leased from the injector but not yet
        #: spent (see the module docstring's fast-lane protocol).
        self.skip_lease = 0
        self._refresh_l1_charges()

    # -- telemetry ---------------------------------------------------------------

    def attach_tracer(self, tracer) -> None:
        """Route this hierarchy's events to a tracer."""
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def _trace_fault(self, address: int, is_write: bool,
                     event: FaultEvent) -> None:
        self.tracer.emit(FaultInjected(
            cycle=self.processor.cycles, address=address, is_write=is_write,
            flip_count=event.flip_count,
            bit_positions=event.bit_positions, cr=self._cycle_time))

    def _trace_strike(self, address: int, attempt: int) -> None:
        self.tracer.emit(ParityStrike(
            cycle=self.processor.cycles, address=address,
            line_address=self.l1d.line_address(address),
            attempt=attempt, cr=self._cycle_time))

    # -- clock control ----------------------------------------------------------

    @property
    def cycle_time(self) -> float:
        """Current relative cycle time ``Cr`` of the L1 data cache."""
        return self._cycle_time

    def set_cycle_time(self, relative_cycle_time: float,
                       reason: str = "manual") -> None:
        """Switch the L1D clock; charges the 10-cycle penalty on a change.

        ``reason`` labels the emitted telemetry event: ``"dynamic"`` for
        the epoch controller, ``"manual"`` otherwise.
        """
        if relative_cycle_time <= 0:
            raise ValueError("relative cycle time must be positive")
        if relative_cycle_time == self._cycle_time:
            return
        previous = self._cycle_time
        self._cycle_time = relative_cycle_time
        if self.skip_lease:
            # The lease was sampled at the old rate; hand it back so the
            # injector can re-derive the schedule at the new one.
            self.injector.refund_skip_lease(self.skip_lease)
            self.skip_lease = 0
        self._refresh_l1_charges()
        self.processor.frequency_change_penalty()
        if self.tracer.enabled:
            self.tracer.emit(FrequencySwitch(
                cycle=self.processor.cycles, previous_cr=previous,
                new_cr=relative_cycle_time, reason=reason))

    def _refresh_l1_charges(self) -> None:
        """Price one L1 access at the current clock, for both lanes.

        Loads stall the in-order core for the (clock-scaled) access
        latency; stores retire through the store buffer without
        stalling.  The stall cannot drop below one core cycle: however
        fast the cache array cycles, a load-use pair still spans a full
        pipeline stage.  This floor is why the paper's delay gains
        saturate at Cr = 0.5 (2-cycle nominal latency) and Cr = 0.25
        wins only on energy while losing on fallibility (Section 5.4).
        The energy is ``l1d_access_energy`` at the current ``Cr`` and
        protection code.  :meth:`_charge_l1_access` and the MemView lane
        both add these values, so the two lanes accumulate bit-identical
        floats.  Re-derived on every clock change.
        """
        model = self.processor.energy.model
        code = self.policy.code
        self.l1_read_stall = max(1.0, self._l1_latency * self._cycle_time)
        self.l1_read_energy = model.l1d_access_energy(
            False, self._cycle_time, code=code)
        self.l1_write_energy = model.l1d_access_energy(
            True, self._cycle_time, code=code)

    # -- energy / latency callbacks ------------------------------------------------

    def _on_l1_fill(self, line_address: int) -> None:
        self.processor.stall(self._l2_latency)
        self.processor.energy.charge_l2_access()
        if self._l2_fill_fault_probability <= 0:
            return
        bit = self.injector.draw_fill_fault(self._l2_fill_fault_probability,
                                            self.l1d.line_size * 8)
        if bit is not None:
            # A fault on the L2 side corrupts the delivered line before
            # the L1 generates its check bits: self-consistent corruption
            # no L1-side protection can detect (hence untracked).
            offset = bit // 8
            if self.l1d.contains(line_address + offset):
                byte = self.l1d.poke_read(line_address + offset, 1)[0]
                self.l1d.poke(line_address + offset,
                              bytes([byte ^ (1 << (bit % 8))]))

    def _on_l2_fill(self, line_address: int) -> None:
        self.processor.stall(self._memory_latency)

    def _on_l1_line_leaves(self, line_address: int) -> None:
        # Writeback traffic: energy for the L2 update; off the critical path.
        self.processor.energy.charge_l2_access()
        # A correcting code reads the array through the ECC logic on the
        # way out, so single-bit corruption is repaired in the L2 copy the
        # writeback just produced.  Parity can only detect; corruption
        # escapes (and becomes self-consistent) exactly as the paper's
        # scheme allows.
        if self.policy.corrects_faults:
            end = line_address + self.l1d.line_size
            for word in [word for word in self.corruption
                         if line_address <= word < end]:
                bits = self.corruption[word]
                if len(bits) == 1 and self.l2.contains(word):
                    stored = int.from_bytes(self.l2.poke_read(word, 4),
                                            "little")
                    for bit in bits:
                        stored ^= 1 << bit
                    self.l2.poke(word, stored.to_bytes(4, "little"))
                    self.scrubbed_words += 1
        self._drop_corruption_in_line(line_address)

    def _drop_corruption_in_line(self, line_address: int) -> None:
        end = line_address + self.l1d.line_size
        stale = [word for word in self.corruption
                 if line_address <= word < end]
        for word in stale:
            del self.corruption[word]

    # -- fault bookkeeping --------------------------------------------------------

    def _charge_l1_access(self, is_write: bool) -> None:
        """Add one L1 access's charges (see :meth:`_refresh_l1_charges`)."""
        if is_write:
            self.processor.energy.l1d += self.l1_write_energy
            return
        self.processor.cycles += self.l1_read_stall
        self.processor.energy.l1d += self.l1_read_energy

    @staticmethod
    def _covered_words(address: int, length: int) -> range:
        # Returns the range itself (re-iterable, O(1) to build): this
        # runs per access, and materialising a tuple here was a
        # measurable hot-path allocation.
        first = address & ~3
        last = (address + length - 1) & ~3
        return range(first, last + 4, 4)

    @staticmethod
    def _map_flips(address: int, positions: "tuple[int, ...]",
                   ) -> "dict[int, frozenset[int]]":
        """Map access-relative bit flips to word-relative positions."""
        by_word: "dict[int, set[int]]" = {}
        for position in positions:
            byte_address = address + position // 8
            word = byte_address & ~3
            word_bit = (byte_address - word) * 8 + position % 8
            by_word.setdefault(word, set()).add(word_bit)
        return {word: frozenset(bits) for word, bits in by_word.items()}

    def _combined_corruption(self, address: int, length: int,
                             read_flips: "dict[int, frozenset[int]]",
                             ) -> "dict[int, frozenset[int]]":
        """Stored XOR in-flight corruption per covered word (non-empty only)."""
        combined = {}
        for word in self._covered_words(address, length):
            mixture = (self.corruption.get(word, _NO_BITS)
                       ^ read_flips.get(word, _NO_BITS))
            if mixture:
                combined[word] = mixture
        return combined

    def _scrub(self, word: int) -> None:
        """Repair a stored single-bit corruption in place (SEC-DED)."""
        bits = self.corruption.pop(word, None)
        if not bits or not self.l1d.contains(word):
            return
        stored = int.from_bytes(self.l1d.poke_read(word, 4), "little")
        for bit in bits:
            stored ^= 1 << bit
        self.l1d.poke(word, stored.to_bytes(4, "little"))
        self.scrubbed_words += 1

    # -- read path -------------------------------------------------------------

    def _raw_read(self, address: int, length: int) -> "tuple[int, str]":
        """One L1 read attempt: returns ``(value, outcome)``.

        ``outcome`` is the worst covered word's
        :meth:`~repro.core.recovery.RecoveryPolicy.classify` entry, in
        :data:`~repro.core.recovery.OUTCOMES` order: ``"clean"``,
        ``"corrected"`` (SEC-DED repaired every corrupted word -- use the
        value), ``"undetected"`` (the corruption flows on silently and is
        counted), or ``"detected"`` (the protection flagged an
        uncorrectable failure -- strike machinery decides).  Without a
        protection code every read is ``"clean"``.  A line-straddling
        access (only reachable through a corrupted pointer) returns
        deterministic garbage, as unaligned loads do on ARM-class cores.
        A genuinely out-of-range access raises
        :class:`MemoryAccessError`, which the harness scores as a fatal
        error -- the crash case of paper Section 2.
        """
        try:
            value = self.l1d.read_word(address, length)
        except StraddlingAccessError:
            self.wild_reads += 1
            self._charge_l1_access(is_write=False)
            return _garbage_value(address, length), "clean"
        self._charge_l1_access(is_write=False)
        event = self.injector.draw(self._cycle_time, length * 8)
        if event is None:
            if not self.corruption:
                return value, "clean"
            read_flips: "dict[int, frozenset[int]]" = {}
        else:
            self.injector.record_kind(is_write=False)
            self.fault_sites.append((address, False))
            if self.tracer.enabled:
                self._trace_fault(address, False, event)
            value = event.apply(value)
            read_flips = self._map_flips(address, event.bit_positions)
        if not self.policy.detects_faults:
            return value, "clean"
        combined = self._combined_corruption(address, length, read_flips)
        if not combined:
            return value, "clean"
        outcome = max((self.policy.classify(len(bits))
                       for bits in combined.values()), key=OUTCOMES.index)
        if outcome == "undetected":
            self.undetected_corruptions += 1
        elif outcome == "corrected":
            # Every corrupted word has exactly one flipped bit: correct it.
            for word, bits in combined.items():
                bit = next(iter(bits))
                byte_address = word + bit // 8
                if address <= byte_address < address + length:
                    value ^= 1 << ((byte_address - address) * 8 + bit % 8)
                self.corrected_faults += 1
                if word in self.corruption:
                    self._scrub(word)
        return value, outcome

    def _recover(self, address: int, length: int) -> None:
        """Strike budget exhausted: discard the suspect copy (Section 4).

        Whole-line invalidation by default; with ``sub_block`` only the
        affected words are refetched from the L2 (footnote 2), keeping the
        rest of the line -- and its possibly newer data -- intact.
        """
        if self.policy.sub_block:
            refetched = 0
            for word in self._covered_words(address, length):
                if not self.l1d.contains(word):
                    continue
                fresh = self.l2.read(word, 4)
                self.processor.stall(self._l2_latency)
                self.processor.energy.charge_l2_access()
                self.l1d.poke(word, fresh)
                self.corruption.pop(word, None)
                self.sub_block_refills += 1
                refetched += 1
            if self.tracer.enabled:
                self.tracer.emit(RecoveryFallback(
                    cycle=self.processor.cycles, address=address,
                    line_address=self.l1d.line_address(address),
                    action=self.policy.fallback_action, words=refetched,
                    cr=self._cycle_time))
            return
        if self.l1d.invalidate_line(address):
            self.recovery_invalidations += 1
            self._drop_corruption_in_line(self.l1d.line_address(address))
            if self.tracer.enabled:
                self.tracer.emit(RecoveryFallback(
                    cycle=self.processor.cycles, address=address,
                    line_address=self.l1d.line_address(address),
                    action=self.policy.fallback_action, words=0,
                    cr=self._cycle_time))

    def read(self, address: int, length: int) -> int:
        """Read ``length`` (1, 2 or 4) bytes as a little-endian unsigned
        integer.

        Applies the configured detection/recovery policy.  Without
        detection the (possibly corrupted) value flows straight to the
        application.  With an N-strike policy, up to N attempts are made;
        if all N detect an uncorrectable failure the recovery action fires
        and the word is serviced from the reliable L2.
        """
        if self.skip_lease > 0:
            # The view-level fast lane transferred the schedule gap but
            # could not serve this access (miss or straddle); return the
            # unspent lease so the draws below continue the schedule
            # exactly where the fast lane left it.
            self.injector.refund_skip_lease(self.skip_lease)
            self.skip_lease = 0
        value, outcome = self._raw_read(address, length)
        if outcome != "detected":
            return value
        self.detected_faults += 1
        if self.tracer.enabled:
            self._trace_strike(address, attempt=1)
        for retry in range(self.policy.max_retries):
            value, outcome = self._raw_read(address, length)
            if outcome != "detected":
                return value
            self.detected_faults += 1
            if self.tracer.enabled:
                self._trace_strike(address, attempt=retry + 2)
        self._recover(address, length)
        # The post-recovery read is itself an L1 access and can fault
        # again; the value is returned regardless (the strike budget is
        # spent), though a detected failure is still counted.
        value, outcome = self._raw_read(address, length)
        if outcome == "detected":
            self.detected_faults += 1
            if self.tracer.enabled:
                # Detected after the strike budget was already spent.
                self._trace_strike(address, attempt=self.policy.strikes + 1)
        return value

    # -- write path -------------------------------------------------------------

    def write(self, address: int, value: int, length: int) -> None:
        """Write ``value`` as ``length`` (1, 2 or 4) little-endian bytes.

        A write fault corrupts the *stored* bytes; the check bits were
        generated from the intended value, so the affected words become
        inconsistent and later reads detect (or, under SEC-DED, correct)
        them.  A clean write refreshes the covered words' check bits and
        clears any earlier corruption tracking.
        """
        if value < 0 or value >> (length * 8):
            raise ValueError(
                f"value {value:#x} does not fit in {length} bytes")
        if self.skip_lease > 0:
            # Same contract as in read(): the fast lane declined, so the
            # outstanding lease must be returned before any draw below.
            self.injector.refund_skip_lease(self.skip_lease)
            self.skip_lease = 0
        try:
            self.l1d.write_word(address, length, value)
        except StraddlingAccessError:
            # A line-straddling store (corrupted pointer) is dropped, as a
            # store-buffer would squash a misaligned micro-op.
            self.wild_writes += 1
            self._charge_l1_access(is_write=True)
            return
        self._charge_l1_access(is_write=True)
        event = self.injector.draw(self._cycle_time, length * 8)
        if event is None:
            if self.corruption:
                for word in self._covered_words(address, length):
                    self.corruption.pop(word, None)
            return
        self.injector.record_kind(is_write=True)
        self.fault_sites.append((address, True))
        if self.tracer.enabled:
            self._trace_fault(address, True, event)
        corrupted = event.apply(value).to_bytes(length, "little")
        self.l1d.poke(address, corrupted)
        flip_map = self._map_flips(address, event.bit_positions)
        for word in self._covered_words(address, length):
            # Check bits are regenerated per word at write time from the
            # intended value, so tracking reflects only this write.
            bits = flip_map.get(word, _NO_BITS)
            if bits:
                self.corruption[word] = bits
            else:
                self.corruption.pop(word, None)
        # With a protection code, silent corruption is counted when a read
        # delivers it (the _raw_read paths); without one, count it here.
        if not self.policy.detects_faults:
            self.undetected_corruptions += 1

    # -- bulk helpers (fault-free, for test setup and golden inspection) -----------

    def load_initial(self, address: int, data: bytes) -> None:
        """Write directly to backing memory, bypassing caches and faults.

        For loading packet payloads and initial images before timing starts.
        Fails if any affected line is cached (would create stale copies).
        """
        for offset in range(0, len(data), 4):
            chunk_address = address + offset
            if self.l1d.contains(chunk_address) or self.l2.contains(chunk_address):
                raise RuntimeError(
                    "load_initial would bypass a cached copy at "
                    f"{chunk_address:#x}; load before first access")
        self.memory.write_block(address, data)

    def inspect(self, address: int, length: int) -> bytes:
        """Read current architectural state (L1 over L2 over memory) without
        side effects, faults, or charges -- for observers and tests."""
        out = bytearray()
        for offset in range(length):
            byte_address = address + offset
            if self.l1d.contains(byte_address):
                out += self.l1d.poke_read(byte_address)
            elif self.l2.contains(byte_address):
                out += self.l2.poke_read(byte_address)
            else:
                out += self.memory.read_block(byte_address, 1)
        return bytes(out)
