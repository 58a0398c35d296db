"""Vectorized trace replayer: many configs over one recorded trace.

One lane prices every accepted configuration.  The recorded event
stream is re-priced under the config's clock segments and protection
code with numpy: every cycle charge is a multiple of 0.5 (exactly
representable, so float addition is associative here), and the L1D
energy is accumulated in the execute backend's add order via a
sequential ``cumsum`` -- per-access unit adds for the reference
injector, one ``count * unit`` multiply-add per bulk-store chunk for the
geometric injector's fast lane.

Fault *sites* are sampled directly on top of that pricing -- a binomial
count of faulting accesses per enabled plane/clock segment at the
model's per-access probability, uniform positions among the segment's
accesses -- and each sampled fault runs a compact micro-model of the
hierarchy's detection/strike/recovery machinery.  Its per-read decision
is the hierarchy's own table,
:meth:`repro.core.recovery.RecoveryPolicy.classify` (parity detects
odd-weight flips, SEC-DED corrects one and detects two); retries re-draw
in-flight faults, exhausted strike budgets pay the invalidation + refill
+ re-access costs, and persistent write corruption marks packets
erroneous until the next store covers the word.

With no fault law active (``fault_scale == 0`` or ``planes == "none"``)
the lane samples nothing, draws no random number, and reproduces the
execute backend bit-for-bit; the oracle's replay twin asserts
field-by-field equality there.  With faults, the lane is *statistically*
equivalent to execution (same fault law, same expected costs), not
trajectory-equivalent; the oracle twin checks it with the chi-square/KS
machinery.  Divergence -- any fault whose consequences the micro-model
cannot bound (control-plane corruption, a branched-on static value,
active L2-fill faults, burst mode) -- returns ``None`` and the backend
falls back to faithful execution.

Documented approximations of faulted pricing (see DESIGN.md): fatal
errors (wild pointers, watchdog trips) are not modeled; erroneous
packets are marked deterministically from the fault window rather than
re-executed; eviction of corrupted-but-undetected lines is ignored;
category errors are reported under the single ``"modeled"`` key.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import constants
from repro.core.dynamic import DynamicFrequencyController
from repro.core.energy import EnergyModel
from repro.core.fault_model import FaultModel
from repro.harness.config import ExperimentConfig
from repro.harness.experiment import ExperimentResult, consecutive_error_runs
from repro.replay.trace import (
    KIND_L1_FILL,
    KIND_L2_FILL,
    KIND_READ,
    KIND_WORK,
    KIND_WRITE,
    KIND_WRITEBACK,
    Trace,
)

_L1_LATENCY = float(constants.L1_HIT_LATENCY_CYCLES)
_L2_LATENCY = float(constants.L2_HIT_LATENCY_CYCLES)
_MEMORY_LATENCY = float(constants.MEMORY_LATENCY_CYCLES)
_PENALTY = float(constants.FREQUENCY_CHANGE_PENALTY_CYCLES)


def decline_reason(config: ExperimentConfig) -> "str | None":
    """Why :func:`replay_trace` refuses ``config`` before pricing it.

    ``None`` means the config is priced, though a sampled fault may
    still decline it (the ``"diverged"`` fallback).  The two static
    refusals, in the order they are checked:

    * ``"l2-fill"``: active L2-fill faults (the execute backend burns
      injector RNG on every fill once the phase enables the injector,
      even at scale 0);
    * ``"burst"``: burst mode (per-access rate modulation).
    """
    if config.planes == "none":
        return None
    if config.l2_fill_fault_probability > 0:
        return "l2-fill"
    if config.fault_scale == 0:
        # Nothing faults, so bursts are inert.
        return None
    if config.burst_start_probability > 0:
        return "burst"
    return None


def replay_trace(trace: Trace,
                 config: ExperimentConfig) -> "ExperimentResult | None":
    """Replay ``config`` over ``trace``; ``None`` means fall back.

    ``None`` is returned whenever faithful execution is required: a
    static refusal (:func:`decline_reason`), or a sampled fault whose
    consequences reach a branched-on value.
    """
    if decline_reason(config) is not None:
        return None
    return _SampledReplay(trace, config).run()


# -- event pricing ------------------------------------------------------------


def _chunked(config: ExperimentConfig) -> bool:
    """Whether the execute backend would merge bulk-store chunks.

    The geometric injector's fast lane charges a resident chunk as one
    ``count * unit`` multiply-add; the reference injector (and the
    geometric one in burst mode, which disables skipping) charges every
    byte separately.
    """
    return (config.injector == "geometric"
            and config.burst_start_probability == 0.0)


def _build_segments(trace: Trace, initial_cr: float,
                    changes: "list[tuple[int, float]]",
                    ) -> "tuple[list[tuple[int, int, float]], int, tuple[float, ...]]":
    """Clock segments over the event stream.

    ``changes`` lists the dynamic controller's ``(packet, new_cr)``
    switches (empty for a static clock).  Returns ``(segments,
    penalties, cycle_history)`` where each segment is ``(start_event,
    end_event, cr)``; ``penalties`` counts the 10-cycle frequency
    switches the execute backend would pay.
    """
    segments: "list[tuple[int, int, float]]" = []
    history = [initial_cr]
    start, cr = 0, initial_cr
    for boundary, new_cr in changes:
        end = trace.packet_event_start(boundary)
        segments.append((start, end, cr))
        history.append(new_cr)
        start, cr = end, new_cr
    segments.append((start, trace.n_events, cr))
    return segments, len(changes), tuple(history)


def _per_event_costs(trace: Trace,
                     segments: "list[tuple[int, int, float]]",
                     code: str, model: EnergyModel,
                     chunked: bool) -> "tuple[np.ndarray, np.ndarray]":
    """Per-event (cycle_delta, l1d_energy_value) arrays.

    Cycle deltas: work counts, 15-cycle L1 fills, 100-cycle L2 fills,
    per-segment read stalls (``max(1, 2 * Cr)``); writes and writebacks
    stall nothing.  L1D energy values: per-segment access units; with
    ``chunked``, bulk-store events carry ``count * unit`` (the
    geometric fast lane's single multiply-add), otherwise the per-unit
    value (expanded ``count`` times by the caller).
    """
    kind = trace.kind
    n = trace.n_events
    delta = np.zeros(n)
    work = kind == KIND_WORK
    delta[work] = trace.count[work].astype(np.float64)
    delta[kind == KIND_L1_FILL] = _L2_LATENCY
    delta[kind == KIND_L2_FILL] = _MEMORY_LATENCY
    reads = kind == KIND_READ
    writes = kind == KIND_WRITE
    l1d = np.zeros(n)
    for start, end, cr in segments:
        if start >= end:
            continue
        seg_reads = reads[start:end]
        seg_writes = writes[start:end]
        delta_view = delta[start:end]
        delta_view[seg_reads] = max(1.0, _L1_LATENCY * cr)
        unit_read = model.l1d_access_energy(False, cr, code=code)
        unit_write = model.l1d_access_energy(True, cr, code=code)
        l1d_view = l1d[start:end]
        l1d_view[seg_reads] = unit_read
        if chunked:
            counts = trace.count[start:end][seg_writes]
            l1d_view[seg_writes] = counts.astype(np.float64) * unit_write
        else:
            l1d_view[seg_writes] = unit_write
    return delta, l1d


def _l1d_energy(trace: Trace, l1d_values: np.ndarray,
                chunked: bool) -> float:
    """L1D access energy summed in the execute backend's add order.

    A sequential ``cumsum`` over the events in execution order
    reproduces the execute backend's accumulation (and rounding)
    exactly; the zeros of non-access events leave a running sum
    unchanged, so no access mask is needed.  Without ``chunked`` a
    count-k bulk store is k separate unit adds, so each store's value is
    repeated ``count`` times.
    """
    ordered = l1d_values
    if not chunked:
        ordered = np.repeat(l1d_values, np.where(
            trace.kind == KIND_WRITE, trace.count, 1))
    return float(np.cumsum(ordered)[-1]) if len(ordered) else 0.0


def _packet_cycles(trace: Trace, delta: np.ndarray) -> np.ndarray:
    """Per-packet cycle sums from the per-event deltas (penalty-free,
    exactly as the execute backend's before/after deltas land)."""
    prefix = np.concatenate(([0.0], np.cumsum(delta)))
    bounds = np.append(trace.packet_starts, trace.n_events)
    return prefix[bounds[1:]] - prefix[bounds[:-1]]


# -- sampled faults -----------------------------------------------------------


@dataclass
class _Expanded:
    """Access slots: one row per architectural access (chunks split)."""

    address: np.ndarray
    word: np.ndarray
    is_write: np.ndarray
    static: np.ndarray
    packet: np.ndarray
    order: np.ndarray
    sorted_words: np.ndarray


def _packet_slot_starts(trace: Trace) -> np.ndarray:
    """First access slot of each packet, then the total slot count.

    Slots are numbered in execution order, one per architectural access
    (a bulk-store event spans ``count`` slots), so a packet range's slots
    are the contiguous run between two of these offsets and the control
    plane owns ``[0, starts[0])``.
    """
    kind = trace.kind
    slots = np.where(kind == KIND_WRITE, trace.count,
                     (kind == KIND_READ).astype(np.int64))
    prefix = np.concatenate(([0], np.cumsum(slots)))
    return prefix[np.append(trace.packet_starts, trace.n_events)]


def _expand_accesses(trace: Trace) -> _Expanded:
    """Split merged bulk-store events into per-byte access slots."""
    kind = trace.kind
    access = (kind == KIND_READ) | (kind == KIND_WRITE)
    events = np.nonzero(access)[0]
    is_write_event = kind[events] == KIND_WRITE
    counts = np.where(is_write_event, trace.count[events], 1)
    starts = np.cumsum(counts) - counts
    total = int(counts.sum())
    offsets = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    address = np.repeat(trace.address[events], counts) + offsets
    packet_of_event = np.searchsorted(trace.packet_starts, events,
                                      side="right") - 1
    word = address & ~np.int64(3)
    order = np.lexsort((np.arange(total), word))
    return _Expanded(
        address=address, word=word,
        is_write=np.repeat(is_write_event, counts),
        static=np.repeat(trace.static[events], counts),
        packet=np.repeat(packet_of_event, counts),
        order=order, sorted_words=word[order])


class _SampledReplay:
    """One config's replay over a trace, with its faults sampled."""

    def __init__(self, trace: Trace, config: ExperimentConfig) -> None:
        self.trace = trace
        self.config = config
        self.policy = config.policy
        self.energy_model = EnergyModel()
        self.fault_model = FaultModel.calibrated()
        self.rng = np.random.default_rng(config.injector_seed)
        self.slot_starts = _packet_slot_starts(trace).tolist()
        #: Per-slot arrays, built by the first sampled fault (most
        #: priced configs sample none).
        self._expanded: "_Expanded | None" = None
        n = trace.offered_packets
        self.injected = 0
        self.detected = 0
        self.fault_sites: "list[tuple[int, bool]]" = []
        self.erroneous = np.zeros(n, dtype=bool)
        self.packet_extra_cycles = np.zeros(n)
        self.control_extra_cycles = 0.0
        self.extra_l1d = 0.0
        self.extra_l2 = 0.0
        self.extra_accesses = 0
        self.extra_misses = 0
        self.detected_per_packet = np.zeros(n, dtype=np.int64)
        self.diverged = False

    # -- fault-law helpers ------------------------------------------------

    def _p_access(self, cr: float) -> float:
        return self.fault_model.access_fault_probability(
            cr, self.config.fault_scale)

    def _draw_flips(self, cr: float) -> int:
        """Multiplicity from the conditional law P(k bits | fault)."""
        single, double, triple = self.fault_model.multiplicity_probabilities(cr)
        scale = self.config.fault_scale
        p1 = min(single * scale, 1.0)
        p2 = min(double * scale, 1.0)
        p3 = min(triple * scale, 1.0)
        roll = self.rng.random() * (p1 + p2 + p3)
        if roll < p3:
            return 3
        if roll < p3 + p2:
            return 2
        return 1

    @property
    def exp(self) -> _Expanded:
        """The trace's access slots, expanded on first use."""
        if self._expanded is None:
            self._expanded = _expand_accesses(self.trace)
        return self._expanded

    def _sample_slots(self, first: int, stop: int,
                      cr: float) -> np.ndarray:
        """Faulting slots among ``[first, stop)`` (sorted, unique)."""
        n_slots = stop - first
        p = self._p_access(cr)
        if p <= 0.0 or n_slots == 0:
            return np.empty(0, dtype=np.int64)
        n_faults = int(self.rng.binomial(n_slots, min(p, 1.0)))
        if n_faults == 0:
            return np.empty(0, dtype=np.int64)
        picked = self.rng.choice(n_slots, size=n_faults, replace=False)
        return np.sort(first + picked)

    # -- bookkeeping ------------------------------------------------------

    def _bump_detected(self, packet: int) -> None:
        self.detected += 1
        if packet >= 0:
            self.detected_per_packet[packet] += 1

    def _charge_access(self, packet: int, stall: float,
                       unit: float) -> None:
        """One extra L1D read access (retry or post-recovery)."""
        self.extra_accesses += 1
        self.extra_l1d += unit
        if packet >= 0:
            self.packet_extra_cycles[packet] += stall
        else:
            self.control_extra_cycles += stall

    def _charge_recovery(self, packet: int) -> None:
        """Invalidate + refill (or sub-block refetch) from the safe L2."""
        if not self.policy.sub_block:
            self.extra_misses += 1
        self.extra_l2 += self.energy_model.l2_access_energy
        if packet >= 0:
            self.packet_extra_cycles[packet] += _L2_LATENCY
        else:
            self.control_extra_cycles += _L2_LATENCY

    def _consume_corrupt(self, packet: int, static: bool) -> None:
        """A corrupted value reached the application."""
        if packet < 0 or static:
            self.diverged = True
        else:
            self.erroneous[packet] = True

    def _word_slots(self, word: int) -> np.ndarray:
        """All access slots touching ``word``, in execution order."""
        lo = np.searchsorted(self.exp.sorted_words, word, side="left")
        hi = np.searchsorted(self.exp.sorted_words, word, side="right")
        return np.sort(self.exp.order[lo:hi])

    def _mark_window(self, window: np.ndarray) -> None:
        """Mark every read in a stale/corrupt window's packet erroneous."""
        for slot in window:
            packet = int(self.exp.packet[slot])
            if packet < 0 or self.exp.static[slot]:
                self.diverged = True
                return
            self.erroneous[packet] = True

    # -- per-fault micro-model --------------------------------------------

    def _process_fault(self, slot: int, cr: float) -> None:
        exp = self.exp
        self.injected += 1
        address = int(exp.address[slot])
        is_write = bool(exp.is_write[slot])
        self.fault_sites.append((address, is_write))
        packet = int(exp.packet[slot])
        static = bool(exp.static[slot])
        word = int(exp.word[slot])
        outcome = self.policy.classify(self._draw_flips(cr))
        if is_write:
            self._write_fault(slot, cr, packet, static, word, outcome)
        else:
            self._read_fault(slot, cr, packet, static, word, outcome)

    def _read_fault(self, slot: int, cr: float, packet: int, static: bool,
                    word: int, outcome: str) -> None:
        if outcome == "corrected":
            return  # SEC-DED repaired in flight; stored copy was intact
        if outcome == "undetected":
            self._consume_corrupt(packet, static)
            return
        # Detected: the stored copy is intact, so a retry usually
        # resolves clean -- the strike machinery's common case.
        self._bump_detected(packet)
        p = self._p_access(cr)
        stall = max(1.0, _L1_LATENCY * cr)
        unit = self.energy_model.l1d_access_energy(
            False, cr, code=self.policy.code)
        address = int(self.exp.address[slot])
        resolved = None
        for _ in range(self.policy.max_retries):
            self._charge_access(packet, stall, unit)
            if self.rng.random() < p:
                self.injected += 1
                self.fault_sites.append((address, False))
                retry = self.policy.classify(self._draw_flips(cr))
                if retry == "detected":
                    self._bump_detected(packet)
                    continue
                resolved = "clean" if retry == "corrected" else "corrupt"
                break
            resolved = "clean"
            break
        if resolved == "clean":
            return
        if resolved == "corrupt":
            self._consume_corrupt(packet, static)
            return
        # Strike budget exhausted: recover from the reliable L2, then
        # re-access.  That read can fault too, and with the strike budget
        # spent its value flows on unless SEC-DED corrects it.
        self._charge_recovery(packet)
        self._charge_access(packet, stall, unit)
        if self.rng.random() < p:
            self.injected += 1
            self.fault_sites.append((address, False))
            outcome = self.policy.classify(self._draw_flips(cr))
            if outcome == "detected":
                self._bump_detected(packet)
            if outcome != "corrected":
                self._consume_corrupt(packet, static)
                return
        if packet < 0:
            # Control-plane recovery refetches possibly-stale tables.
            self.diverged = True
            return
        if not static and self._written_before(word, slot):
            # Whole-line invalidation dropped dirty data: the refetched
            # copy is stale until the next store covers the word.
            self.erroneous[packet] = True
            self._mark_window(self._stale_reads_after(word, slot))

    def _write_fault(self, slot: int, cr: float, packet: int, static: bool,
                     word: int, outcome: str) -> None:
        if packet < 0:
            # Control-plane store: only inline-correctable corruption
            # (scrubbed at the next read) is benign; anything persistent
            # poisons the tables the kernel branches on.
            if outcome != "corrected":
                self.diverged = True
            return
        if static:
            # A data-plane store into a declared-immutable region is
            # outside the recorded behaviour; defer to execution.
            self.diverged = True
            return
        if outcome == "corrected":
            return  # scrubbed at the next read of the word, cost-free
        window = self._stale_reads_after(word, slot)
        if len(window) == 0:
            return  # overwritten (or never touched) before any read
        if outcome == "undetected":
            self._mark_window(window)
            return
        # Detected-persistent: the first subsequent read strikes out --
        # the stored corruption re-detects on every retry -- and the
        # recovery invalidation loses the store (no writeback), so reads
        # see the stale L2 copy until the next covering store.
        first_read = int(window[0])
        read_packet = int(self.exp.packet[first_read])
        if read_packet < 0 or self.exp.static[first_read]:
            self.diverged = True
            return
        p = self._p_access(cr)
        stall = max(1.0, _L1_LATENCY * cr)
        unit = self.energy_model.l1d_access_energy(
            False, cr, code=self.policy.code)
        address = int(self.exp.address[first_read])
        self._bump_detected(read_packet)
        for _ in range(self.policy.max_retries):
            self._charge_access(read_packet, stall, unit)
            if self.rng.random() < p:
                self.injected += 1
                self.fault_sites.append((address, False))
                self._draw_flips(cr)  # stored corruption dominates
            self._bump_detected(read_packet)
        self._charge_recovery(read_packet)
        self._charge_access(read_packet, stall, unit)
        self._mark_window(window)

    def _written_before(self, word: int, slot: int) -> bool:
        slots = self._word_slots(word)
        prior = slots[:np.searchsorted(slots, slot)]
        return bool(np.any(self.exp.is_write[prior]))

    def _stale_reads_after(self, word: int, slot: int) -> np.ndarray:
        """Reads of ``word`` after ``slot``, up to the next covering store."""
        slots = self._word_slots(word)
        after = slots[np.searchsorted(slots, slot, side="right"):]
        writes = self.exp.is_write[after]
        stop = int(np.argmax(writes)) if writes.any() else len(after)
        return after[:stop]

    # -- orchestration ----------------------------------------------------

    def run(self) -> "ExperimentResult | None":
        trace, config = self.trace, self.config
        n_packets = trace.offered_packets
        control_enabled = config.planes in ("control", "both")
        data_enabled = config.planes in ("data", "both")
        initial_cr = 1.0 if config.dynamic else config.cycle_time
        starts = self.slot_starts
        if control_enabled:
            for slot in self._sample_slots(0, starts[0], initial_cr):
                self._process_fault(int(slot), initial_cr)
                if self.diverged:
                    return None
        changes: "list[tuple[int, float]]" = []
        if config.dynamic:
            controller = DynamicFrequencyController()
            cr = initial_cr
            packet_index = 0
            while packet_index < n_packets:
                block_end = min(packet_index + controller.epoch_packets,
                                n_packets)
                if data_enabled:
                    for slot in self._sample_slots(starts[packet_index],
                                                   starts[block_end], cr):
                        self._process_fault(int(slot), cr)
                        if self.diverged:
                            return None
                for packet in range(packet_index, block_end):
                    controller.record_fault(
                        int(self.detected_per_packet[packet]))
                    if controller.packet_completed():
                        changes.append((packet + 1, controller.cycle_time))
                        cr = controller.cycle_time
                packet_index = block_end
        elif data_enabled:
            for slot in self._sample_slots(starts[0], starts[n_packets],
                                           initial_cr):
                self._process_fault(int(slot), initial_cr)
                if self.diverged:
                    return None
        segments, penalties, history = _build_segments(trace, initial_cr,
                                                       changes)
        return self._assemble(segments, penalties, history)

    def _assemble(self, segments: "list[tuple[int, int, float]]",
                  penalties: int,
                  history: "tuple[float, ...]") -> ExperimentResult:
        trace, config = self.trace, self.config
        model = self.energy_model
        chunked = _chunked(config)
        delta, l1d_values = _per_event_costs(
            trace, segments, self.policy.code, model, chunked)
        kind = trace.kind
        packet_cycles = (_packet_cycles(trace, delta)
                         + self.packet_extra_cycles)
        cycles = (float(delta.sum()) + _PENALTY * penalties
                  + float(self.packet_extra_cycles.sum())
                  + self.control_extra_cycles)
        instructions = int(trace.count[kind == KIND_WORK].sum())
        n_fills = int((kind == KIND_L1_FILL).sum())
        n_writebacks = int((kind == KIND_WRITEBACK).sum())
        l2_energy = (model.l2_access_energy * (n_fills + n_writebacks)
                     + self.extra_l2)
        l1d_energy = (_l1d_energy(trace, l1d_values, chunked)
                      + self.extra_l1d)
        core = cycles * model.core_energy_per_cycle
        l1i = instructions * model.l1i_read_energy
        reads = int((kind == KIND_READ).sum())
        writes = int(trace.count[kind == KIND_WRITE].sum())
        accesses = reads + writes + self.extra_accesses
        misses = n_fills + self.extra_misses
        erroneous_packets = int(self.erroneous.sum())
        return ExperimentResult(
            config=config,
            offered_packets=trace.offered_packets,
            processed_packets=trace.offered_packets,
            erroneous_packets=erroneous_packets,
            category_errors=({"modeled": erroneous_packets}
                             if erroneous_packets else {}),
            fatal=False,
            fatal_reason=None,
            cycles=cycles,
            instructions=instructions,
            energy={"core": core, "l1d": l1d_energy, "l1i": l1i,
                    "l2": l2_energy,
                    "total": core + l1d_energy + l1i + l2_energy},
            l1d_accesses=accesses,
            l1d_miss_rate=misses / accesses if accesses else 0.0,
            detected_faults=self.detected,
            injected_faults=self.injected,
            cycle_history=history,
            fault_sites=tuple(self.fault_sites),
            regions=trace.regions,
            packet_cycles=tuple(float(value) for value in packet_cycles),
            error_runs=consecutive_error_runs(self.erroneous),
        )
