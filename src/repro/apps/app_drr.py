"""The drr application: deficit round-robin scheduling (paper Section 2).

Implements Shreedhar & Varghese's DRR: every flow through the router has
its own queue and a deficit counter; each service turn adds a quantum to
the current flow's deficit and dequeues packets while the head-of-line
packet fits the deficit.  A flow whose queue empties forfeits its deficit.

All per-flow state -- head/tail indices, deficit, quantum, and the ring of
queued packet lengths -- lives in simulated memory, so faults can corrupt
scheduling state.  The paper's observed values (RouteTable entries, radix
tree entries traversed, the value of the deficit list, and the deficit
information read for the packet) map to ``route_entry``, ``radix_path``,
``deficit_value`` and ``deficit_read``.
"""

from __future__ import annotations

from repro.apps.base import Environment, NetBenchApp
from repro.apps.radix import (
    APP_TREE_NODES,
    FNV_OFFSET,
    RadixTree,
    fnv_step,
)
from repro.apps.app_tl import read_destination
from repro.net.ip import IPV4_HEADER_BYTES
from repro.net.packet import Packet
from repro.net.trace import RoutePrefix

_MASK = 0xFFFFFFFF

#: Queue indices behave as 8-bit counters (as the C implementation's
#: ``u_char`` ring indices do): a corrupted index desynchronises the queue
#: by at most 255 phantom packets and the scheduler resynchronises instead
#: of spinning forever.
_INDEX_MASK = 0xFF

#: Per-flow state block layout (bytes).
FLOW_BLOCK_BYTES = 48
_HEAD, _TAIL, _DEFICIT, _QUANTUM, _RING = 0, 4, 8, 12, 16
RING_SLOTS = 8

#: DRR quantum: at least one MTU, so every flow makes progress per turn.
DEFAULT_QUANTUM = 1500

#: Watchdog limit on one service turn; legitimate turns dequeue at most
#: RING_SLOTS packets.
SERVICE_WATCHDOG_LIMIT = 64


class DrrApp(NetBenchApp):
    """Deficit round-robin scheduling over per-flow queues."""

    name = "drr"
    categories = ("route_entry", "deficit_value", "deficit_read")

    def __init__(self, env: Environment, prefixes: "list[RoutePrefix]",
                 flow_count: int, quantum: int = DEFAULT_QUANTUM) -> None:
        super().__init__(env)
        if not prefixes:
            raise ValueError("drr needs a routing table")
        if flow_count < 1:
            raise ValueError("drr needs at least one flow")
        if quantum < 1:
            raise ValueError("quantum must be positive")
        self.prefixes = prefixes
        self.flow_count = flow_count
        self.quantum = quantum
        self.buffer = env.allocator.alloc("drr_header_buffer",
                                          IPV4_HEADER_BYTES)
        self.flows = env.allocator.alloc("drr_flows",
                                         flow_count * FLOW_BLOCK_BYTES)
        self.turn = env.allocator.alloc("drr_turn", 4)
        self.tree = RadixTree(env, max_nodes=APP_TREE_NODES,
                              max_entries=len(prefixes), label_prefix="drr")
        self.dropped = 0
        #: bytes served per flow, as the scheduler *observed* them (lengths
        #: read through the faulty cache) -- feeds the fairness analysis.
        self.served_bytes: "dict[int, int]" = {
            flow: 0 for flow in range(flow_count)}

    def fairness_index(self) -> float:
        """Jain's fairness index over per-flow served bytes.

        1.0 means perfectly even service; 1/N means one flow got
        everything.  Fault-corrupted lengths and scheduler state skew the
        service distribution, so fairness degradation is an
        application-level error metric DRR itself motivates.
        """
        served = [bytes_served for bytes_served in self.served_bytes.values()
                  if bytes_served > 0]
        if not served:
            return 1.0
        total = sum(served)
        squares = sum(value * value for value in served)
        return total * total / (len(self.served_bytes) * squares)

    def _flow_address(self, flow_index: int) -> int:
        return self.flows.address + (flow_index % self.flow_count) * FLOW_BLOCK_BYTES

    def control_plane(self) -> None:
        """Build this kernel's static tables in simulated memory."""
        view = self.env.view
        for flow_index in range(self.flow_count):
            base = self._flow_address(flow_index)
            view.write_u32(base + _HEAD, 0)
            view.write_u32(base + _TAIL, 0)
            view.write_u32(base + _DEFICIT, 0)
            view.write_u32(base + _QUANTUM, self.quantum)
            self.env.work(8)
        view.write_u32(self.turn.address, 0)
        self.tree.build(self.prefixes)
        for region in self.tree.static_regions():
            self.register_static_region(region)

    # -- queue operations ---------------------------------------------------------

    def _enqueue(self, flow_index: int, length: int) -> bool:
        view = self.env.view
        base = self._flow_address(flow_index)
        head = view.read_u32(base + _HEAD)
        tail = view.read_u32(base + _TAIL)
        self.env.work(6)
        if (tail - head) & _INDEX_MASK >= RING_SLOTS:
            # Observation counter, not scheduler state: the drop decision was
            # made from faulty-cache reads above.
            self.dropped += 1  # reprolint: disable=sim-memory
            return False
        slot = base + _RING + 4 * (tail % RING_SLOTS)
        view.write_u32(slot, length)
        view.write_u32(base + _TAIL, (tail + 1) & _MASK)
        self.env.work(4)
        return True

    def _service_turn(self) -> "tuple[int | None, int, int]":
        """One DRR service opportunity.

        Returns ``(deficit_after, reads_digest, packets_served)``;
        ``deficit_after`` is None when no flow had queued packets.
        """
        view = self.env.view
        watchdog = self.make_watchdog(SERVICE_WATCHDOG_LIMIT, "drr service")
        digest = FNV_OFFSET
        turn = view.read_u32(self.turn.address)
        self.env.work(4)
        for scan in range(self.flow_count):
            flow_index = (turn + scan) % self.flow_count
            base = self._flow_address(flow_index)
            head = view.read_u32(base + _HEAD)
            tail = view.read_u32(base + _TAIL)
            self.env.work(6)
            if (tail - head) & _INDEX_MASK == 0:
                continue
            deficit = (view.read_u32(base + _DEFICIT)
                       + view.read_u32(base + _QUANTUM)) & _MASK
            self.env.work(4)
            served = 0
            while (tail - head) & _INDEX_MASK:
                watchdog.tick()
                length = view.read_u32(base + _RING + 4 * (head % RING_SLOTS))
                digest = fnv_step(digest, length)
                self.env.work(6)
                if length > deficit:
                    break
                deficit = (deficit - length) & _MASK
                head = (head + 1) & _MASK
                served += 1
                # Observation, not scheduler state: records the length as
                # read through the faulty cache, feeding fairness_index().
                self.served_bytes[flow_index] += length  # reprolint: disable=sim-memory
            if (tail - head) & _INDEX_MASK == 0:
                deficit = 0  # an emptied flow forfeits its deficit
            view.write_u32(base + _HEAD, head)
            view.write_u32(base + _DEFICIT, deficit)
            view.write_u32(self.turn.address,
                           (flow_index + 1) % self.flow_count)
            self.env.work(6)
            return deficit, digest, served
        return None, digest, 0

    # -- packet processing ----------------------------------------------------------

    def process_packet(self, packet: Packet, index: int) -> "dict[str, object]":
        """Process one packet; returns this kernel's observations."""
        header = packet.wire_bytes[:IPV4_HEADER_BYTES]
        self.env.work(len(header))
        self.env.view.write_bytes(self.buffer.address, header)
        destination = read_destination(self.env, self.buffer.address)
        route = self.tree.lookup(destination)
        self._enqueue(packet.flow_id, packet.length)
        deficit_after, reads_digest, served = self._service_turn()
        return {
            "route_entry": (route.next_hop, route.entry_words),
            "deficit_value": deficit_after,
            "deficit_read": (reads_digest, served),
        }
