"""The route application: RFC 1812 IPv4 forwarding (paper Section 2).

Per packet the router (1) verifies the header checksum, (2) decrements the
TTL and recomputes the checksum, and (3) resolves the next hop through the
radix routing table.  "The values observed in the route application are
the entries in the created RouteTable, the checksum value, the ttl value,
and the radix tree entries traversed for each packet" -- which map to the
``route_entry``, ``checksum``, ``ttl`` and ``radix_path`` observations,
plus the framework's initialization sample over the static tables.
"""

from __future__ import annotations

from repro.apps.base import Environment, NetBenchApp
from repro.apps.checksum import checksum_region, update_ttl_and_checksum
from repro.apps.radix import APP_TREE_NODES, RadixTree
from repro.apps.app_tl import read_destination
from repro.net.ip import IPV4_HEADER_BYTES
from repro.net.packet import Packet
from repro.net.trace import RoutePrefix


class RouteApp(NetBenchApp):
    """IPv4 forwarding: checksum verify, TTL update, next-hop lookup."""

    name = "route"
    categories = ("checksum", "ttl", "route_entry")

    def __init__(self, env: Environment,
                 prefixes: "list[RoutePrefix]") -> None:
        super().__init__(env)
        if not prefixes:
            raise ValueError("route needs a routing table")
        self.prefixes = prefixes
        self.buffer = env.allocator.alloc("route_header_buffer",
                                          IPV4_HEADER_BYTES)
        self.tree = RadixTree(env, max_nodes=APP_TREE_NODES,
                              max_entries=len(prefixes), label_prefix="route")
        self.dropped_checksum = 0
        self.dropped_ttl = 0

    def control_plane(self) -> None:
        """Build this kernel's static tables in simulated memory."""
        self.tree.build(self.prefixes)
        for region in self.tree.static_regions():
            self.register_static_region(region)

    #: Forwarding verdicts (RFC 1812: silently discard bad checksums,
    #: drop expired TTLs with an ICMP Time Exceeded the model abstracts).
    VERDICT_FORWARD = 0
    VERDICT_DROP_CHECKSUM = 1
    VERDICT_DROP_TTL = 2

    def process_packet(self, packet: Packet, index: int) -> "dict[str, object]":
        """Process one packet; returns this kernel's observations."""
        header = packet.wire_bytes[:IPV4_HEADER_BYTES]
        self.env.work(len(header))
        view = self.env.view
        view.write_bytes(self.buffer.address, header)
        # RFC 1812 step 1: verify the incoming checksum (0 means consistent)
        # and discard on mismatch -- a corrupted header byte turns a
        # forwardable packet into a drop, an application error the golden
        # comparison catches through the verdict.
        verify = checksum_region(self.env, self.buffer.address,
                                 IPV4_HEADER_BYTES)
        if verify != 0:
            self.env.work(4)
            self.dropped_checksum += 1  # reprolint: disable=sim-memory (drop tally from faulty-cache reads)
            return {"checksum": (verify, 0),
                    "ttl": self.VERDICT_DROP_CHECKSUM,
                    "route_entry": ("drop", "checksum")}
        # Step 2: a TTL of 0 or 1 cannot be forwarded (Time Exceeded).
        incoming_ttl = view.read_u8(self.buffer.address + 8)
        self.env.work(3)
        if incoming_ttl <= 1:
            self.dropped_ttl += 1  # reprolint: disable=sim-memory (drop tally from faulty-cache reads)
            return {"checksum": (verify, 0),
                    "ttl": self.VERDICT_DROP_TTL,
                    "route_entry": ("drop", "ttl")}
        # Step 3: decrement TTL and refresh the checksum in place.
        new_ttl, new_checksum = update_ttl_and_checksum(
            self.env, self.buffer.address)
        # Step 4: next-hop resolution.
        destination = read_destination(self.env, self.buffer.address)
        result = self.tree.lookup(destination)
        return {
            "checksum": (verify, new_checksum),
            "ttl": new_ttl,
            "route_entry": (result.next_hop, result.entry_words),
        }
