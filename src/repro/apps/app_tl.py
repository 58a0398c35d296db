"""The tl application: radix-tree table lookup (paper Section 2).

"TL is the table lookup routine common to all routing processes...  The
data values in the TL application are the radix tree nodes traversed and
the RouteTable entry for each packet."  tl is load-dominated -- almost all
of its work is pointer chasing through the trie -- which is why the paper
sees its largest energy-delay gains here (Figure 10(b), up to 43%).
"""

from __future__ import annotations

from repro.apps.base import Environment, NetBenchApp, copy_packet_to_memory
from repro.apps.radix import APP_TREE_NODES, RadixTree
from repro.net.ip import IPV4_HEADER_BYTES
from repro.net.packet import Packet
from repro.net.trace import RoutePrefix

#: tl only parses headers, so the buffer holds just the header image.
HEADER_BUFFER_BYTES = IPV4_HEADER_BYTES


def read_destination(env: Environment, header_address: int) -> int:
    """Read the destination address (header bytes 16-19, network order)."""
    view = env.view
    value = 0
    for offset in range(16, 20):
        value = (value << 8) | view.read_u8(header_address + offset)
    env.work(6)
    return value


class TableLookupApp(NetBenchApp):
    """Longest-prefix-match lookups against an in-memory radix tree."""

    name = "tl"
    categories = ("radix_path", "route_entry")

    def __init__(self, env: Environment,
                 prefixes: "list[RoutePrefix]") -> None:
        super().__init__(env)
        if not prefixes:
            raise ValueError("tl needs a routing table")
        self.prefixes = prefixes
        self.buffer = env.allocator.alloc("tl_header_buffer",
                                          HEADER_BUFFER_BYTES)
        self.tree = RadixTree(env, max_nodes=APP_TREE_NODES,
                              max_entries=len(prefixes), label_prefix="tl")

    def control_plane(self) -> None:
        """Build this kernel's static tables in simulated memory."""
        self.tree.build(self.prefixes)
        for region in self.tree.static_regions():
            self.register_static_region(region)

    def process_packet(self, packet: Packet, index: int) -> "dict[str, object]":
        """Process one packet; returns this kernel's observations."""
        header = packet.wire_bytes[:IPV4_HEADER_BYTES]
        self.env.work(len(header))
        self.env.view.write_bytes(self.buffer.address, header)
        destination = read_destination(self.env, self.buffer.address)
        result = self.tree.lookup(destination)
        return {
            "radix_path": result.path_digest,
            "route_entry": (result.next_hop, result.entry_words),
        }
