"""The nat application: network address translation (paper Section 2).

"NAT operates on a router, usually connecting two networks, and
translating the private addresses in the internal network into legal
addresses before packets are forwarded."  Per packet the application reads
the private source address, looks it up in the in-memory NAT table,
rewrites the source, refreshes the header checksum, and resolves the next
hop for the (untranslated) destination.

The paper's observed values -- initial IP source address, the interface
value, the translated source, the destination after translation, the NAT
table entries, and the radix tree entries traversed -- map to the
``source_ip``, ``interface``, ``translated``, ``destination`` and
``radix_path`` observations plus the initialization sample over the NAT
table and routing structures.
"""

from __future__ import annotations

from repro.apps.base import Environment, NetBenchApp
from repro.apps.checksum import checksum_region
from repro.apps.hashtable import HashTable
from repro.apps.radix import APP_TREE_NODES, RadixTree
from repro.apps.app_tl import read_destination
from repro.net.ip import IPV4_HEADER_BYTES
from repro.net.packet import Packet
from repro.net.trace import RoutePrefix

#: Public address pool base: translations come from 198.18.0.0/16 (RFC 2544).
PUBLIC_POOL_BASE = 0xC6120000

#: Slots in the in-memory NAT table (a power of two).
TABLE_CAPACITY = 256


class NatApp(NetBenchApp):
    """Source-address translation plus forwarding lookup."""

    name = "nat"
    categories = ("source_ip", "interface", "translated", "destination",
                  "radix_path")

    def __init__(self, env: Environment, prefixes: "list[RoutePrefix]",
                 private_sources: "list[int]") -> None:
        super().__init__(env)
        if not prefixes:
            raise ValueError("nat needs a routing table")
        if not private_sources:
            raise ValueError("nat needs at least one translatable source")
        self.prefixes = prefixes
        self.private_sources = sorted(set(private_sources))
        if len(self.private_sources) >= TABLE_CAPACITY - 1:
            raise ValueError("NAT table capacity too small for the source set")
        self.buffer = env.allocator.alloc("nat_header_buffer",
                                          IPV4_HEADER_BYTES)
        self.table = HashTable(env, capacity=TABLE_CAPACITY)
        self.tree = RadixTree(env, max_nodes=APP_TREE_NODES,
                              max_entries=len(prefixes), label_prefix="nat")

    def control_plane(self) -> None:
        # Pre-establish a binding per internal host: public address from the
        # pool, egress interface cycling over four ports.
        """Build this kernel's static tables in simulated memory."""
        for index, source in enumerate(self.private_sources):
            public = PUBLIC_POOL_BASE | (index & 0xFFFF)
            self.table.insert(source, public, interface=1 + index % 4)
        self.tree.build(self.prefixes)
        self.register_static_region(self.table.static_region())
        for region in self.tree.static_regions():
            self.register_static_region(region)

    def _read_source(self, header_address: int) -> int:
        view = self.env.view
        value = 0
        for offset in range(12, 16):
            value = (value << 8) | view.read_u8(header_address + offset)
        self.env.work(6)
        return value

    def _write_source(self, header_address: int, address: int) -> None:
        view = self.env.view
        for index in range(4):
            byte = (address >> (8 * (3 - index))) & 0xFF
            view.write_u8(header_address + 12 + index, byte)
        self.env.work(6)

    def process_packet(self, packet: Packet, index: int) -> "dict[str, object]":
        """Process one packet; returns this kernel's observations."""
        header = packet.wire_bytes[:IPV4_HEADER_BYTES]
        self.env.work(len(header))
        view = self.env.view
        view.write_bytes(self.buffer.address, header)
        source = self._read_source(self.buffer.address)
        lookup = self.table.lookup(source)
        translated = lookup.value if lookup.found else source
        self._write_source(self.buffer.address, translated)
        # Refresh the header checksum after rewriting the source.
        view.write_u8(self.buffer.address + 10, 0)
        view.write_u8(self.buffer.address + 11, 0)
        checksum = checksum_region(self.env, self.buffer.address,
                                   IPV4_HEADER_BYTES)
        view.write_u8(self.buffer.address + 10, checksum >> 8)
        view.write_u8(self.buffer.address + 11, checksum & 0xFF)
        destination = read_destination(self.env, self.buffer.address)
        route = self.tree.lookup(destination)
        return {
            "source_ip": source,
            "interface": lookup.interface,
            "translated": translated,
            "destination": destination,
            "radix_path": (route.path_digest, route.next_hop),
        }
