"""The url application: URL-based destination switching (paper Section 2).

"In URL-based switching, all the incoming packets to a switch are parsed
and forwarded according to URL" -- content-based load balancing.  Per
packet the application scans the HTTP payload for the request path, runs a
longest-prefix string match against the in-memory URL table, rewrites the
destination to the selected server, refreshes the TTL/checksum, and
resolves the next hop.  Scanning payload bytes and comparing table strings
makes url by far the most access-heavy kernel (Table I: highest access
count and miss rate).

Observed values, per the paper: URL table entries, final IP destination
address, RouteTable entries, the checksum value, the ttl value, and the
radix tree entries traversed.
"""

from __future__ import annotations

from repro.apps.base import Environment, NetBenchApp, copy_packet_to_memory
from repro.apps.checksum import update_ttl_and_checksum
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

DEFAULT_BUFFER_BYTES = 1600

#: Rotating RX-buffer ring (see app_crc): streaming reuse distance.
DEFAULT_BUFFER_COUNT = 8

#: URL-table entry layout: length word, server word, then the pattern text.
URL_ENTRY_BYTES = 40
URL_PATTERN_CAPACITY = URL_ENTRY_BYTES - 8

#: Longest request path the parser will extract.
MAX_PATH_BYTES = 128

#: Watchdog limit for payload scanning (paths are far shorter than this).
PARSE_WATCHDOG_LIMIT = 4096


class UrlApp(NetBenchApp):
    """Content-based switching: parse, match, rewrite, forward."""

    name = "url"
    categories = ("url_match", "final_destination", "route_entry",
                  "checksum", "ttl")

    def __init__(self, env: Environment, prefixes: "list[RoutePrefix]",
                 patterns: "list[tuple[str, int]]",
                 buffer_bytes: int = DEFAULT_BUFFER_BYTES) -> None:
        """``patterns`` maps URL prefixes to server addresses (32-bit)."""
        super().__init__(env)
        if not prefixes:
            raise ValueError("url needs a routing table")
        if not patterns:
            raise ValueError("url needs a pattern table")
        for pattern, _server in patterns:
            if not 0 < len(pattern) <= URL_PATTERN_CAPACITY:
                raise ValueError(
                    f"pattern length must be in 1..{URL_PATTERN_CAPACITY}: "
                    f"{pattern!r}")
        self.prefixes = prefixes
        self.patterns = patterns
        self.buffers = [env.allocator.alloc(f"url_packet_buffer_{i}",
                                            buffer_bytes)
                        for i in range(DEFAULT_BUFFER_COUNT)]
        self.path_buffer = env.allocator.alloc("url_path_buffer",
                                               MAX_PATH_BYTES)
        self.url_table = env.allocator.alloc("url_table",
                                             len(patterns) * URL_ENTRY_BYTES)
        self.tree = RadixTree(env, max_nodes=APP_TREE_NODES,
                              max_entries=len(prefixes), label_prefix="url")

    def control_plane(self) -> None:
        """Build this kernel's static tables in simulated memory."""
        view = self.env.view
        for index, (pattern, server) in enumerate(self.patterns):
            base = self.url_table.address + index * URL_ENTRY_BYTES
            view.write_u32(base, len(pattern))
            view.write_u32(base + 4, server)
            encoded = pattern.encode("ascii")
            view.write_bytes(base + 8, encoded)
            self.env.work(8 + len(encoded))
        self.tree.build(self.prefixes)
        self.register_static_region(self.url_table)
        for region in self.tree.static_regions():
            self.register_static_region(region)

    # -- request parsing ------------------------------------------------------------

    def _extract_path(self, payload_address: int, payload_length: int) -> int:
        """Copy the request path into the path buffer; returns its length.

        Scans for the first space (after the method), then copies bytes
        until the next space or the end of the payload.  Returns 0 when no
        path is found (not an HTTP request, or corruption destroyed it).
        """
        view = self.env.view
        watchdog = self.make_watchdog(PARSE_WATCHDOG_LIMIT, "http parse")
        offset = 0
        while offset < payload_length:
            watchdog.tick()
            self.env.work(3)
            if view.read_u8(payload_address + offset) == 0x20:
                break
            offset += 1
        else:
            return 0
        offset += 1
        length = 0
        while offset < payload_length and length < MAX_PATH_BYTES:
            watchdog.tick()
            byte = view.read_u8(payload_address + offset)
            self.env.work(3)
            if byte == 0x20:
                break
            view.write_u8(self.path_buffer.address + length, byte)
            length += 1
            offset += 1
        return length

    def _match(self, path_length: int) -> "tuple[int, int, int]":
        """Longest-prefix match over the URL table.

        Returns ``(entry_index, server, digest)``; index -1 and server 0
        when nothing matches.
        """
        view = self.env.view
        digest = FNV_OFFSET
        best_index, best_server, best_length = -1, 0, 0
        for index in range(len(self.patterns)):
            base = self.url_table.address + index * URL_ENTRY_BYTES
            pattern_length = view.read_u32(base)
            self.env.work(4)
            digest = fnv_step(digest, pattern_length)
            # A corrupted length word would walk outside the entry; clamp
            # as the C code's fixed-size field effectively does.
            effective = min(pattern_length, URL_PATTERN_CAPACITY)
            if effective > path_length or effective <= best_length:
                continue
            matched = True
            for position in range(effective):
                table_char = view.read_u8(base + 8 + position)
                path_char = view.read_u8(self.path_buffer.address + position)
                self.env.work(3)
                if table_char != path_char:
                    matched = False
                    break
            if matched:
                server = view.read_u32(base + 4)
                digest = fnv_step(digest, server)
                self.env.work(4)
                best_index, best_server = index, server
                best_length = effective
        return best_index, best_server, digest

    # -- packet processing -------------------------------------------------------------

    def process_packet(self, packet: Packet, index: int) -> "dict[str, object]":
        """Process one packet; returns this kernel's observations."""
        buffer = self.buffers[index % len(self.buffers)]
        length = copy_packet_to_memory(self.env, buffer, packet)
        view = self.env.view
        payload_address = buffer.address + IPV4_HEADER_BYTES
        payload_length = length - IPV4_HEADER_BYTES
        path_length = self._extract_path(payload_address, payload_length)
        entry_index, server, match_digest = self._match(path_length)
        if server:
            # Rewrite the destination to the selected server.
            for byte_index in range(4):
                byte = (server >> (8 * (3 - byte_index))) & 0xFF
                view.write_u8(buffer.address + 16 + byte_index, byte)
            self.env.work(6)
        new_ttl, new_checksum = update_ttl_and_checksum(
            self.env, buffer.address)
        destination = read_destination(self.env, buffer.address)
        route = self.tree.lookup(destination)
        return {
            "url_match": (entry_index, match_digest),
            "final_destination": destination,
            "route_entry": (route.next_hop, route.entry_words),
            "checksum": new_checksum,
            "ttl": new_ttl,
        }
