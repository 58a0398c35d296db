"""Radix routing tree in simulated memory (tl/route/drr/nat/url substrate).

NetBench's ``tl`` kernel is the FreeBSD radix-tree table lookup; the other
routing applications all traverse the same structure.  We implement a
binary trie over destination-address bits whose nodes and route entries
live in simulated memory:

* **node** (16 bytes): ``[bit_index, left_ptr, right_ptr, route_ptr]`` --
  the node at depth ``d`` tests bit ``31 - d`` of the destination;
* **route entry** (16 bytes): ``[network, prefix_length, next_hop, hits]``.

A null pointer is 0 (the allocator never hands out address 0).  Lookups
are longest-prefix-match: the deepest node with a route pointer wins.

Because the traversal trusts in-memory words, injected faults produce the
paper's full spectrum of outcomes: a flipped route word changes the
next hop (an application error); a flipped pointer can walk into unrelated
memory (garbage results), outside the address space or to a misaligned
address (a crash-equivalent fatal error); and a flipped bit index can
lengthen the walk until the watchdog calls it an infinite loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.base import Environment
from repro.mem.allocator import Region
from repro.net.trace import RoutePrefix

NODE_BYTES = 16
ENTRY_BYTES = 16

#: Node capacity of each application's routing tree: ample for the
#: workloads' 64-prefix tables (a 24-bit prefix adds at most 24 nodes).
APP_TREE_NODES = 4096

#: Watchdog limit for one lookup: a legitimate walk visits at most 33
#: nodes (depths 0..32), so anything beyond this is a fault-induced cycle.
LOOKUP_WATCHDOG_LIMIT = 128

#: FNV-1a offset basis -- public because every kernel that digests the
#: word sequence of a walk (hashtable, url, drr) starts from it.
FNV_OFFSET = 2166136261
_FNV_PRIME = 16777619
_MASK = 0xFFFFFFFF


def fnv_step(accumulator: int, word: int) -> int:
    """One FNV-1a step; used to digest the sequence of words a walk read."""
    return ((accumulator ^ (word & _MASK)) * _FNV_PRIME) & _MASK


@dataclass(frozen=True)
class LookupResult:
    """Everything the paper observes about one table lookup."""

    next_hop: int            #: forwarding decision (0 if no route resolved)
    entry_words: "tuple[int, int, int]"  #: the route entry as read
    path_digest: int         #: FNV digest of every node word traversed
    nodes_visited: int       #: walk length


class RadixTree:
    """Longest-prefix-match trie with all state in simulated memory."""

    def __init__(self, env: Environment, max_nodes: int,
                 max_entries: int, label_prefix: str = "radix") -> None:
        if max_nodes < 1 or max_entries < 1:
            raise ValueError("need positive node and entry capacities")
        self.env = env
        self.nodes = env.allocator.alloc(
            f"{label_prefix}_nodes", max_nodes * NODE_BYTES)
        self.entries = env.allocator.alloc(
            f"{label_prefix}_entries", max_entries * ENTRY_BYTES)
        self._node_count = 0
        self._entry_count = 0
        self._max_nodes = max_nodes
        self._max_entries = max_entries
        self._root = 0

    # -- construction (control plane) ---------------------------------------------

    def _new_node(self, bit_index: int) -> int:
        if self._node_count >= self._max_nodes:
            raise MemoryError("radix node pool exhausted")
        address = self.nodes.address + self._node_count * NODE_BYTES
        self._node_count += 1
        view = self.env.view
        view.write_u32(address, bit_index)
        view.write_u32(address + 4, 0)
        view.write_u32(address + 8, 0)
        view.write_u32(address + 12, 0)
        self.env.work(8)
        return address

    def _new_entry(self, prefix: RoutePrefix) -> int:
        if self._entry_count >= self._max_entries:
            raise MemoryError("route entry pool exhausted")
        address = self.entries.address + self._entry_count * ENTRY_BYTES
        self._entry_count += 1
        view = self.env.view
        view.write_u32(address, prefix.network)
        view.write_u32(address + 4, prefix.length)
        view.write_u32(address + 8, prefix.next_hop)
        view.write_u32(address + 12, 0)
        self.env.work(8)
        return address

    def insert(self, prefix: RoutePrefix) -> None:
        """Insert one prefix, creating trie nodes along its bit path."""
        view = self.env.view
        if self._root == 0:
            self._root = self._new_node(0)
        node = self._root
        for depth in range(prefix.length):
            bit = (prefix.network >> (31 - depth)) & 1
            child_offset = 8 if bit else 4
            child = view.read_u32(node + child_offset)
            self.env.work(6)
            if child == 0:
                child = self._new_node(depth + 1)
                view.write_u32(node + child_offset, child)
            node = child
        entry = self._new_entry(prefix)
        view.write_u32(node + 12, entry)

    def build(self, prefixes: "list[RoutePrefix]") -> None:
        """Insert every prefix (the control-plane table construction)."""
        for prefix in prefixes:
            self.insert(prefix)

    # -- lookup (data plane) -----------------------------------------------------

    def lookup(self, destination: int) -> LookupResult:
        """Longest-prefix-match walk reading every word through the cache."""
        view = self.env.view
        watchdog = self.env_watchdog()
        digest = FNV_OFFSET
        node = self._root
        best_entry = 0
        visited = 0
        while node != 0:
            watchdog.tick()
            bit_index = view.read_u32(node)
            route_ptr = view.read_u32(node + 12)
            digest = fnv_step(fnv_step(digest, bit_index), route_ptr)
            visited += 1
            self.env.work(8)
            if route_ptr != 0:
                best_entry = route_ptr
            if bit_index > 31:
                # Past the last address bit: a leaf, as in the FreeBSD walk
                # (rn_bit goes negative).  A corrupted pointer lands on a
                # word that almost never looks like an internal node, so
                # wild walks terminate here instead of chasing garbage.
                break
            bit = (destination >> (31 - bit_index)) & 1
            node = view.read_u32(node + (8 if bit else 4))
            digest = fnv_step(digest, node)
        if best_entry == 0:
            return LookupResult(next_hop=0, entry_words=(0, 0, 0),
                                path_digest=digest, nodes_visited=visited)
        words = (view.read_u32(best_entry),
                 view.read_u32(best_entry + 4),
                 view.read_u32(best_entry + 8))
        self.env.work(6)
        digest = fnv_step(digest, words[2])
        return LookupResult(next_hop=words[2], entry_words=words,
                            path_digest=digest, nodes_visited=visited)

    def env_watchdog(self):
        """Fresh per-lookup watchdog (split out for test override)."""
        from repro.cpu.watchdog import Watchdog
        return Watchdog(LOOKUP_WATCHDOG_LIMIT, "radix lookup")

    # -- observability -----------------------------------------------------------

    @property
    def node_count(self) -> int:
        """Trie nodes allocated so far."""
        return self._node_count

    @property
    def entry_count(self) -> int:
        """Route entries allocated so far."""
        return self._entry_count

    def static_regions(self) -> "tuple[Region, ...]":
        """The immutable regions (for initialization-error sampling)."""
        return (self.nodes, self.entries)
