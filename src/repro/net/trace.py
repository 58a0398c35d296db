"""Synthetic packet-trace and routing-table generators.

NetBench drives each kernel with a small captured trace; we synthesise
equivalent traffic.  What matters for the paper's experiments is the
*access pattern* the trace induces -- how many table lookups per packet,
how skewed the destinations are (cache locality), payload sizes (crc/md5
work per packet), flow structure (drr/nat state) -- all of which these
generators parameterise.  Every generator is deterministic given its seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.net.packet import Packet


@dataclass(frozen=True)
class RoutePrefix:
    """One routing-table entry: ``network/length -> next_hop``."""

    network: int
    length: int
    next_hop: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise ValueError(f"prefix length out of range: {self.length}")
        host_bits = 32 - self.length
        if self.network & ((1 << host_bits) - 1) if host_bits else 0:
            raise ValueError(
                f"network {self.network:#010x}/{self.length} has host bits set")

    def matches(self, address: int) -> bool:
        """Whether an address falls under this prefix."""
        if self.length == 0:
            return True
        shift = 32 - self.length
        return (address >> shift) == (self.network >> shift)


def make_prefixes(count: int, seed: int = 0,
                  min_length: int = 8, max_length: int = 24,
                  ) -> "list[RoutePrefix]":
    """Generate ``count`` distinct prefixes plus a default route.

    Next hops are small router-port identifiers, as in a real FIB.
    """
    if count < 1:
        raise ValueError("need at least one prefix")
    if not 0 < min_length <= max_length <= 32:
        raise ValueError("bad prefix length bounds")
    rng = random.Random(seed)
    prefixes = [RoutePrefix(network=0, length=0, next_hop=1)]
    seen = {(0, 0)}
    while len(prefixes) < count + 1:
        length = rng.randint(min_length, max_length)
        network = rng.getrandbits(32) & ~((1 << (32 - length)) - 1)
        if (network, length) in seen:
            continue
        seen.add((network, length))
        prefixes.append(RoutePrefix(network=network, length=length,
                                    next_hop=rng.randint(1, 255)))
    return prefixes


def address_in_prefix(prefix: RoutePrefix, rng: random.Random) -> int:
    """Draw a uniform address covered by ``prefix``."""
    host_bits = 32 - prefix.length
    if host_bits == 0:
        return prefix.network
    return prefix.network | rng.getrandbits(host_bits)


def zipf_weights(count: int, skew: float) -> "list[float]":
    """Unnormalised Zipf popularity weights for ``count`` ranks.

    The materialised form of the Zipf law (one weight per rank) -- fine
    for the dozens of prefixes, flows and paths the fixed traces use.
    """
    return [1.0 / (rank + 1) ** skew for rank in range(count)]


def routed_trace(
    count: int,
    prefixes: "list[RoutePrefix]",
    seed: int = 0,
    payload_bytes: int = 40,
    skew: float = 1.0,
) -> "list[Packet]":
    """Packets whose destinations fall inside the given prefixes.

    Prefix popularity is Zipf-distributed with the given ``skew``
    (destination locality is what gives route/tl their moderate cache miss
    rates).  Payloads are random bytes.
    """
    if count < 1:
        raise ValueError("need at least one packet")
    rng = random.Random(seed ^ 0x5EED)
    weights = zipf_weights(len(prefixes), skew)
    chosen = rng.choices(prefixes, weights=weights, k=count)
    packets = []
    for index, prefix in enumerate(chosen):
        packets.append(Packet(
            source=rng.getrandbits(32),
            destination=address_in_prefix(prefix, rng),
            payload=rng.randbytes(payload_bytes),
            ttl=rng.randint(2, 255),
            identification=index & 0xFFFF,
        ))
    return packets


def uniform_trace(count: int, seed: int = 0, payload_bytes: int = 64,
                  ) -> "list[Packet]":
    """Packets with uniformly random endpoints and payloads (crc/md5)."""
    if count < 1:
        raise ValueError("need at least one packet")
    rng = random.Random(seed ^ 0xFACE)
    return [Packet(source=rng.getrandbits(32),
                   destination=rng.getrandbits(32),
                   payload=rng.randbytes(payload_bytes),
                   ttl=rng.randint(2, 255),
                   identification=index & 0xFFFF)
            for index in range(count)]


def flow_trace(
    count: int,
    flow_count: int,
    prefixes: "list[RoutePrefix]",
    seed: int = 0,
    payload_bytes: int = 40,
) -> "list[Packet]":
    """Packets interleaved across persistent flows (drr/nat workloads).

    Each flow keeps a fixed (source, destination) pair; packet arrivals
    interleave flows randomly with Zipf flow popularity, as in scheduler
    traces.
    """
    if flow_count < 1 or count < 1:
        raise ValueError("need positive flow and packet counts")
    rng = random.Random(seed ^ 0xF10D)
    weights = zipf_weights(len(prefixes), 1.0)
    flows = []
    for flow_id in range(flow_count):
        prefix = rng.choices(prefixes, weights=weights, k=1)[0]
        flows.append((flow_id,
                      0x0A000000 | rng.getrandbits(16),  # private 10/8 source
                      address_in_prefix(prefix, rng)))
    flow_weights = zipf_weights(flow_count, 1.0)
    packets = []
    for index in range(count):
        flow_id, source, destination = rng.choices(
            flows, weights=flow_weights, k=1)[0]
        packets.append(Packet(
            source=source, destination=destination,
            payload=rng.randbytes(payload_bytes),
            ttl=rng.randint(2, 255), flow_id=flow_id,
            identification=index & 0xFFFF))
    return packets


def make_http_paths(path_count: int, seed: int = 0) -> "list[str]":
    """Deterministic request paths shared by the trace and the URL table."""
    if path_count < 1:
        raise ValueError("need at least one path")
    rng = random.Random(seed ^ 0x44757)
    return [f"/content/{rng.randrange(10 ** 6):06d}/item{i}.html"
            for i in range(path_count)]


def http_trace(
    count: int,
    prefixes: "list[RoutePrefix]",
    seed: int = 0,
    path_count: int = 32,
    paths: "list[str] | None" = None,
) -> "list[Packet]":
    """Packets carrying HTTP GET requests (url switching workload)."""
    if count < 1 or path_count < 1:
        raise ValueError("need positive packet and path counts")
    rng = random.Random(seed ^ 0x44757)
    if paths is None:
        paths = make_http_paths(path_count, seed)
    weights = zipf_weights(len(paths), 1.0)
    packets = []
    for index in range(count):
        path = rng.choices(paths, weights=weights, k=1)[0]
        payload = (f"GET {path} HTTP/1.0\r\n"
                   f"Host: balancer.example\r\n\r\n").encode("ascii")
        prefix = rng.choice(prefixes)
        packets.append(Packet(
            source=rng.getrandbits(32),
            destination=address_in_prefix(prefix, rng),
            payload=payload, ttl=rng.randint(2, 255), protocol=6,
            identification=index & 0xFFFF,
            metadata={"path": path}))
    return packets
