"""Workload registry: one canonical (trace, application) pair per kernel.

Experiments ask for a workload by Table-I name; the registry returns the
deterministic packet trace and a factory that instantiates the application
inside a given simulation environment.  Two environments built from the
same workload are bit-identical (same allocations, same trace), which is
what makes the golden-vs-faulty comparison sound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.apps.app_crc import CrcApp
from repro.apps.app_drr import DrrApp
from repro.apps.app_md5 import Md5App
from repro.apps.app_nat import NatApp
from repro.apps.app_route import RouteApp
from repro.apps.app_tl import TableLookupApp
from repro.apps.app_url import UrlApp
from repro.apps.base import Environment, NetBenchApp
from repro.core.constants import NETBENCH_APPS
from repro.net.ip import ip_to_int
from repro.net.packet import Packet
from repro.net.trace import (
    flow_trace,
    http_trace,
    make_http_paths,
    make_prefixes,
    routed_trace,
    uniform_trace,
)


@dataclass(frozen=True)
class Workload:
    """A named application plus the trace that drives it."""

    app_name: str
    packets: "tuple[Packet, ...]"
    build: "Callable[[Environment], NetBenchApp]" = field(compare=False)

    def __post_init__(self) -> None:
        if self.app_name not in NETBENCH_APPS:
            raise ValueError(
                f"unknown application {self.app_name!r}; "
                f"expected one of {NETBENCH_APPS}")
        if not self.packets:
            raise ValueError("a workload needs at least one packet")


#: Routing-table prefixes behind every routed workload.
PREFIX_COUNT = 64

#: Flow population of the drr and nat traces.
FLOW_COUNT = 16

#: URL patterns in the url workload's table.
PATH_COUNT = 24


def make_workload(name: str, packet_count: int = 300,
                  seed: int = 7) -> Workload:
    """Build the canonical workload for one of the seven applications.

    The crc and md5 payload sizes (96 and 192 bytes) reproduce Table I's
    per-packet work ratios: md5 and crc simulate an order of magnitude
    more instructions than the header-only kernels.
    """
    if packet_count < 1:
        raise ValueError("need at least one packet")
    if name == "crc":
        packets = uniform_trace(packet_count, seed, 96)
        return Workload("crc", tuple(packets), lambda env: CrcApp(env))
    if name == "md5":
        packets = uniform_trace(packet_count, seed, 192)
        return Workload("md5", tuple(packets), lambda env: Md5App(env))
    prefixes = make_prefixes(PREFIX_COUNT, seed)
    if name == "tl":
        packets = routed_trace(packet_count, prefixes, seed, payload_bytes=0)
        return Workload("tl", tuple(packets),
                        lambda env: TableLookupApp(env, prefixes))
    if name == "route":
        packets = routed_trace(packet_count, prefixes, seed, payload_bytes=0)
        return Workload("route", tuple(packets),
                        lambda env: RouteApp(env, prefixes))
    if name == "drr":
        packets = flow_trace(packet_count, FLOW_COUNT, prefixes, seed,
                             payload_bytes=40)
        return Workload("drr", tuple(packets),
                        lambda env: DrrApp(env, prefixes, FLOW_COUNT))
    if name == "nat":
        packets = flow_trace(packet_count, FLOW_COUNT, prefixes, seed,
                             payload_bytes=0)
        sources = sorted({packet.source for packet in packets})
        return Workload("nat", tuple(packets),
                        lambda env: NatApp(env, prefixes, sources))
    if name == "url":
        paths = make_http_paths(PATH_COUNT, seed)
        packets = http_trace(packet_count, prefixes, seed, paths=paths)
        servers = [(path, ip_to_int("192.168.1.1") + index)
                   for index, path in enumerate(paths)]
        patterns = [(path[:32], server) for path, server in servers]
        return Workload("url", tuple(packets),
                        lambda env: UrlApp(env, prefixes, patterns))
    raise ValueError(f"unknown application {name!r}; "
                     f"expected one of {NETBENCH_APPS}")
