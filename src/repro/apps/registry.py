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


def make_workload(
    name: str,
    packet_count: int = 300,
    seed: int = 7,
    prefix_count: int = 64,
    flow_count: int = 16,
    path_count: int = 24,
    payload_bytes: "int | None" = None,
) -> Workload:
    """Build the canonical workload for one of the seven applications.

    Knob meanings follow the trace generators: ``prefix_count`` sizes the
    routing table, ``flow_count`` the drr/nat flow population,
    ``path_count`` the URL table, ``payload_bytes`` the crc/md5 message
    size.  The crc/md5 payload defaults reproduce Table I's per-packet
    work ratios (md5 and crc simulate an order of magnitude more
    instructions than the header-only kernels).
    """
    if packet_count < 1:
        raise ValueError("need at least one packet")
    if name == "crc":
        packets = uniform_trace(packet_count, seed, payload_bytes or 96)
        return Workload("crc", tuple(packets), lambda env: CrcApp(env))
    if name == "md5":
        packets = uniform_trace(packet_count, seed, payload_bytes or 192)
        return Workload("md5", tuple(packets), lambda env: Md5App(env))
    if name == "tl":
        prefixes = make_prefixes(prefix_count, seed)
        packets = routed_trace(packet_count, prefixes, seed, payload_bytes=0)
        return Workload("tl", tuple(packets),
                        lambda env: TableLookupApp(env, prefixes))
    if name == "route":
        prefixes = make_prefixes(prefix_count, seed)
        packets = routed_trace(packet_count, prefixes, seed, payload_bytes=0)
        return Workload("route", tuple(packets),
                        lambda env: RouteApp(env, prefixes))
    if name == "drr":
        prefixes = make_prefixes(prefix_count, seed)
        packets = flow_trace(packet_count, flow_count, prefixes, seed,
                             payload_bytes=40)
        return Workload("drr", tuple(packets),
                        lambda env: DrrApp(env, prefixes, flow_count))
    if name == "nat":
        prefixes = make_prefixes(prefix_count, seed)
        packets = flow_trace(packet_count, flow_count, prefixes, seed,
                             payload_bytes=0)
        sources = sorted({packet.source for packet in packets})
        return Workload("nat", tuple(packets),
                        lambda env: NatApp(env, prefixes, sources))
    if name == "url":
        prefixes = make_prefixes(prefix_count, seed)
        paths = make_http_paths(path_count, seed)
        packets = http_trace(packet_count, prefixes, seed, paths=paths)
        servers = [(path, ip_to_int("192.168.1.1") + index)
                   for index, path in enumerate(paths)]
        patterns = [(path[:32], server) for path, server in servers]
        return Workload("url", tuple(packets),
                        lambda env: UrlApp(env, prefixes, patterns))
    raise ValueError(f"unknown application {name!r}; "
                     f"expected one of {NETBENCH_APPS}")


def all_workloads(packet_count: int = 300, seed: int = 7,
                  ) -> "list[Workload]":
    """The seven canonical workloads in Table-I order."""
    return [make_workload(name, packet_count, seed)
            for name in NETBENCH_APPS]

