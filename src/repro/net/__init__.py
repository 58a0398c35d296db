"""Packet substrate: IPv4 headers, packets, and synthetic trace generators."""

from repro.net.ip import (
    IPV4_HEADER_BYTES,
    PROTOCOL_TCP,
    PROTOCOL_UDP,
    Ipv4Header,
    int_to_ip,
    internet_checksum,
    ip_to_int,
    parse_header,
    verify_checksum,
)
from repro.net.packet import Packet
from repro.net.trace import (
    RoutePrefix,
    address_in_prefix,
    flow_trace,
    http_trace,
    make_http_paths,
    make_prefixes,
    routed_trace,
    uniform_trace,
)

__all__ = [
    "IPV4_HEADER_BYTES",
    "Ipv4Header",
    "PROTOCOL_TCP",
    "PROTOCOL_UDP",
    "Packet",
    "RoutePrefix",
    "address_in_prefix",
    "flow_trace",
    "http_trace",
    "int_to_ip",
    "internet_checksum",
    "ip_to_int",
    "make_http_paths",
    "make_prefixes",
    "parse_header",
    "routed_trace",
    "uniform_trace",
    "verify_checksum",
]
