"""From-scratch NetBench reimplementations running on simulated memory."""

from repro.apps.app_crc import CrcApp
from repro.apps.app_drr import DrrApp
from repro.apps.app_md5 import Md5App
from repro.apps.app_nat import NatApp
from repro.apps.app_route import RouteApp
from repro.apps.app_tl import TableLookupApp
from repro.apps.app_url import UrlApp
from repro.apps.base import (
    FATAL_CATEGORY,
    INITIALIZATION_CATEGORY,
    Environment,
    NetBenchApp,
    copy_packet_to_memory,
)
from repro.apps.registry import Workload, make_workload

__all__ = [
    "CrcApp",
    "DrrApp",
    "Environment",
    "FATAL_CATEGORY",
    "INITIALIZATION_CATEGORY",
    "Md5App",
    "NatApp",
    "NetBenchApp",
    "RouteApp",
    "TableLookupApp",
    "UrlApp",
    "Workload",
    "copy_packet_to_memory",
    "make_workload",
]
