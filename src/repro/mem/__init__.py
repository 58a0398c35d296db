"""Memory-system substrate: caches, fault injection, parity, recovery."""

from repro.mem.allocator import BumpAllocator, Region
from repro.mem.backing import BackingStore
from repro.mem.cache import Cache, CacheLine, CacheStatistics
from repro.mem.errors import MemoryAccessError, StraddlingAccessError
from repro.mem.faults import FaultEvent, FaultInjector, FaultStatistics
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.parity import parity_of_bytes, parity_of_int
from repro.mem.view import MemView

__all__ = [
    "BackingStore",
    "BumpAllocator",
    "Cache",
    "CacheLine",
    "CacheStatistics",
    "FaultEvent",
    "FaultInjector",
    "FaultStatistics",
    "MemView",
    "MemoryAccessError",
    "MemoryHierarchy",
    "Region",
    "StraddlingAccessError",
    "parity_of_bytes",
    "parity_of_int",
]
