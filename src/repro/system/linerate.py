"""Line-rate analysis: what arrival rate can a clumsy engine sustain?

The paper motivates over-clocking with packet processing, where the real
currency is *wire speed*: a router either keeps up with the line or its
input queue overflows and it drops packets.  This module turns the
simulator's per-packet service times (cycles) into that currency:

* the **sustainable rate** is the arrival rate at which the engine's
  utilisation reaches 1 (the reciprocal of the mean service time);
* below saturation, a finite input queue still drops packets during
  service-time bursts; :func:`simulate_queue` replays the measured
  service-time sequence through a deterministic-arrival, single-server,
  finite-buffer queue (D/G/1/K) and reports the loss rate and occupancy.

Over-clocking the L1D shortens service times, so the same engine sustains
a faster line -- the throughput face of the paper's delay reductions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True)
class QueueResult:
    """Outcome of replaying service times through the input queue."""

    offered_packets: int
    served_packets: int
    dropped_packets: int
    peak_occupancy: int
    mean_occupancy: float

    @property
    def loss_rate(self) -> float:
        """Dropped fraction of offered packets (0.0 when none offered)."""
        if self.offered_packets == 0:
            return 0.0
        return self.dropped_packets / self.offered_packets

    @property
    def goodput_fraction(self) -> float:
        """Served fraction of offered packets (1.0 when none offered)."""
        if self.offered_packets == 0:
            return 1.0
        return self.served_packets / self.offered_packets


def sustainable_cycles_per_packet(service_cycles: "list[float]") -> float:
    """The slowest arrival interval the engine saturates at (mean service)."""
    if not service_cycles:
        raise ValueError("need at least one service time")
    if any(cycles <= 0 for cycles in service_cycles):
        raise ValueError("service times must be positive")
    return sum(service_cycles) / len(service_cycles)


def simulate_queue(
    service_cycles: "list[float]",
    arrival_interval_cycles: float,
    buffer_packets: int = 32,
) -> QueueResult:
    """Replay measured service times under deterministic arrivals.

    Packet ``i`` arrives at ``i * arrival_interval_cycles``; the engine
    serves in order, one at a time; arrivals finding ``buffer_packets``
    packets waiting (beyond the one in service) are dropped, taking their
    service demand with them.  Occupancy is sampled at arrival instants.
    """
    if arrival_interval_cycles <= 0:
        raise ValueError("arrival interval must be positive")
    if buffer_packets < 1:
        raise ValueError("need at least one buffer slot")
    if not service_cycles:
        raise ValueError("need at least one service time")
    waiting: "deque[float]" = deque()
    server_free_at = 0.0   # completion time of the in-service packet
    dropped = 0
    occupancy_sum = 0
    peak = 0
    for index, demand in enumerate(service_cycles):
        now = index * arrival_interval_cycles
        # Completions run back-to-back while a backlog exists: the next
        # service starts the instant the previous one finishes.
        while waiting and server_free_at <= now:
            server_free_at += waiting.popleft()
        in_service = 1 if server_free_at > now else 0
        occupancy = len(waiting) + in_service
        occupancy_sum += occupancy
        peak = max(peak, occupancy)
        if len(waiting) >= buffer_packets:
            dropped += 1
            continue
        if in_service:
            waiting.append(demand)
        else:
            server_free_at = now + demand
    offered = len(service_cycles)
    return QueueResult(
        offered_packets=offered,
        served_packets=offered - dropped,
        dropped_packets=dropped,
        peak_occupancy=peak,
        mean_occupancy=occupancy_sum / offered,
    )


def loss_curve(
    service_cycles: "list[float]",
    load_fractions: "list[float]",
    buffer_packets: int = 32,
) -> "list[tuple[float, float]]":
    """Loss rate at several offered loads (fractions of saturation)."""
    if not load_fractions:
        raise ValueError("need at least one load point")
    saturation = sustainable_cycles_per_packet(service_cycles)
    points = []
    for load in load_fractions:
        if load <= 0:
            raise ValueError("load fractions must be positive")
        interval = saturation / load
        result = simulate_queue(service_cycles, interval, buffer_packets)
        points.append((load, result.loss_rate))
    return points

