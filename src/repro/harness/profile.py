"""Workload profiling: the per-packet quantities the analytic model needs.

One fault-free run of an application yields its amortised per-packet
footprint -- instructions, loads/stores, cache fill and writeback traffic.
The analytic operating-point model (:mod:`repro.core.optimum`) predicts
delay, energy, fallibility, and the optimal cache clock from this profile
alone, without further simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.config import ExperimentConfig
from repro.harness.experiment import execute_workload, load_workload


@dataclass(frozen=True)
class WorkloadProfile:
    """Amortised per-packet footprint of one application workload."""

    app: str
    packets: int
    instructions_per_packet: float
    loads_per_packet: float
    stores_per_packet: float
    l1_fills_per_packet: float
    l2_fills_per_packet: float
    writebacks_per_packet: float

    @property
    def accesses_per_packet(self) -> float:
        """Loads plus stores per packet."""
        return self.loads_per_packet + self.stores_per_packet

    @property
    def l1_miss_rate(self) -> float:
        """L1 data-cache miss fraction."""
        accesses = self.accesses_per_packet
        return self.l1_fills_per_packet / accesses if accesses else 0.0


def profile_workload(app: str, packet_count: int = 300, seed: int = 7,
                     ) -> WorkloadProfile:
    """Measure a workload's profile with one fault-free run.

    The profiling run is exactly the golden reference run of the
    workload's configuration (``ExperimentConfig.golden()``, which
    always carries the ``execute`` backend and a disabled ``geometric``
    injector), so the profile describes the same execution the
    experiment runner compares against.  That run rides the MemView
    fast lane; its cache and processor counters are identical to the
    slow path's, which is all a profile reads.  It calls
    :func:`~repro.harness.experiment.execute_workload` rather than
    :func:`~repro.harness.experiment.run_experiment`: the profile reads
    the live hierarchy and processor counters from the raw
    :class:`RunOutcome`, which the reduced :class:`ExperimentResult`
    does not expose.
    """
    config = ExperimentConfig(app=app, packet_count=packet_count,
                              seed=seed).golden()
    outcome = execute_workload(load_workload(config), config, faulty=False)
    if outcome.fatal_reason is not None:
        raise RuntimeError(f"profiling run failed: {outcome.fatal_reason}")
    packets = outcome.processed_packets
    l1_stats = outcome.hierarchy.l1d.stats
    l2_stats = outcome.hierarchy.l2.stats
    return WorkloadProfile(
        app=app,
        packets=packets,
        instructions_per_packet=outcome.processor.instructions / packets,
        loads_per_packet=l1_stats.reads / packets,
        stores_per_packet=l1_stats.writes / packets,
        l1_fills_per_packet=l1_stats.misses / packets,
        l2_fills_per_packet=l2_stats.misses / packets,
        writebacks_per_packet=l1_stats.writebacks / packets,
    )
