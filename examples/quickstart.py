#!/usr/bin/env python3
"""Quickstart: evaluate one clumsy-processor configuration.

Runs the IPv4 `route` kernel at half the cache cycle time with the paper's
best recovery scheme (two-strike), compares it against the safe baseline,
and prints the paper's metrics.
"""

from repro.core.recovery import NO_DETECTION, TWO_STRIKE
from repro.harness.config import ExperimentConfig
from repro.harness.experiment import run_experiment


def main() -> None:
    baseline = run_experiment(ExperimentConfig(
        app="route", packet_count=300, cycle_time=1.0, policy=NO_DETECTION))
    clumsy = run_experiment(ExperimentConfig(
        app="route", packet_count=300, cycle_time=0.5, policy=TWO_STRIKE))

    print("Clumsy packet processor quickstart: route @ Cr=0.5, two-strike\n")
    header = f"{'metric':34s} {'baseline':>12s} {'clumsy':>12s}"
    print(header)
    print("-" * len(header))
    rows = [
        ("cycles / packet", baseline.delay_per_packet,
         clumsy.delay_per_packet),
        ("chip energy (arb. units)", baseline.energy["total"],
         clumsy.energy["total"]),
        ("L1D energy share", baseline.energy["l1d"] / baseline.energy["total"],
         clumsy.energy["l1d"] / clumsy.energy["total"]),
        ("fallibility factor", baseline.fallibility, clumsy.fallibility),
        ("detected parity faults", baseline.detected_faults,
         clumsy.detected_faults),
        ("energy*delay^2*fallibility^2", baseline.product(),
         clumsy.product()),
    ]
    for name, base_value, clumsy_value in rows:
        print(f"{name:34s} {base_value:12.4g} {clumsy_value:12.4g}")

    reduction = 1.0 - clumsy.product() / baseline.product()
    print(f"\nEnergy-delay^2-fallibility^2 reduction: {reduction:.1%}")
    print("(The paper reports 24% on average at this operating point.)")


if __name__ == "__main__":
    main()
