#!/usr/bin/env python3
"""Dynamic frequency adaptation in action (paper Section 4).

Runs the crc kernel with the epoch-based controller and parity detection
enabled, then prints the cache-clock trajectory: the controller climbs
from the safe nominal clock toward over-clocked settings while fault
counts stay low, and backs off when an epoch shows a fault burst
(X1 = 200% / X2 = 80% thresholds, 100-packet epochs).
"""

from repro.core.recovery import NO_DETECTION, TWO_STRIKE
from repro.harness.config import ExperimentConfig
from repro.harness.experiment import run_experiment


def trajectory_line(history) -> str:
    symbols = {1.0: "1.00", 0.75: "0.75", 0.5: "0.50", 0.25: "0.25"}
    return " -> ".join(symbols[level] for level in history)


def main() -> None:
    packets = 800
    dynamic = run_experiment(ExperimentConfig(
        app="crc", packet_count=packets, dynamic=True, policy=TWO_STRIKE,
        fault_scale=20.0))
    static = run_experiment(ExperimentConfig(
        app="crc", packet_count=packets, cycle_time=0.5, policy=TWO_STRIKE,
        fault_scale=20.0))
    baseline = run_experiment(ExperimentConfig(
        app="crc", packet_count=packets, cycle_time=1.0,
        policy=NO_DETECTION, fault_scale=20.0))

    print("Dynamic cache-frequency adaptation (crc, parity + two-strike)\n")
    print(f"Clock trajectory over {packets} packets "
          f"({packets // 100} epochs):")
    print("  Cr: " + trajectory_line(dynamic.cycle_history))
    print(f"  frequency changes: {len(dynamic.cycle_history) - 1} "
          f"(10-cycle penalty each)")
    print(f"  parity faults detected: {dynamic.detected_faults}")

    reference = baseline.product()
    print("\nRelative energy*delay^2*fallibility^2 (vs Cr=1/no-detection):")
    print(f"  dynamic:          {dynamic.product() / reference:.3f}")
    print(f"  static Cr=0.5:    {static.product() / reference:.3f}")
    print("\nThe controller spends most packets in the over-clocked region"
          "\n(the paper: 'the dynamic scheme also stays mostly in the"
          "\nCr = 0.5 region'), trading a little of the static optimum for"
          "\nnot having to know the application's safe clock in advance.")


if __name__ == "__main__":
    main()
