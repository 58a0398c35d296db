#!/usr/bin/env python3
"""Overclocking study: where is the optimal cache clock for a workload?

Sweeps every static clock setting and recovery scheme for one application
(default: md5, the paper's most fault-sensitive kernel) and prints the
relative energy-delay^2-fallibility^2 landscape -- a single panel of the
paper's Figures 9-12, computed live.

Usage::

    python examples/overclocking_study.py [app] [packets]
"""

import sys

from repro.core.constants import RELATIVE_CYCLE_LEVELS
from repro.core.recovery import ALL_POLICIES, NO_DETECTION
from repro.harness.config import ExperimentConfig
from repro.harness.experiment import run_experiment


def main() -> None:
    app = sys.argv[1] if len(sys.argv) > 1 else "md5"
    packets = int(sys.argv[2]) if len(sys.argv) > 2 else 300

    baseline = run_experiment(ExperimentConfig(
        app=app, packet_count=packets, cycle_time=1.0,
        policy=NO_DETECTION))
    reference = baseline.product()

    print(f"Relative energy*delay^2*fallibility^2 for {app!r} "
          f"({packets} packets, vs Cr=1/no-detection)\n")
    header = (f"{'recovery scheme':14s}"
              + "".join(f"  Cr={level:<5}" for level in RELATIVE_CYCLE_LEVELS))
    print(header)
    print("-" * len(header))

    best = (None, None, float("inf"))
    for policy in ALL_POLICIES:
        cells = []
        for level in RELATIVE_CYCLE_LEVELS:
            result = run_experiment(ExperimentConfig(
                app=app, packet_count=packets, cycle_time=level,
                policy=policy))
            ratio = result.product() / reference
            marker = "!" if result.fatal else " "
            cells.append(f"  {ratio:7.3f}{marker}")
            if ratio < best[2]:
                best = (policy.name, level, ratio)
        print(f"{policy.name:14s}" + "".join(cells))

    policy_name, level, ratio = best
    print(f"\nBest configuration: Cr={level} with {policy_name} "
          f"({1 - ratio:.1%} reduction).  '!' marks runs ended by a fatal "
          f"error (Section 5.3).")


if __name__ == "__main__":
    main()
