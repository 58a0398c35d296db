#!/usr/bin/env python3
"""Find the optimal cache clock analytically (hybrid workflow).

The paper locates its optimum (Cr = 0.5 with two-strike recovery) by
simulating every configuration.  This example shows the library's hybrid
shortcut:

1. **profile** the workload with one fault-free run;
2. **calibrate** the analytic model's error-conversion rate with a single
   simulated point at the most aggressive clock;
3. sweep the **closed-form** energy·delay²·fallibility² curve over a dense
   clock grid — thousands of operating points for the cost of two
   simulations — and read off the optimum.

Usage::

    python examples/operating_point.py [app]
"""

import sys

from repro.core.optimum import OperatingPointModel
from repro.core.recovery import NO_DETECTION, TWO_STRIKE
from repro.harness.config import ExperimentConfig
from repro.harness.experiment import run_experiment
from repro.harness.profile import profile_workload

FAULT_SCALE = 20.0
PACKETS = 200


def main() -> None:
    app = sys.argv[1] if len(sys.argv) > 1 else "route"

    print(f"Analytic operating-point search for {app!r}\n")
    print("step 1: profiling (one fault-free run) ...")
    profile = profile_workload(app, packet_count=PACKETS)
    print(f"  {profile.instructions_per_packet:.0f} instructions, "
          f"{profile.loads_per_packet:.0f} loads, "
          f"{profile.stores_per_packet:.0f} stores per packet; "
          f"L1 miss rate {profile.l1_miss_rate:.1%}")

    print("step 2: calibrating (one simulated point at Cr=0.25) ...")
    observed = run_experiment(ExperimentConfig(
        app=app, packet_count=PACKETS, cycle_time=0.25,
        policy=NO_DETECTION, fault_scale=FAULT_SCALE))
    print(f"  observed fallibility {observed.fallibility:.3f} at Cr=0.25")

    # Errors-per-fault is a property of the application, not the
    # protection scheme: calibrate it once against the unprotected run and
    # transfer it to every policy's model.
    conversion = OperatingPointModel(
        profile, policy=NO_DETECTION, fault_scale=FAULT_SCALE,
    ).calibrate_conversion(observed.fallibility, 0.25).error_conversion

    print("step 3: closed-form sweep over 76 clock settings ...\n")
    for policy in (NO_DETECTION, TWO_STRIKE):
        model = OperatingPointModel(
            profile, policy=policy, fault_scale=FAULT_SCALE,
            error_conversion=conversion)
        baseline = model.predict(1.0)
        best = model.optimum()
        print(f"{policy.name}:")
        print(f"  predicted optimum: Cr = {best.cycle_time:.2f} "
              f"({1 - best.product / baseline.product:.1%} below nominal)")
        for cycle_time in (1.0, 0.75, 0.5, 0.25):
            point = model.predict(cycle_time)
            bar = "#" * round(40 * point.product / baseline.product)
            print(f"    Cr={cycle_time:4.2f}  "
                  f"{point.product / baseline.product:6.3f}  {bar}")
        print()

    print("Cross-check: the paper's exhaustively simulated optimum is the "
          "static\nCr = 0.5 setting with two-strike recovery (Section 5.4).")


if __name__ == "__main__":
    main()
