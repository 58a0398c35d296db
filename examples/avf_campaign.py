#!/usr/bin/env python3
"""Which structures make a clumsy operating point dangerous?

Workflow this example demonstrates:

1. evaluate the clumsy operating point (Cr = 0.5, two-strike recovery)
   against the nominal baseline on the route kernel;
2. run a **single-fault AVF campaign** at that clock: which structures
   are dangerous for this workload, per injected fault?
"""

from repro.core.recovery import NO_DETECTION, TWO_STRIKE
from repro.harness.campaign import render_campaign, run_campaign
from repro.harness.config import ExperimentConfig
from repro.harness.experiment import run_experiment


def main() -> None:
    print("step 1: clumsy operating point on route traffic ...")
    baseline = run_experiment(ExperimentConfig(
        app="route", packet_count=200, seed=11, cycle_time=1.0,
        policy=NO_DETECTION, fault_scale=20.0))
    clumsy = run_experiment(ExperimentConfig(
        app="route", packet_count=200, seed=11, cycle_time=0.5,
        policy=TWO_STRIKE, fault_scale=20.0))
    print(f"  EDF^2 at Cr=0.5/two-strike: "
          f"{clumsy.product() / baseline.product():.3f} of baseline "
          f"(fallibility {clumsy.fallibility:.3f})")

    print("step 2: single-fault AVF campaign (40 trials) ...\n")
    campaign = run_campaign(
        ExperimentConfig(app="route", packet_count=200, seed=11,
                         cycle_time=0.5),
        trials=40, seed=23)
    print(render_campaign(campaign))
    print("\nThe header buffer converts nearly every fault (checksums see"
          "\nevery bit); half the radix-node faults are architecturally"
          "\nmasked (unused fields, equal-outcome subtrees).")


if __name__ == "__main__":
    main()
