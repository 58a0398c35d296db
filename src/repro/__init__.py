"""Reproduction of *A Case for Clumsy Packet Processors* (MICRO-37, 2004).

A clumsy packet processor deliberately over-clocks its L1 data cache,
trading a higher hardware fault probability for lower access latency and
energy -- exploiting the fault tolerance that networking software already
provides.  This package implements the paper's fault-physics model, the
simulated processor and memory hierarchy, seven NetBench application
kernels, the detection/recovery and dynamic frequency-adaptation schemes,
and a harness that regenerates every table and figure of the evaluation.

Importing the package root loads nothing else; :mod:`repro.api` is the
stable import surface.  Quick start::

    from repro.api import ExperimentConfig, TWO_STRIKE, run_experiment

    result = run_experiment(ExperimentConfig(
        app="route", cycle_time=0.5, policy=TWO_STRIKE))
    print(result.fallibility, result.product())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

__version__ = "1.0.0"
