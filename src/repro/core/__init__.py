"""The paper's primary contribution: the clumsy-processor models.

This package holds the fault-physics chain (voltage swing, noise immunity,
fault probability), the discrete frequency ladder, the detection/recovery
policies, the dynamic frequency controller, the energy model, and the
energy-delay-fallibility comparison metric.
"""
