"""repro.oracle: differential & metamorphic verification of the simulator.

The paper's argument rests on trusting the simulator's error accounting:
the energy-delay^2-fallibility^2 comparison is only meaningful if the
fault chain (cycle time -> voltage swing -> noise immunity -> per-bit
fault probability) and the recovery/DVS machinery behave identically
across every execution path the harness has grown -- reference vs
geometric injectors, serial vs parallel fan-out, cached vs cold campaign
runs.  This subsystem treats the simulator itself as the system under
test:

* :mod:`repro.oracle.differential` -- the twin-runner: one config, two
  independently varied execution paths, field-by-field divergence
  records (exact for deterministic paths, KS/chi-square for the
  stochastic injector pair);
* :mod:`repro.oracle.invariants` -- a registry of paper-derived
  metamorphic relations checked over sweep outputs (fault-rate
  monotonicity, recovery-strength ordering, zero-faults-golden
  identity, DVS epoch consistency, error accounting);
* :mod:`repro.oracle.fuzz` -- a seeded random-walk generator over the
  valid :class:`~repro.harness.config.ExperimentConfig` space that
  shrinks failing configs to minimal repros and files them in a
  replayable corpus;
* :mod:`repro.oracle.check` -- the ``python -m repro check``
  orchestrator combining all three, with ``oracle.check.*`` telemetry
  counters.

See docs/VERIFICATION.md for the invariant catalogue and how to add an
invariant.
"""
