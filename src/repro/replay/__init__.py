"""Trace-capture + replay execution backend.

Records one canonical access trace per (application, workload) pair by
running the real kernel fault-free (:mod:`repro.replay.record`), memoises
it per process by workload identity (:mod:`repro.replay.trace`), and
sweeps (Cr, policy, injector, seed) configurations over the recorded
stream with a vectorized fault/recovery/energy pipeline
(:mod:`repro.replay.replayer`).  The
``"replay"`` entry in :data:`repro.harness.config.BACKEND_NAMES`
resolves here (:mod:`repro.replay.backend`); configs the replayer
cannot model fall back to faithful execution.
"""
