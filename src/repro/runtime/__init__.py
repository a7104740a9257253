"""Fault-tolerance runtime: error policies, quarantine, guards, checkpoints.

The paper's census is computed from a month of messy third-party CDN
logs; operational data is never clean.  This package makes the
reproduction survive it:

- :mod:`repro.runtime.policies` -- ingestion error policies
  (``strict`` / ``skip`` / ``quarantine``) with error budgets and
  per-line error context;
- :mod:`repro.runtime.quarantine` -- sidecar sink for rejected lines,
  with replay support;
- :mod:`repro.runtime.guard` -- fault-isolated execution of one
  experiment (timeout, bounded retry with backoff, explicit outcome);
- :mod:`repro.runtime.checkpoint` -- atomic file writes and a
  per-experiment completion store for crash-then-resume runs;
- :mod:`repro.runtime.manifest` -- the run manifest (seed, scale,
  dataset digests, versions, per-stage timings) that makes a resumed
  run verifiably the *same* run;
- :mod:`repro.runtime.logging` -- structured, run-id-tagged logging
  for long-running components (the serve loop, guards, quarantine).
"""
