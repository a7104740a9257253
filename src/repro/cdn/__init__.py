"""CDN substrate: the measurement platform of the paper.

The paper's vantage point is a large CDN with two monitoring sources
(section 3): Javascript RUM beacons carrying Network Information API
data (BEACON) and platform-wide request logs (DEMAND).  This package
generates both from a :class:`~repro.world.build.World`:

- :mod:`repro.cdn.netinfo` -- the Network Information API simulation,
  including its documented noise sources.
- :mod:`repro.cdn.logs` -- beacon-hit and request-log record types with
  JSONL round-trip.
- :mod:`repro.cdn.beacon` -- the RUM beacon generator (hit-level stream
  or fast aggregated summary; both share one probability model).
- :mod:`repro.cdn.demand` -- platform request-log generation and the
  weekly aggregation that the DEMAND dataset normalizes into Demand
  Units.
"""
