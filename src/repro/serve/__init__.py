"""The online serving layer: queryable classification as a service.

The paper's census answers point questions -- *is this address
cellular?* -- and this package turns the streaming engine
(:mod:`repro.stream`) into a long-running answerer:

- :mod:`repro.serve.index` -- the LPM query engine: one hash map per
  (family, prefix length) over a ratio table's rows, answering with
  lazily built, memoised classification state (ratio, threshold
  label, confidence tier, AS verdict, demand share) and its encoding;
- :mod:`repro.serve.protocol` -- the line-delimited JSON wire
  protocol: request decoding, the query reply joined from the index's
  encoded answers, the ``overloaded`` shed line, socket-path claiming.
  The serving plane (:mod:`repro.scale`) speaks it through the same
  code;
- :mod:`repro.serve.service` -- the single-process server: stdin/stdout
  or an AF_UNIX socket, in-process ingest with periodic atomic
  snapshots for crash-resume, and its metric set
  (:func:`~repro.serve.service.service_metrics`).

``cellspot serve`` and ``cellspot query`` (:mod:`repro.cli`) are thin
wrappers over :class:`~repro.serve.service.CellSpotService`.  Metric
primitives live in :mod:`repro.obs.metrics`.
"""
