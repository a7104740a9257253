"""The online serving layer: queryable classification as a service.

The paper's census answers point questions -- *is this address
cellular?* -- and this package turns the streaming engine
(:mod:`repro.stream`) into a long-running answerer:

- :mod:`repro.serve.index` -- the LPM query engine: one hash map per
  (family, prefix length) over a ratio table's rows, answering with
  lazily built, memoised classification state (ratio, threshold
  label, confidence tier, AS verdict, demand share) and its encoding;
- :mod:`repro.serve.service` -- the serving front end: line-delimited
  JSON request/response over stdin/stdout or an AF_UNIX socket, with
  periodic atomic snapshots for crash-resume;
- :mod:`repro.serve.metrics` -- counters, gauges, and fixed-bucket
  latency histograms exported as JSON (the ``stats`` op and the
  SIGUSR1 dump).

``cellspot serve`` and ``cellspot query`` (:mod:`repro.cli`) are thin
wrappers over :class:`~repro.serve.service.CellSpotService`.
"""

from repro.serve.index import ClassificationIndex, IndexEntry, QueryResult
from repro.serve.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    service_metrics,
)
from repro.serve.service import (
    CellSpotService,
    ServiceConfig,
    install_sigusr1_stats,
)

__all__ = [
    "CellSpotService",
    "ClassificationIndex",
    "Counter",
    "Gauge",
    "Histogram",
    "IndexEntry",
    "MetricsRegistry",
    "QueryResult",
    "ServiceConfig",
    "install_sigusr1_stats",
    "service_metrics",
]
