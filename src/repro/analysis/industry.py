"""Reconciling request demand with industry byte-volume reports (§7.1).

The paper's 16.2% cellular share counts *requests*; Ericsson and Cisco
report ~8% of *traffic volume* because objects served to cellular
clients are smaller than their fixed-line counterparts (adaptive
bitrates, mobile pages, compression proxies).  This module applies a
bytes-per-request model to the request-unit demand and recovers the
byte-share view, quantifying the gap the paper attributes to the
metric difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set

from repro.analysis.continent import cellular_positions
from repro.columnar.backend import get_kernels
from repro.core.classifier import ClassificationResult
from repro.datasets.demand_dataset import DemandDataset

#: Mean object size served to a cellular client relative to fixed-line.
#: Mobile pages, adaptive bitrate ladders, and compression proxies cut
#: per-request payloads roughly in half.
DEFAULT_CELLULAR_BYTES_PER_REQUEST = 0.45


@dataclass(frozen=True)
class TrafficShareReport:
    """Cellular share of demand under both accounting metrics."""

    request_fraction: float
    byte_fraction: float
    cellular_bytes_per_request: float

    @property
    def metric_gap(self) -> float:
        """How many times larger the request share is than the byte share."""
        if self.byte_fraction <= 0:
            return float("inf")
        return self.request_fraction / self.byte_fraction


def byte_share_report(
    classification: ClassificationResult,
    demand: DemandDataset,
    restrict_to_asns: Optional[Set[int]] = None,
    exclude_countries: frozenset = frozenset({"CN"}),
    cellular_bytes_per_request: float = DEFAULT_CELLULAR_BYTES_PER_REQUEST,
) -> TrafficShareReport:
    """Compute cellular demand share by requests and by bytes.

    Request units are the paper's Demand Units; the byte view weighs
    each cellular request by ``cellular_bytes_per_request`` (fixed-line
    requests weigh 1.0).
    """
    if cellular_bytes_per_request <= 0:
        raise ValueError("bytes-per-request ratio must be positive")
    # Over the demand columns: a country's rows count (0) or are
    # excluded (1); each sum adds its rows in dataset order.
    kernels = get_kernels()
    excluded = kernels.take(
        [int(iso2 in exclude_countries) for iso2 in demand.country_names],
        demand.country_codes,
    )
    total_du = _counted_sum(excluded, demand.dus)
    positions = cellular_positions(classification, demand, restrict_to_asns)
    cellular_du = _counted_sum(
        kernels.take(excluded, positions), kernels.take(demand.dus, positions)
    )
    if total_du <= 0:
        raise ValueError("no demand to aggregate")
    request_fraction = cellular_du / total_du
    cellular_bytes = cellular_du * cellular_bytes_per_request
    fixed_bytes = total_du - cellular_du
    byte_fraction = cellular_bytes / (cellular_bytes + fixed_bytes)
    return TrafficShareReport(
        request_fraction=request_fraction,
        byte_fraction=byte_fraction,
        cellular_bytes_per_request=cellular_bytes_per_request,
    )


def _counted_sum(excluded, dus) -> float:
    """DU of the rows not excluded, added in row order from 0.0."""
    ids, sums = get_kernels().group_sum(excluded, dus)
    return dict(zip(ids, sums)).get(0, 0.0)
