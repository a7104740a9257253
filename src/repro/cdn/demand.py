"""Platform demand generation (the DEMAND source, section 3.2).

Unlike beacons, the demand logs cover *all* platform requests across
all protocols and devices -- no Javascript requirement -- so
terminating-proxy subnets show up here with substantial request counts
despite having zero beacon hits.  Daily per-subnet request counts are
drawn with lognormal day-to-day jitter, summed over a seven-day window
(Dec 24-31 2016 in the paper), and normalized into Demand Units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.cdn.logs import RequestRecord
from repro.datasets.demand_dataset import DemandDataset
from repro.net.prefix import Prefix
from repro.stats.sampling import poisson
from repro.world.allocation import SubnetPlan
from repro.world.build import World


@dataclass(frozen=True)
class DemandConfig:
    """Volume and window knobs for demand generation."""

    days: int = 7
    daily_requests: int = 20_000_000
    day_jitter_sigma: float = 0.15
    seed_salt: str = "demand"

    def __post_init__(self) -> None:
        if self.days <= 0:
            raise ValueError("window must cover at least one day")
        if self.daily_requests <= 0:
            raise ValueError("daily_requests must be positive")
        if self.day_jitter_sigma < 0:
            raise ValueError("jitter sigma must be non-negative")


class DemandGenerator:
    """Generates the DEMAND dataset from a world."""

    def __init__(self, world: World, config: Optional[DemandConfig] = None) -> None:
        self.world = world
        self.config = config or DemandConfig()
        self._total_demand = world.allocation.total_demand()

    def _daily_mean(self, subnet: SubnetPlan) -> float:
        if self._total_demand <= 0:
            return 0.0
        return (
            subnet.demand_weight / self._total_demand
        ) * self.config.daily_requests

    def _daily_requests(self) -> Iterator[Tuple[SubnetPlan, List[int]]]:
        """Each demand-active subnet with its request count per day.

        The one place the per-subnet draws are made: per day, a
        lognormal jitter then a Poisson count, from the subnet's RNG.
        """
        sigma = self.config.day_jitter_sigma
        days = range(self.config.days)
        for subnet in self.world.subnets():
            mean = self._daily_mean(subnet)
            if mean <= 0:
                continue
            rng = self.world.rng(f"{self.config.seed_salt}:{subnet.prefix}")
            yield subnet, [
                poisson(rng, mean * rng.lognormvariate(0.0, sigma)) for _ in days
            ]

    def iter_records(self) -> Iterator[RequestRecord]:
        """Stream daily per-subnet request records across the window."""
        for subnet, daily in self._daily_requests():
            for day, requests in enumerate(daily):
                if requests > 0:
                    yield RequestRecord(
                        day=day,
                        subnet=subnet.prefix,
                        asn=subnet.asn,
                        country=subnet.country,
                        requests=requests,
                    )

    def request_totals(self) -> Iterator[Tuple[Prefix, int, str, int]]:
        """``(subnet, asn, country, requests)`` summed over the window.

        Equal to :meth:`iter_records` summed per subnet, without
        building a record per day; subnets with no requests are skipped.
        """
        for subnet, daily in self._daily_requests():
            requests = sum(daily)
            if requests > 0:
                yield subnet.prefix, subnet.asn, subnet.country, requests

    def build_dataset(self) -> DemandDataset:
        """Aggregate the window into a normalized :class:`DemandDataset`."""
        return DemandDataset.from_request_totals(
            self.request_totals(), window_days=self.config.days
        )
