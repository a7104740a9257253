"""RUM beacon generation (the BEACON source, section 3.1).

Two generation paths share one probability model:

- :meth:`BeaconGenerator.iter_hits` streams individual
  :class:`~repro.cdn.logs.BeaconHit` records -- page loads with client
  IP, browser, and (when the browser supports it) the Network
  Information API's ConnectionType.
- :meth:`BeaconGenerator.summarize` skips per-hit materialization and
  draws the per-subnet binomial aggregates directly, which is what
  month-scale worlds need.

Hit volume per subnet is demand-proportional plus a base rate (beacons
are sampled page loads, so even low-demand subnets report), gated by
the subnet's ``beacon_coverage`` -- terminating proxies run no client
Javascript and emit nothing (section 6.1).
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from repro.cdn.logs import BeaconHit
from repro.cdn.netinfo import draw_connection_type
from repro.datasets.beacon_dataset import BeaconDataset, SubnetBeaconCounts
from repro.parallel.chunks import map_chunks
from repro.stats.sampling import binomial, poisson, split_integer
from repro.world.allocation import SubnetPlan
from repro.world.build import World
from repro.world.population import STUDY_MONTH, api_adoption


@dataclass(frozen=True)
class BeaconConfig:
    """Volume and timing knobs for beacon generation.

    ``demand_hits`` are distributed across subnets proportionally to
    demand; ``base_hits`` is the mean demand-independent volume per
    covered subnet (RUM sampling floor).
    """

    month: str = STUDY_MONTH
    demand_hits: int = 2_000_000
    base_hits: float = 40.0
    seed_salt: str = "beacon"

    def __post_init__(self) -> None:
        if self.demand_hits < 0:
            raise ValueError("demand_hits must be non-negative")
        if self.base_hits < 0:
            raise ValueError("base_hits must be non-negative")


class BeaconGenerator:
    """Generates the BEACON dataset from a world."""

    def __init__(self, world: World, config: Optional[BeaconConfig] = None) -> None:
        self.world = world
        self.config = config or BeaconConfig()
        self._total_demand = world.allocation.total_demand()

    # ---- volume model ----------------------------------------------------

    def mean_hits(self, subnet: SubnetPlan) -> float:
        """Expected beacon hits for a subnet this month."""
        if subnet.beacon_coverage <= 0:
            return 0.0
        demand_fraction = (
            subnet.demand_weight / self._total_demand
            if self._total_demand > 0
            else 0.0
        )
        mean = demand_fraction * self.config.demand_hits + self.config.base_hits
        return mean * subnet.beacon_coverage

    def _uses_mobile_mix(self, subnet: SubnetPlan) -> bool:
        """Cellular subnets and proxy egresses see mobile-browser mixes."""
        return subnet.is_cellular or subnet.cellular_label_rate > 0.3

    def _subnet_rng(self, subnet: SubnetPlan, purpose: str) -> random.Random:
        return self.world.rng(
            f"{self.config.seed_salt}:{self.config.month}:{purpose}:{subnet.prefix}"
        )

    # ---- fast aggregated path ---------------------------------------------

    def summarize(self) -> BeaconDataset:
        """Generate per-subnet label counts without materializing hits.

        The subnets are drawn in contiguous world-order chunks, one per
        CPU (:func:`repro.parallel.chunks.map_chunks`); the dataset is
        the same for every split.
        """
        subnets = self.world.subnets()
        mixes = [self._mix(mobile) for mobile in (False, True)]
        columns = map_chunks(
            lambda start, stop: self._summarize_chunk(mixes, start, stop),
            len(subnets),
        )
        dataset = BeaconDataset(month=self.config.month)
        for positions, hits, api_hits, cellular_hits, *_ in columns:
            for position, *counts in zip(positions, hits, api_hits, cellular_hits):
                subnet = subnets[position]
                dataset.add_counts(
                    SubnetBeaconCounts(subnet.prefix, subnet.asn, subnet.country,
                                       *counts)
                )
        # Browser counters per mix, mixes in the order of their first use.
        first_use = [min(use) for use in zip(*(chunk[4] for chunk in columns))]
        tallies = [
            [sum(per_chunk) for per_chunk in zip(*tally)]
            for tally in zip(*(chunk[5:] for chunk in columns))
        ]
        for mobile in sorted((0, 1), key=first_use.__getitem__):
            if first_use[mobile] == len(subnets):
                continue  # no subnet drew from this mix
            browsers = mixes[mobile][0]
            hit_sums, api_sums = tallies[2 * mobile], tallies[2 * mobile + 1]
            for browser, browser_hits, api in zip(browsers, hit_sums, api_sums):
                dataset.observe_browser_batch(browser, browser_hits, api)
        return dataset

    def _summarize_chunk(self, mixes, start: int, stop: int) -> Tuple[array, ...]:
        """Subnets ``[start, stop)`` as columns: world position, hits,
        API hits and cellular hits per subnet that drew any hits; each
        mix's first-use position (``len(subnets)`` if unused); then hit
        and API-hit tallies per browser of each mix."""
        subnets = self.world.subnets()
        seed_text = self.world.seed_text(
            f"{self.config.seed_salt}:{self.config.month}:sum:"
        )
        rows = [array("q") for _ in range(4)]
        positions, hit_column, api_column, cellular_column = rows
        first_use = array("q", [len(subnets)] * 2)
        tallies = [[0] * len(mixes[mobile][0]) for mobile in (0, 0, 1, 1)]
        for position in range(start, stop):
            subnet = subnets[position]
            mean = self.mean_hits(subnet)
            if mean == 0.0:
                continue  # a zero mean draws nothing: no RNG to seed
            rng = random.Random(seed_text + str(subnet.prefix))
            hits = poisson(rng, mean)
            if hits == 0:
                continue
            mobile = self._uses_mobile_mix(subnet)
            if first_use[mobile] == len(subnets):
                first_use[mobile] = position
            _, weights, adoption = mixes[mobile]
            hit_sums, api_sums = tallies[2 * mobile], tallies[2 * mobile + 1]
            per_browser = split_integer(rng, hits, weights)
            api_total = 0
            for index, browser_hits in enumerate(per_browser):
                api_hits = binomial(rng, browser_hits, adoption[index])
                api_total += api_hits
                hit_sums[index] += browser_hits
                api_sums[index] += api_hits
            positions.append(position)
            hit_column.append(hits)
            api_column.append(api_total)
            cellular_column.append(
                binomial(rng, api_total, subnet.cellular_label_rate)
            )
        return (*rows, first_use, *(array("q", tally) for tally in tallies))

    def _mix(self, mobile: bool) -> Tuple[list, list, list]:
        """A mix's browsers, split weights and API adoption."""
        mix = self.world.population.mix_for(mobile)
        browsers = list(mix)
        return (
            browsers,
            [mix[browser] for browser in browsers],
            [api_adoption(browser, self.config.month) for browser in browsers],
        )

    # ---- hit-level path -----------------------------------------------------

    def iter_hits(self) -> Iterator[BeaconHit]:
        """Stream individual beacon hits (small worlds / examples)."""
        month = self.config.month
        for subnet in self.world.subnets():
            rng = self._subnet_rng(subnet, "hits")
            hits = poisson(rng, self.mean_hits(subnet))
            if hits == 0:
                continue
            mobile = self._uses_mobile_mix(subnet)
            span = subnet.prefix.num_addresses
            for _ in range(hits):
                browser = self.world.population.draw_browser(rng, mobile)
                api_enabled = rng.random() < api_adoption(browser, month)
                connection = (
                    draw_connection_type(rng, subnet.cellular_label_rate, browser)
                    if api_enabled
                    else None
                )
                yield BeaconHit(
                    month=month,
                    family=subnet.family,
                    address=subnet.prefix.nth_address(rng.randrange(span)),
                    subnet=subnet.prefix,
                    asn=subnet.asn,
                    country=subnet.country,
                    browser=browser,
                    api_enabled=api_enabled,
                    connection_type=connection,
                )
