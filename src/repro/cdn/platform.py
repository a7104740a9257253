"""The CDN platform itself: server deployment and request routing.

Section 3 describes the vantage point: ~200,000 servers in 1,450
networks, receiving requests from 46,936 ASes across 245 countries.
This module models that deployment so the substrate is a complete
system rather than a disembodied log source:

- :class:`ServerRegion` -- a deployment site (country, coordinates,
  server count, hosting ASN);
- :class:`PlatformDeployment` -- the global fleet, generated from a
  world with server mass proportional to regional demand;
- nearest-region request routing, used to derive where each client
  country's demand is served and the in-country / in-continent service
  fractions a CDN operator tracks.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.columnar.backend import get_kernels
from repro.datasets.demand_dataset import DemandDataset
from repro.world.build import World
from repro.world.geo import EARTH_RADIUS_KM, Geography

#: Paper-reported fleet shape (full scale).
PAPER_SERVER_COUNT = 200_000
PAPER_DEPLOYMENT_NETWORKS = 1_450

#: Slack on the routing walk's latitude bound, in km.  It covers the
#: rounding of the computed distance (worst near antipodes, where
#: ``asin`` is ill-conditioned: ~1e-4 km), so no region that could win
#: or tie is pruned.
_ROUTE_SLACK_KM = 1e-3


@dataclass(frozen=True)
class ServerRegion:
    """One deployment site of the platform."""

    region_id: str
    country: str
    latitude: float
    longitude: float
    servers: int
    #: ASN hosting this deployment (an access or transit network).
    host_asn: int

    def __post_init__(self) -> None:
        if self.servers <= 0:
            raise ValueError(f"{self.region_id}: needs at least one server")


class PlatformDeployment:
    """The CDN fleet plus nearest-region routing."""

    def __init__(self, regions: List[ServerRegion], geography: Geography) -> None:
        if not regions:
            raise ValueError("a platform needs at least one region")
        self.regions = list(regions)
        self._geography = geography
        # Per-region routing terms, computed once and ordered by
        # latitude: (latitude, longitude, cos of the latitude in radians,
        # -servers and list position for the tie-break, region).
        self._sites = sorted(
            (
                region.latitude,
                region.longitude,
                math.cos(math.radians(region.latitude)),
                -region.servers,
                position,
                region,
            )
            for position, region in enumerate(self.regions)
        )
        self._latitudes = [site[0] for site in self._sites]

    def __len__(self) -> int:
        return len(self.regions)

    @property
    def total_servers(self) -> int:
        return sum(region.servers for region in self.regions)

    @property
    def network_count(self) -> int:
        """Distinct hosting networks (paper: 1,450)."""
        return len({region.host_asn for region in self.regions})

    def regions_in(self, country: str) -> List[ServerRegion]:
        return [region for region in self.regions if region.country == country]

    # ---- routing -----------------------------------------------------------

    def route(self, client_country: str) -> ServerRegion:
        """Nearest deployed region for clients of a country.

        Ties in distance break toward the larger region, then toward the
        earlier region in :attr:`regions`.  Regions are visited outward
        from the client's latitude; a region ``dphi`` radians of
        latitude away is at least ``EARTH_RADIUS_KM * |dphi|`` km away,
        so the walk stops once that bound passes the best distance.
        """
        client = self._geography.get(client_country)
        lat1, lon1 = client.latitude, client.longitude
        cos_phi1 = math.cos(math.radians(lat1))
        sites, latitudes = self._sites, self._latitudes
        count = len(sites)
        upper = bisect.bisect_left(latitudes, lat1)
        lower = upper - 1
        best = best_key = None
        reach = math.inf
        while True:
            # Take the nearer frontier in latitude, so the bound only
            # grows and the first region past ``reach`` ends the walk.
            if lower >= 0 and (
                upper == count
                or lat1 - latitudes[lower] <= latitudes[upper] - lat1
            ):
                site = sites[lower]
                lower -= 1
            elif upper < count:
                site = sites[upper]
                upper += 1
            else:
                break
            lat2, lon2, cos_phi2, neg_servers, position, region = site
            # haversine_km term for term, with both cosines hoisted out
            # of the loop, so distances match it bit for bit.
            dphi = math.radians(lat2 - lat1)
            if EARTH_RADIUS_KM * abs(dphi) > reach:
                break
            dlambda = math.radians(lon2 - lon1)
            a = (
                math.sin(dphi / 2) ** 2
                + cos_phi1 * cos_phi2 * math.sin(dlambda / 2) ** 2
            )
            distance = 2 * EARTH_RADIUS_KM * math.asin(math.sqrt(a))
            key = (distance, neg_servers, position)
            if best_key is None or key < best_key:
                best, best_key = region, key
                reach = distance + _ROUTE_SLACK_KM
        return best

    def service_report(self, demand: DemandDataset) -> "ServiceReport":
        """Where demand gets served: in-country / in-continent shares.

        One routing outcome per client country, taken over the demand
        dataset's country column; each DU sum adds its rows in dataset
        order and the regions come in order of first appearance, as a
        scan of the records gives them.
        """
        # Per country code: its region's slot, numbered in order of
        # first appearance (-1 outside the geography), and 0/1 for
        # routable, served in-country and served in-continent.
        region_slot: Dict[str, int] = {}
        slots, routable, same_country, same_continent = [], [], [], []
        for iso2 in demand.country_names:
            region_id, in_country, in_continent = (
                self._outcome(iso2) or (None, False, False)
            )
            routed = region_id is not None
            slots.append(
                region_slot.setdefault(region_id, len(region_slot)) if routed else -1
            )
            routable.append(int(routed))
            same_country.append(int(in_country))
            same_continent.append(int(in_continent))
        # The unroutable rows' slot comes after every region's.
        unroutable = len(region_slot)
        slots = [unroutable if slot < 0 else slot for slot in slots]
        kernels = get_kernels()
        codes, dus = demand.country_codes, demand.dus

        def flagged_sum(flags: List[int]) -> float:
            """DU of the rows whose country is flagged, in row order."""
            ids, sums = kernels.group_sum(kernels.take(flags, codes), dus)
            return dict(zip(ids, sums)).get(1, 0.0)

        total = flagged_sum(routable)
        if total <= 0:
            raise ValueError("no routable demand")
        region_ids = list(region_slot)
        by_region = {
            region_ids[slot]: du
            for slot, du in zip(*kernels.group_sum(kernels.take(slots, codes), dus))
            if slot != unroutable
        }
        return ServiceReport(
            in_country_fraction=flagged_sum(same_country) / total,
            in_continent_fraction=flagged_sum(same_continent) / total,
            demand_by_region=by_region,
        )

    def _outcome(self, iso2: str) -> Optional[Tuple[str, bool, bool]]:
        """Where one client country's demand is served (None if unknown)."""
        client = self._geography.find(iso2)
        if client is None:
            return None
        region = self.route(iso2)
        served = self._geography.get(region.country)
        return (
            region.region_id,
            region.country == iso2,
            served.continent is client.continent,
        )


@dataclass(frozen=True)
class ServiceReport:
    """Routing outcome over one demand snapshot."""

    in_country_fraction: float
    in_continent_fraction: float
    demand_by_region: Dict[str, float]

    def busiest_regions(self, count: int = 5) -> List[Tuple[str, float]]:
        ranked = sorted(
            self.demand_by_region.items(), key=lambda kv: -kv[1]
        )
        return ranked[:count]


def deploy_platform(
    world: World,
    seed_salt: str = "platform",
) -> PlatformDeployment:
    """Generate the fleet from a world.

    Server mass follows country demand (CDNs deploy where the traffic
    is) with a floor of one region per profiled country with meaningful
    demand; hosts are drawn from the country's access/transit networks.
    The fleet size scales with the world's ``scale`` parameter.
    """
    rng = world.rng(seed_salt)
    scale = world.params.scale
    target_servers = max(50, round(PAPER_SERVER_COUNT * scale * 10))
    shares = world.topology.country_demand
    hosts_by_country: Dict[str, List[int]] = {}
    for plan in world.topology.plans.values():
        record = plan.record
        if record.as_type.is_access:
            hosts_by_country.setdefault(record.country, []).append(record.asn)
    regions: List[ServerRegion] = []
    for iso2 in sorted(shares):
        share = shares[iso2]
        country = world.geography.find(iso2)
        if country is None or share <= 0:
            continue
        country_servers = max(2, round(target_servers * share))
        hosts = hosts_by_country.get(iso2)
        if not hosts:
            continue
        site_count = max(1, min(len(hosts), round(math.sqrt(country_servers))))
        per_site = max(1, country_servers // site_count)
        for index in range(site_count):
            regions.append(
                ServerRegion(
                    region_id=f"{iso2}-{index}",
                    country=iso2,
                    latitude=country.latitude + rng.uniform(-1.5, 1.5),
                    longitude=country.longitude + rng.uniform(-1.5, 1.5),
                    servers=per_site,
                    host_asn=rng.choice(hosts),
                )
            )
    return PlatformDeployment(regions, world.geography)
