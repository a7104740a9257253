"""Tests for the CDN platform deployment and routing."""

import pytest

from repro.cdn.platform import (
    PlatformDeployment,
    ServerRegion,
    deploy_platform,
)
from repro.datasets.demand_dataset import DemandDataset
from repro.net.prefix import Prefix
from repro.world.build import WorldParams, build_world
from repro.world.geo import (
    Continent,
    Country,
    Geography,
    default_geography,
    haversine_km,
)


def region(region_id="US-0", country="US", lat=38.9, lon=-77.0,
           servers=10, host_asn=100):
    return ServerRegion(region_id, country, lat, lon, servers, host_asn)


class TestServerRegion:
    def test_rejects_empty_region(self):
        with pytest.raises(ValueError):
            region(servers=0)


class TestRouting:
    @pytest.fixture()
    def platform(self):
        regions = [
            region("US-0", "US", 38.9, -77.0, servers=100, host_asn=1),
            region("DE-0", "DE", 52.5, 13.4, servers=50, host_asn=2),
            region("JP-0", "JP", 35.7, 139.7, servers=50, host_asn=3),
        ]
        return PlatformDeployment(regions, default_geography())

    def test_requires_regions(self):
        with pytest.raises(ValueError):
            PlatformDeployment([], default_geography())

    def test_routes_to_nearest(self, platform):
        assert platform.route("CA").region_id == "US-0"
        assert platform.route("FR").region_id == "DE-0"
        assert platform.route("KR").region_id == "JP-0"

    def test_route_cached_and_stable(self, platform):
        first = platform.route("BR")
        assert platform.route("BR") is first

    def test_counts(self, platform):
        assert platform.total_servers == 200
        assert platform.network_count == 3
        assert len(platform.regions_in("US")) == 1

    def test_service_report(self, platform):
        demand = DemandDataset.from_request_totals(
            [
                (Prefix.parse("10.0.0.0/24"), 9, "US", 700),
                (Prefix.parse("10.0.1.0/24"), 9, "FR", 200),
                (Prefix.parse("10.0.2.0/24"), 9, "JP", 100),
            ]
        )
        report = platform.service_report(demand)
        assert report.in_country_fraction == pytest.approx(0.8)  # US + JP
        assert report.in_continent_fraction == pytest.approx(1.0)
        assert report.busiest_regions(1)[0][0] == "US-0"

    def test_service_report_requires_demand(self, platform):
        demand = DemandDataset.from_request_totals(
            [(Prefix.parse("10.0.0.0/24"), 9, "ZZ", 100)]
        )
        with pytest.raises(ValueError):
            platform.service_report(demand)


class TestDeployment:
    def test_deploy_from_world(self, tiny_world):
        platform = deploy_platform(tiny_world)
        assert len(platform) > 20
        assert platform.total_servers > 50
        # Hosts are real access/transit ASes of the world.
        for deployed in platform.regions[:20]:
            record = tiny_world.topology.registry.get(deployed.host_asn)
            assert record.as_type.is_access

    def test_server_mass_follows_demand(self, tiny_world):
        platform = deploy_platform(tiny_world)
        us_servers = sum(r.servers for r in platform.regions_in("US"))
        fj_servers = sum(r.servers for r in platform.regions_in("FJ"))
        assert us_servers > fj_servers

    def test_deterministic(self, tiny_world):
        a = deploy_platform(tiny_world)
        b = deploy_platform(tiny_world)
        assert [r.region_id for r in a.regions] == [
            r.region_id for r in b.regions
        ]
        assert a.total_servers == b.total_servers


def reference_route(platform, geography, iso2):
    client = geography.get(iso2)
    return min(
        platform.regions,
        key=lambda region: (
            haversine_km(client.latitude, client.longitude,
                         region.latitude, region.longitude),
            -region.servers,
        ),
    )


class TestAgainstReferenceLoop:
    """Routing and the service report against plain per-record loops."""

    def test_route_matches_haversine_min(self, tiny_world):
        platform = deploy_platform(tiny_world)
        geography = tiny_world.geography
        for country in geography:
            assert platform.route(country.iso2) is reference_route(
                platform, geography, country.iso2
            )

    def test_tie_breaks_toward_larger_then_first(self):
        geography = default_geography()
        twins = [
            region("A-0", "US", 38.9, -77.0, servers=10),
            region("A-1", "US", 38.9, -77.0, servers=30),
            region("A-2", "US", 38.9, -77.0, servers=30),
        ]
        platform = PlatformDeployment(twins, geography)
        assert platform.route("CA").region_id == "A-1"
        assert reference_route(platform, geography, "CA").region_id == "A-1"

    def test_service_report(self):
        geography = default_geography()
        platform = PlatformDeployment(
            [
                region("US-0", "US", 38.9, -77.0, servers=100),
                region("DE-0", "DE", 52.5, 13.4, servers=50),
                region("SG-0", "SG", 1.3, 103.8, servers=40),
            ],
            geography,
        )
        demand = DemandDataset.from_request_totals(
            (Prefix.make(4, index << 8, 24), 9, iso2, requests)
            for index, (iso2, requests) in enumerate(
                [("US", 517), ("FR", 389), ("CN", 73), ("ZZ", 51),
                 ("US", 97), ("BR", 61), ("AU", 31), ("FR", 43)]
            )
        )
        report = platform.service_report(demand)
        in_country = in_continent = total = 0.0
        by_region = {}
        for record in demand:
            if geography.find(record.country) is None:
                continue
            served = reference_route(platform, geography, record.country)
            total += record.du
            by_region[served.region_id] = (
                by_region.get(served.region_id, 0.0) + record.du
            )
            if served.country == record.country:
                in_country += record.du
            if (
                geography.get(served.country).continent
                is geography.get(record.country).continent
            ):
                in_continent += record.du
        assert report.in_country_fraction == in_country / total
        assert report.in_continent_fraction == in_continent / total
        assert report.demand_by_region == by_region
        assert list(report.demand_by_region) == list(by_region)
        assert 0 < report.in_continent_fraction < 1


class TestRouteAgainstBruteForce:
    """The latitude-bounded walk returns the brute-force ``min`` region,
    the same object, for every client."""

    @pytest.mark.parametrize("scale", [0.002, 0.005])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_deployed_worlds(self, seed, scale):
        world = build_world(WorldParams(seed=seed, scale=scale))
        platform = deploy_platform(world)
        geography = world.geography
        for country in geography:
            assert platform.route(country.iso2) is reference_route(
                platform, geography, country.iso2
            )

    @staticmethod
    def clients():
        # Exactly representable coordinates, so latitude gaps tie exactly.
        coordinates = [
            ("AA", 0.0, 0.0), ("AB", 10.0, 179.5), ("AC", -45.0, -179.5),
            ("AD", 88.0, 0.0), ("AE", -88.0, 90.0), ("AF", 0.0, 180.0),
            ("AG", 32.0, -180.0), ("AH", 90.0, 45.0), ("AI", -90.0, -45.0),
        ]
        return Geography(
            Country(iso2, iso2, Continent.EUROPE, 1.0, lat, lon)
            for iso2, lat, lon in coordinates
        )

    def assert_routes_match(self, regions):
        geography = self.clients()
        platform = PlatformDeployment(regions, geography)
        for client in geography:
            assert platform.route(client.iso2) is reference_route(
                platform, geography, client.iso2
            )
        return platform

    def test_poles(self):
        self.assert_routes_match([
            region("N-0", lat=89.99, lon=0.0),
            region("N-1", lat=90.0, lon=120.0),
            region("N-2", lat=89.5, lon=-179.9),
            region("S-0", lat=-89.99, lon=45.0),
            region("S-1", lat=-90.0, lon=-100.0),
            region("S-2", lat=-89.5, lon=179.9),
            region("E-0", lat=0.5, lon=30.0),
        ])

    def test_antimeridian(self):
        platform = self.assert_routes_match([
            region("W-0", lat=10.0, lon=-179.75),
            region("E-0", lat=10.0, lon=178.5),
            region("W-1", lat=-45.0, lon=-180.0),
            region("E-1", lat=-45.0, lon=179.25),
            region("W-2", lat=32.5, lon=179.999),
            region("M-0", lat=0.0, lon=0.5),
        ])
        # Across the antimeridian, not the long way round.
        assert platform.route("AB").region_id == "W-0"
        assert platform.route("AF").region_id == "W-0"

    def test_identical_coordinates(self):
        platform = self.assert_routes_match([
            region("T-0", lat=20.0, lon=20.0, servers=5),
            region("T-1", lat=20.0, lon=20.0, servers=9),
            region("T-2", lat=20.0, lon=20.0, servers=9),
            region("T-3", lat=20.0, lon=20.0, servers=1),
        ])
        # Larger region first, then the earlier one in list order.
        assert platform.route("AA").region_id == "T-1"

    @pytest.mark.parametrize("north_first", [True, False])
    @pytest.mark.parametrize("servers", [(4, 4), (4, 7), (7, 4)])
    def test_equal_latitude_gaps(self, north_first, servers):
        regions = []
        for iso2, lat, lon in [("AA", 0.0, 0.0), ("AB", 10.0, 179.5),
                               ("AC", -45.0, -179.5), ("AG", 32.0, -180.0)]:
            north = region(f"{iso2}-N", lat=lat + 2.5, lon=lon,
                           servers=servers[0])
            south = region(f"{iso2}-S", lat=lat - 2.5, lon=lon,
                           servers=servers[1])
            regions += [north, south] if north_first else [south, north]
        platform = self.assert_routes_match(regions)
        north_wins = servers[0] > servers[1] or (
            servers[0] == servers[1] and north_first
        )
        assert platform.route("AA").region_id == (
            "AA-N" if north_wins else "AA-S"
        )
