"""Geography: continents, countries, subscribers, coordinates.

Country records carry ITU-style mobile subscription counts (Table 8
divides demand by subscribers) and a representative coordinate
(capital / largest city) used by the DNS resolver-distance analysis
(the Fortaleza vs Sao Paulo case in section 6.3).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional


class Continent(enum.Enum):
    """The six continents the paper aggregates over."""

    AFRICA = "AF"
    ASIA = "AS"
    EUROPE = "EU"
    NORTH_AMERICA = "NA"
    OCEANIA = "OC"
    SOUTH_AMERICA = "SA"


#: Human-readable continent names, keyed by enum.
CONTINENT_NAMES = {
    Continent.AFRICA: "Africa",
    Continent.ASIA: "Asia",
    Continent.EUROPE: "Europe",
    Continent.NORTH_AMERICA: "North America",
    Continent.OCEANIA: "Oceania",
    Continent.SOUTH_AMERICA: "South America",
}


@dataclass(frozen=True)
class Country:
    """One country: ISO code, continent, subscribers, coordinate."""

    iso2: str
    name: str
    continent: Continent
    #: Mobile-cellular subscriptions, millions (ITU-style; includes voice).
    subscribers_m: float
    latitude: float
    longitude: float

    def __post_init__(self) -> None:
        if len(self.iso2) != 2 or not self.iso2.isupper():
            raise ValueError(f"country code must be ISO alpha-2: {self.iso2!r}")
        if self.subscribers_m < 0:
            raise ValueError("subscribers must be non-negative")
        if not -90 <= self.latitude <= 90 or not -180 <= self.longitude <= 180:
            raise ValueError(f"bad coordinate for {self.iso2}")


#: Mean Earth radius used by :func:`haversine_km`.
EARTH_RADIUS_KM = 6371.0


def haversine_km(
    lat1: float, lon1: float, lat2: float, lon2: float
) -> float:
    """Great-circle distance between two coordinates, in kilometres."""
    radius_km = EARTH_RADIUS_KM
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlambda = math.radians(lon2 - lon1)
    a = (
        math.sin(dphi / 2) ** 2
        + math.cos(phi1) * math.cos(phi2) * math.sin(dlambda / 2) ** 2
    )
    return 2 * radius_km * math.asin(math.sqrt(a))


class Geography:
    """Registry of countries with continent-level aggregation."""

    def __init__(self, countries: Iterable[Country]) -> None:
        self._by_iso: Dict[str, Country] = {}
        for country in countries:
            if country.iso2 in self._by_iso:
                raise ValueError(f"duplicate country {country.iso2}")
            self._by_iso[country.iso2] = country

    def __len__(self) -> int:
        return len(self._by_iso)

    def __contains__(self, iso2: str) -> bool:
        return iso2 in self._by_iso

    def __iter__(self):
        return iter(self._by_iso.values())

    def get(self, iso2: str) -> Country:
        return self._by_iso[iso2]

    def find(self, iso2: str) -> Optional[Country]:
        return self._by_iso.get(iso2)

    def continent_of(self, iso2: str) -> Continent:
        return self._by_iso[iso2].continent

    def by_continent(self, continent: Continent) -> List[Country]:
        return [c for c in self._by_iso.values() if c.continent is continent]

    def subscribers_by_continent(self) -> Dict[Continent, float]:
        """Total subscribers (millions) per continent."""
        totals: Dict[Continent, float] = {c: 0.0 for c in Continent}
        for country in self._by_iso.values():
            totals[country.continent] += country.subscribers_m
        return totals

    def distance_km(self, iso_a: str, iso_b: str) -> float:
        """Distance between the representative points of two countries."""
        a, b = self._by_iso[iso_a], self._by_iso[iso_b]
        return haversine_km(a.latitude, a.longitude, b.latitude, b.longitude)


# (iso2, name, continent, subscribers_m, lat, lon)
# Subscriber counts approximate ITU 2016 statistics; coordinates are
# capitals / largest cities.
_COUNTRY_TABLE = [
    # North America
    ("US", "United States", Continent.NORTH_AMERICA, 396.0, 38.9, -77.0),
    ("CA", "Canada", Continent.NORTH_AMERICA, 30.5, 45.4, -75.7),
    ("MX", "Mexico", Continent.NORTH_AMERICA, 111.7, 19.4, -99.1),
    ("GT", "Guatemala", Continent.NORTH_AMERICA, 19.3, 14.6, -90.5),
    ("PR", "Puerto Rico", Continent.NORTH_AMERICA, 3.2, 18.4, -66.1),
    ("PA", "Panama", Continent.NORTH_AMERICA, 4.7, 9.0, -79.5),
    ("DO", "Dominican Republic", Continent.NORTH_AMERICA, 8.9, 18.5, -69.9),
    ("CR", "Costa Rica", Continent.NORTH_AMERICA, 8.0, 9.9, -84.1),
    ("SV", "El Salvador", Continent.NORTH_AMERICA, 9.9, 13.7, -89.2),
    ("HN", "Honduras", Continent.NORTH_AMERICA, 7.8, 14.1, -87.2),
    # Europe
    ("GB", "United Kingdom", Continent.EUROPE, 92.0, 51.5, -0.1),
    ("RU", "Russia", Continent.EUROPE, 229.1, 55.8, 37.6),
    ("FR", "France", Continent.EUROPE, 67.0, 48.9, 2.4),
    ("DE", "Germany", Continent.EUROPE, 106.0, 52.5, 13.4),
    ("IT", "Italy", Continent.EUROPE, 85.0, 41.9, 12.5),
    ("ES", "Spain", Continent.EUROPE, 51.0, 40.4, -3.7),
    ("PL", "Poland", Continent.EUROPE, 55.9, 52.2, 21.0),
    ("FI", "Finland", Continent.EUROPE, 7.3, 60.2, 24.9),
    ("NL", "Netherlands", Continent.EUROPE, 21.0, 52.4, 4.9),
    ("SE", "Sweden", Continent.EUROPE, 12.5, 59.3, 18.1),
    ("CZ", "Czechia", Continent.EUROPE, 13.1, 50.1, 14.4),
    ("RO", "Romania", Continent.EUROPE, 22.9, 44.4, 26.1),
    ("CH", "Switzerland", Continent.EUROPE, 11.2, 46.9, 7.4),
    ("AT", "Austria", Continent.EUROPE, 14.3, 48.2, 16.4),
    ("BE", "Belgium", Continent.EUROPE, 12.8, 50.9, 4.4),
    ("NO", "Norway", Continent.EUROPE, 5.7, 59.9, 10.8),
    ("PT", "Portugal", Continent.EUROPE, 11.6, 38.7, -9.1),
    ("GR", "Greece", Continent.EUROPE, 12.2, 38.0, 23.7),
    ("IE", "Ireland", Continent.EUROPE, 4.8, 53.3, -6.3),
    ("UA", "Ukraine", Continent.EUROPE, 60.7, 50.5, 30.5),
    # South America
    ("BR", "Brazil", Continent.SOUTH_AMERICA, 244.1, -23.6, -46.6),
    ("CO", "Colombia", Continent.SOUTH_AMERICA, 58.7, 4.7, -74.1),
    ("AR", "Argentina", Continent.SOUTH_AMERICA, 64.0, -34.6, -58.4),
    ("BO", "Bolivia", Continent.SOUTH_AMERICA, 10.1, -16.5, -68.1),
    ("EC", "Ecuador", Continent.SOUTH_AMERICA, 14.1, -0.2, -78.5),
    ("CL", "Chile", Continent.SOUTH_AMERICA, 23.0, -33.4, -70.7),
    ("VE", "Venezuela", Continent.SOUTH_AMERICA, 27.9, 10.5, -66.9),
    ("PE", "Peru", Continent.SOUTH_AMERICA, 37.7, -12.0, -77.0),
    ("UY", "Uruguay", Continent.SOUTH_AMERICA, 5.0, -34.9, -56.2),
    ("PY", "Paraguay", Continent.SOUTH_AMERICA, 7.3, -25.3, -57.6),
    # Africa
    ("EG", "Egypt", Continent.AFRICA, 97.8, 30.0, 31.2),
    ("ZA", "South Africa", Continent.AFRICA, 87.0, -26.2, 28.0),
    ("DZ", "Algeria", Continent.AFRICA, 47.0, 36.8, 3.1),
    ("TN", "Tunisia", Continent.AFRICA, 14.3, 36.8, 10.2),
    ("NG", "Nigeria", Continent.AFRICA, 154.0, 9.1, 7.5),
    ("GH", "Ghana", Continent.AFRICA, 38.3, 5.6, -0.2),
    ("CI", "Cote d'Ivoire", Continent.AFRICA, 27.4, 5.3, -4.0),
    ("CM", "Cameroon", Continent.AFRICA, 18.7, 3.9, 11.5),
    ("MA", "Morocco", Continent.AFRICA, 41.5, 34.0, -6.8),
    ("GN", "Guinea", Continent.AFRICA, 10.8, 9.6, -13.6),
    ("KE", "Kenya", Continent.AFRICA, 38.5, -1.3, 36.8),
    # Asia
    ("IN", "India", Continent.ASIA, 1127.8, 28.6, 77.2),
    ("JP", "Japan", Continent.ASIA, 164.3, 35.7, 139.7),
    ("ID", "Indonesia", Continent.ASIA, 385.6, -6.2, 106.8),
    ("TW", "Taiwan", Continent.ASIA, 28.7, 25.0, 121.6),
    ("TH", "Thailand", Continent.ASIA, 116.3, 13.8, 100.5),
    ("AE", "United Arab Emirates", Continent.ASIA, 19.9, 24.5, 54.4),
    ("IR", "Iran", Continent.ASIA, 80.0, 35.7, 51.4),
    ("TR", "Turkey", Continent.ASIA, 75.1, 39.9, 32.9),
    ("SG", "Singapore", Continent.ASIA, 8.4, 1.3, 103.8),
    ("KR", "South Korea", Continent.ASIA, 61.3, 37.6, 127.0),
    ("VN", "Vietnam", Continent.ASIA, 120.6, 21.0, 105.9),
    ("HK", "Hong Kong", Continent.ASIA, 17.4, 22.3, 114.2),
    ("PH", "Philippines", Continent.ASIA, 113.0, 14.6, 121.0),
    ("MY", "Malaysia", Continent.ASIA, 43.9, 3.1, 101.7),
    ("SA", "Saudi Arabia", Continent.ASIA, 47.9, 24.7, 46.7),
    ("LA", "Laos", Continent.ASIA, 3.7, 17.9, 102.6),
    ("MM", "Myanmar", Continent.ASIA, 48.8, 16.8, 96.2),
    ("CN", "China", Continent.ASIA, 1364.9, 39.9, 116.4),
    # Oceania
    ("AU", "Australia", Continent.OCEANIA, 26.5, -33.9, 151.2),
    ("NZ", "New Zealand", Continent.OCEANIA, 5.8, -36.8, 174.8),
    ("FJ", "Fiji", Continent.OCEANIA, 1.1, -18.1, 178.4),
    ("GU", "Guam", Continent.OCEANIA, 0.2, 13.5, 144.8),
    ("NC", "New Caledonia", Continent.OCEANIA, 0.3, -22.3, 166.4),
    ("WS", "Samoa", Continent.OCEANIA, 0.2, -13.8, -171.8),
    ("PF", "French Polynesia", Continent.OCEANIA, 0.3, -17.5, -149.6),
    ("PG", "Papua New Guinea", Continent.OCEANIA, 4.0, -9.4, 147.2),
    ("TL", "Timor-Leste", Continent.OCEANIA, 1.4, -8.6, 125.6),
    ("SB", "Solomon Islands", Continent.OCEANIA, 0.4, -9.4, 160.0),
]


def default_geography() -> Geography:
    """The built-in geography used by the default world."""
    return Geography(Country(*row) for row in _COUNTRY_TABLE)
