"""Geography: cities, great-circle distances, and a prefix geolocation DB.

The paper geolocates resolvers and forwarders with Akamai EdgeScape and uses
distances (Figs 4, 5) and RTTs (Tables 2, Figs 6, 7) to judge mapping
quality.  We substitute a deterministic model: a registry of real-world
cities with coordinates, and :class:`GeoDatabase`, a longest-prefix-match
IP-to-location database playing the role of EdgeScape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple, Union

from ..addr import MASKS4, MASKS6, IPNetwork, parse_addr, parse_network

EARTH_RADIUS_KM = 6371.0


@dataclass(frozen=True)
class GeoPoint:
    """A point on the globe (degrees)."""

    lat: float
    lon: float

    def distance_km(self, other: "GeoPoint") -> float:
        """Great-circle distance via the haversine formula."""
        return haversine_km(self.lat, self.lon, other.lat, other.lon)


@lru_cache(maxsize=4096)
def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two lat/lon pairs, in kilometres.

    Memoised: every datagram asks for the distance between two of the
    registry's cities, a few thousand pairs at most.
    """
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = (math.sin(dphi / 2) ** 2
         + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2)
    return 2 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(a)))


@dataclass(frozen=True)
class City:
    """A named location entities can be placed at."""

    name: str
    country: str
    point: GeoPoint

    def distance_km(self, other: "City") -> float:
        return self.point.distance_km(other.point)


def _c(name: str, country: str, lat: float, lon: float) -> City:
    return City(name, country, GeoPoint(lat, lon))


#: World cities used to place clients, resolvers and CDN edges.  The set
#: deliberately includes the locations named in the paper (Cleveland,
#: Chicago, Mountain View, Zurich, Johannesburg, Santiago, Beijing,
#: Shanghai, Guangzhou, Toronto, ...).
WORLD_CITIES: Tuple[City, ...] = (
    _c("Cleveland", "US", 41.50, -81.69),
    _c("Chicago", "US", 41.88, -87.63),
    _c("New York", "US", 40.71, -74.01),
    _c("Ashburn", "US", 39.04, -77.49),
    _c("Miami", "US", 25.76, -80.19),
    _c("Dallas", "US", 32.78, -96.80),
    _c("Denver", "US", 39.74, -104.99),
    _c("Seattle", "US", 47.61, -122.33),
    _c("Los Angeles", "US", 34.05, -118.24),
    _c("Mountain View", "US", 37.39, -122.08),
    _c("Toronto", "CA", 43.65, -79.38),
    _c("Montreal", "CA", 45.50, -73.57),
    _c("Mexico City", "MX", 19.43, -99.13),
    _c("Sao Paulo", "BR", -23.55, -46.63),
    _c("Buenos Aires", "AR", -34.60, -58.38),
    _c("Santiago", "CL", -33.45, -70.67),
    _c("Bogota", "CO", 4.71, -74.07),
    _c("London", "GB", 51.51, -0.13),
    _c("Paris", "FR", 48.86, 2.35),
    _c("Frankfurt", "DE", 50.11, 8.68),
    _c("Amsterdam", "NL", 52.37, 4.90),
    _c("Zurich", "CH", 47.37, 8.54),
    _c("Milan", "IT", 45.46, 9.19),
    _c("Madrid", "ES", 40.42, -3.70),
    _c("Stockholm", "SE", 59.33, 18.07),
    _c("Warsaw", "PL", 52.23, 21.01),
    _c("Moscow", "RU", 55.76, 37.62),
    _c("Istanbul", "TR", 41.01, 28.98),
    _c("Dubai", "AE", 25.20, 55.27),
    _c("Johannesburg", "ZA", -26.20, 28.05),
    _c("Cape Town", "ZA", -33.92, 18.42),
    _c("Lagos", "NG", 6.52, 3.38),
    _c("Nairobi", "KE", -1.29, 36.82),
    _c("Mumbai", "IN", 19.08, 72.88),
    _c("Delhi", "IN", 28.61, 77.21),
    _c("Chennai", "IN", 13.08, 80.27),
    _c("Singapore", "SG", 1.35, 103.82),
    _c("Jakarta", "ID", -6.21, 106.85),
    _c("Bangkok", "TH", 13.76, 100.50),
    _c("Hong Kong", "HK", 22.32, 114.17),
    _c("Taipei", "TW", 25.03, 121.57),
    _c("Manila", "PH", 14.60, 120.98),
    _c("Beijing", "CN", 39.90, 116.41),
    _c("Shanghai", "CN", 31.23, 121.47),
    _c("Guangzhou", "CN", 23.13, 113.26),
    _c("Chengdu", "CN", 30.57, 104.07),
    _c("Seoul", "KR", 37.57, 126.98),
    _c("Tokyo", "JP", 35.68, 139.69),
    _c("Osaka", "JP", 34.69, 135.50),
    _c("Sydney", "AU", -33.87, 151.21),
    _c("Melbourne", "AU", -37.81, 144.96),
    _c("Auckland", "NZ", -36.85, 174.76),
)

_CITIES_BY_NAME: Dict[str, City] = {c.name: c for c in WORLD_CITIES}


def city(name: str) -> City:
    """Look a city up by name; raises ``KeyError`` for unknown names."""
    return _CITIES_BY_NAME[name]


class GeoDatabase:
    """Longest-prefix-match IP geolocation (the EdgeScape substitute).

    Entries map a network prefix to a :class:`City`.  Lookups walk prefix
    lengths from most to least specific, so a /24 placement overrides the
    covering /16's.
    """

    def __init__(self) -> None:
        #: Per address version, one ``(prefix length, {network: city})``
        #: pair per registered length, longest prefix first.
        self._tables: Dict[int, List[Tuple[int, Dict[int, City]]]] = \
            {4: [], 6: []}

    def add(self, network: Union[str, IPNetwork], location: City) -> None:
        """Register ``network`` as located in ``location``."""
        self.add_int(*parse_network(network), location)

    def add_int(self, version: int, value: int, prefixlen: int,
                location: City) -> None:
        """:meth:`add` for the network whose address is the integer
        ``value`` (host bits clear) and whose length is ``prefixlen``."""
        tables = self._tables[version]
        for length, table in tables:
            if length == prefixlen:
                break
        else:
            table = {}
            tables.append((prefixlen, table))
            tables.sort(key=lambda pair: pair[0], reverse=True)
        table[value] = location

    def locate(self, address: str) -> Optional[City]:
        """The most specific location covering ``address``, or ``None``."""
        version, value = parse_addr(address)
        masks = MASKS4 if version == 4 else MASKS6
        for length, table in self._tables[version]:
            hit = table.get(value & masks[length])
            if hit is not None:
                return hit
        return None

    def distance_km(self, addr_a: str, addr_b: str) -> Optional[float]:
        """Great-circle distance between two addresses, if both geolocate."""
        a, b = self.locate(addr_a), self.locate(addr_b)
        if a is None or b is None:
            return None
        return a.distance_km(b)

    def __len__(self) -> int:
        return sum(len(table) for tables in self._tables.values()
                   for _, table in tables)
