"""Simulated internet: virtual time, geography, addressing, transport."""

from ..addr import (AddressAllocator, host_in, is_routable, parse_addr,
                    prefix_key_int, same_prefix, truncate_int)
from .clock import SimClock
from .geo import (WORLD_CITIES, City, GeoDatabase, GeoPoint, city,
                  haversine_km)
from .latency import DEFAULT_LATENCY, LatencyModel
from .topology import AutonomousSystem, Topology
from .transport import (Endpoint, FaultAction, FaultInjector, Network,
                        NetworkStats, QueryOutcome)

__all__ = [
    "AddressAllocator", "AutonomousSystem", "City", "DEFAULT_LATENCY",
    "Endpoint", "FaultAction", "FaultInjector", "GeoDatabase", "GeoPoint",
    "LatencyModel", "Network",
    "NetworkStats", "QueryOutcome", "SimClock", "Topology", "WORLD_CITIES",
    "city", "haversine_km", "host_in",
    "is_routable", "parse_addr", "prefix_key_int", "same_prefix",
    "truncate_int",
]
