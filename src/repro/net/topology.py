"""Topology: autonomous systems, host placement, and address allocation.

The simulated Internet is a flat datagram fabric (see
:mod:`repro.net.transport`) plus this placement layer, which assigns every
entity an IP address inside an AS, places it in a city, and feeds the
geolocation database so distance- and RTT-based analyses work exactly like
the paper's EdgeScape-based ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..addr import AddressAllocator, address_text
from .clock import SimClock
from .geo import City, GeoDatabase
from .latency import DEFAULT_LATENCY

#: IPv4 space carved up among simulated ASes (public, non-special ranges).
V4_SUPERNET = "16.0.0.0/4"
#: IPv6 space for simulated ASes.
V6_SUPERNET = "2600::/16"
#: Entries in a topology's per-pair distance table (a 986-probe scan
#: unit fills 2,719); a full table is cleared wholesale, like the codec
#: tables, which only costs recomputing.
_DISTANCE_TABLE_MAX = 4096


@dataclass
class _CityBlock:
    """Allocation state for one (AS, city) pair."""

    network: int  # the integer of the current subnet's network address
    next_host: int = 1  # skip .0 (network address)


class AutonomousSystem:
    """One AS: a number, a home country, address space, and host placement."""

    def __init__(self, asn: int, name: str, country: str,
                 topology: "Topology", v4_supernet, v6_supernet):
        self.asn = asn
        self.name = name
        self.country = country
        self._topology = topology
        self._v4 = AddressAllocator(v4_supernet)
        self._v6 = AddressAllocator(v6_supernet)
        self._city_blocks: Dict[str, _CityBlock] = {}
        self._v6_city_blocks: Dict[str, _CityBlock] = {}

    def _allocate(self, alloc: AddressAllocator, city: City,
                  prefixlen: int) -> int:
        """Allocate a subnet geolocated at ``city``; return its integer."""
        value = alloc.allocate(prefixlen)
        self._topology.geo.add_int(alloc.version, value, prefixlen, city)
        return value

    def _place(self, city: City, blocks: Dict[str, _CityBlock],
               alloc: AddressAllocator, prefixlen: int, hosts: int,
               fresh: bool = False) -> str:
        """Place one host in ``city``'s current block, or in a new
        ``/prefixlen`` when the block is at ``hosts`` or ``fresh`` is set."""
        block = blocks.get(city.name)
        if fresh or block is None or block.next_host >= hosts:
            block = blocks[city.name] = _CityBlock(
                self._allocate(alloc, city, prefixlen))
        ip = address_text(alloc.version, block.network + block.next_host)
        block.next_host += 1
        self._topology.host_as[ip] = self
        self._topology.host_city[ip] = city
        return ip

    def host_in(self, city: City) -> str:
        """Place one IPv4 host in ``city``; /24s are allocated on demand."""
        return self._place(city, self._city_blocks, self._v4, 24, 255)

    def host_in_new_subnet(self, city: City) -> str:
        """Place an IPv4 host in ``city`` in a *fresh* /24.

        The caching-behavior experiments (section 6.3) need pairs of
        forwarders in different /24s sharing a /16; since an AS's /24s all
        come from its own /16 slice, two calls to this method give exactly
        that structure.
        """
        return self._place(city, self._city_blocks, self._v4, 24, 255,
                           fresh=True)

    def host6_in(self, city: City) -> str:  # repro-lint: disable=RS008 (the one IPv6 host placement; no dataset places v6 clients yet)
        """Place one IPv6 host in ``city``; /48s are allocated on demand."""
        return self._place(city, self._v6_city_blocks, self._v6, 48,
                           1 << 16)

    def __repr__(self) -> str:
        return f"AS{self.asn}({self.name!r}, {self.country})"


class Topology:
    """The placement layer: ASes, the geo database, clock and latency model."""

    def __init__(self):
        self.clock = SimClock()
        self.latency = DEFAULT_LATENCY
        self.geo = GeoDatabase()
        self.host_as: Dict[str, AutonomousSystem] = {}
        self.host_city: Dict[str, City] = {}
        #: (src, dst) -> great-circle km, for pairs whose two ends are
        #: both placed: a placement never moves, while the geo DB a
        #: fallback reads can gain entries later.
        self._distances: Dict[Tuple[str, str], float] = {}
        self._ases: Dict[int, AutonomousSystem] = {}
        self._v4_pool = AddressAllocator(V4_SUPERNET)
        self._v6_pool = AddressAllocator(V6_SUPERNET)
        self._asn_counter = itertools.count(64500)

    def create_as(self, name: str, country: str,
                  asn: Optional[int] = None,
                  v4_prefixlen: int = 16) -> AutonomousSystem:
        """Register a new AS with its own slice of address space."""
        if asn is None:
            asn = next(self._asn_counter)
        if asn in self._ases:
            raise ValueError(f"AS{asn} already registered")
        as_ = AutonomousSystem(asn, name, country, self,
                               self._v4_pool.subnet(v4_prefixlen),
                               self._v6_pool.subnet(32))
        self._ases[asn] = as_
        return as_

    def ases(self) -> List[AutonomousSystem]:
        return list(self._ases.values())

    def city_of(self, ip: str) -> Optional[City]:
        """Where ``ip`` was placed (exact), falling back to the geo DB."""
        hit = self.host_city.get(ip)
        if hit is not None:
            return hit
        return self.geo.locate(ip)

    def distance_km(self, ip_a: str, ip_b: str) -> Optional[float]:
        """Great-circle distance between two hosts' locations."""
        a, b = self.city_of(ip_a), self.city_of(ip_b)
        if a is None or b is None:
            return None
        return a.distance_km(b)

    def rtt_ms(self, ip_a: str, ip_b: str, rng=None) -> float:
        """Model RTT between two hosts (2,000 km apart if one is unplaced).

        The jitter is drawn from ``rng`` on every call; only the distance
        of a pair of placed hosts is remembered.
        """
        pair = (ip_a, ip_b)
        dist = self._distances.get(pair)
        if dist is None:
            city_a = self.host_city.get(ip_a)
            city_b = self.host_city.get(ip_b)
            if city_a is not None and city_b is not None:
                dist = city_a.distance_km(city_b)
                if len(self._distances) >= _DISTANCE_TABLE_MAX:
                    self._distances.clear()
                self._distances[pair] = dist
            else:
                dist = self.distance_km(ip_a, ip_b)
                if dist is None:
                    dist = 2000.0
        return self.latency.rtt_ms(dist, rng)
