"""A RIPE-Atlas-like measurement platform (section 8.3's apparatus).

The paper selects 800 RIPE Atlas probe addresses (174 countries, 599 ASes),
queries CDN authoritative servers directly with ECS prefixes derived from
each probe's address at lengths 16–24, and then has each probe TCP-connect
to the first returned edge address three times, taking the median handshake
latency as the mapping-quality metric.

:class:`AtlasPlatform` reproduces the apparatus: probes are hosts placed in
world cities, and a "certificate download" is a modeled TCP handshake whose
latency comes from the shared RTT model.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from typing import List, Optional

from ..net.geo import WORLD_CITIES, City
from ..net.transport import Network


@dataclass
class AtlasProbe:
    """One measurement point."""

    ip: str
    city: City
    country: str
    asn: int

    def tcp_handshake_ms(self, net: Network, target_ip: str,
                         attempts: int = 3,
                         rng: Optional[random.Random] = None) -> float:
        """Median of ``attempts`` modeled TCP connects to ``target_ip``."""
        # Deterministic default: probe timing without an explicit rng is
        # part of the experiment identity, mirroring Network's fallback.
        rng = rng or random.Random(0)  # repro-lint: disable=RS005
        samples = [net.tcp_handshake_ms(self.ip, target_ip, rng)
                   for _ in range(attempts)]
        if attempts % 2:
            # The middle sample: what ``statistics.median`` returns for
            # an odd count, without its checks.
            samples.sort()
            return samples[attempts // 2]
        return statistics.median(samples)


class AtlasPlatform:
    """A deterministic population of probes spread across the world."""

    def __init__(self, net: Network, probe_count: int = 800, seed: int = 0):
        self.net = net
        rng = random.Random(seed)
        self.probes: List[AtlasProbe] = []
        # One eyeball AS per country keeps the AS count realistic while the
        # probes themselves spread over every city.
        ases = {}
        for i in range(probe_count):
            where = rng.choice(WORLD_CITIES)
            as_ = ases.get(where.country)
            if as_ is None:
                as_ = net.topology.create_as(f"AtlasNet-{where.country}",
                                             where.country)
                ases[where.country] = as_
            ip = as_.host_in(where)
            self.probes.append(AtlasProbe(ip, where, where.country, as_.asn))

    def countries(self) -> int:
        """Number of distinct countries covered."""
        return len({p.country for p in self.probes})

    def ases(self) -> int:
        """Number of distinct ASes covered."""
        return len({p.asn for p in self.probes})
