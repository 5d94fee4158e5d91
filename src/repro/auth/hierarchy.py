"""Root/TLD delegation hierarchy.

Gives the simulated Internet a real DNS tree: a root zone delegating TLDs,
TLD zones delegating second-level zones, all served by
:class:`~repro.auth.server.AuthoritativeServer` instances attached to the
network fabric.  Recursive resolvers perform genuine iterative resolution
over this hierarchy, following referrals from the root down.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..dnslib import A, NS, Name, RecordType, Zone
from ..net.geo import City, city
from ..net.topology import AutonomousSystem
from ..net.transport import Network
from .server import AuthoritativeServer


class DnsHierarchy:
    """Builds and tracks the delegation tree."""

    def __init__(self, net: Network, infra_as: AutonomousSystem):
        self.net = net
        self.infra_as = infra_as
        #: Where the root, the TLD servers and unplaced zones are hosted.
        self._root_city = city("Ashburn")
        self.root_zone = Zone(Name.root(), default_ttl=86400)
        self.root_zone.add_soa()
        root_ip = infra_as.host_in(self._root_city)
        self.root_server = AuthoritativeServer(root_ip, [self.root_zone])
        net.attach(self.root_server)
        #: Root hints for recursive resolvers.
        self.root_ips: List[str] = [root_ip]
        self._tld_servers: Dict[Name, AuthoritativeServer] = {}
        self._tld_zones: Dict[Name, Zone] = {}

    # -- tree construction -----------------------------------------------------

    def _ensure_tld(self, tld: Name) -> Zone:
        zone = self._tld_zones.get(tld)
        if zone is not None:
            return zone
        zone = Zone(tld, default_ttl=86400)
        zone.add_soa()
        server_ip = self.infra_as.host_in(self._root_city)
        server = AuthoritativeServer(server_ip, [zone])
        self.net.attach(server)
        self._tld_servers[tld] = server
        self._tld_zones[tld] = zone
        ns_name = tld.child("ns1")
        self.root_zone.add(tld, RecordType.NS, NS(ns_name))
        self.root_zone.add(ns_name, RecordType.A, A(server_ip))
        return zone

    def delegate(self, zone_origin: Name, server_ips: Sequence[str]) -> None:
        """Delegate ``zone_origin`` from its TLD to the given servers.

        Adds NS records and glue in the parent zone.  ``zone_origin`` must
        be at least two labels deep (a second-level domain or below).
        """
        if len(zone_origin) < 2:
            raise ValueError(f"cannot delegate {zone_origin}: too shallow")
        _, tld = zone_origin.split(1)
        parent = self._ensure_tld(tld)
        for i, ip in enumerate(server_ips):
            ns_name = zone_origin.child(f"ns{i + 1}")
            parent.add(zone_origin, RecordType.NS, NS(ns_name))
            parent.add(ns_name, RecordType.A, A(ip))

    def host_zone(self, zone: Zone,
                  location: Optional[City] = None) -> AuthoritativeServer:
        """Spin up an authoritative server for ``zone`` and delegate to it."""
        where = location or self._root_city
        server_ip = self.infra_as.host_in(where)
        server = AuthoritativeServer(server_ip, [zone])
        self.net.attach(server)
        self.delegate(zone.origin, [server_ip])
        return server

    def attach_authoritative(self, origin: Name, server_ip: str) -> None:
        """Delegate ``origin`` to an already-attached server (e.g. a CDN)."""
        self.delegate(origin, [server_ip])
