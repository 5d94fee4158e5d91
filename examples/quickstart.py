#!/usr/bin/env python3
"""Quickstart: build a tiny Internet, resolve names with ECS, inspect
everything the paper cares about.

Run:  python examples/quickstart.py

Walks through the library bottom-up:
 1. craft a DNS query with an ECS option and round-trip it through the
    wire codec;
 2. stand up a delegation hierarchy, a static zone, and a CDN whose
    authoritative server uses ECS for proximity mapping;
 3. resolve through a compliant recursive resolver and watch the ECS
    scope control the cache.
"""

from repro import (EcsOption, Message, Name, RecordType, Zone,
                   decode_message, encode_message)
from repro.auth import CdnAuthoritative, DnsHierarchy, build_edge_pools
from repro.measure import StubClient
from repro.net import Network, Topology, city
from repro.resolvers import RecursiveResolver


def wire_format_demo() -> None:
    print("=== 1. Wire format and the ECS option ===")
    ecs = EcsOption.from_client_address("198.51.77.9")  # truncates to /24
    query = Message.make_query(Name.from_text("www.example.com"),
                               RecordType.A, msg_id=1, ecs=ecs)
    wire = encode_message(query)
    print(f"query encodes to {len(wire)} bytes")
    decoded = decode_message(wire)
    print(f"decoded ECS option: {decoded.ecs()}")
    print()


def build_world():
    topology = Topology()
    net = Network(topology)
    infra = topology.create_as("infra", "US")
    hierarchy = DnsHierarchy(net, infra)

    # A static zone, delegated from .com.
    zone = Zone(Name.from_text("example.com"))
    zone.add_soa()
    zone.add_text("www", "A", "93.184.216.34")
    hierarchy.host_zone(zone, city("Ashburn"))

    # A CDN with edges on four continents; its authoritative server maps
    # clients to the nearest edge using the ECS client subnet.
    cdn_as = topology.create_as("cdn", "US")
    pools = build_edge_pools(topology, cdn_as,
                             [city("Chicago"), city("Frankfurt"),
                              city("Singapore"), city("Sao Paulo")])
    cdn_ip = cdn_as.host_in(city("Ashburn"))
    cdn = CdnAuthoritative(cdn_ip, [Name.from_text("cdn.example.")],
                           pools, topology)
    net.attach(cdn)
    hierarchy.attach_authoritative(Name.from_text("cdn.example."), cdn_ip)

    # A compliant recursive resolver and two clients in Cleveland.
    isp = topology.create_as("isp", "US")
    resolver_ip = isp.host_in(city("Cleveland"))
    resolver = RecursiveResolver(resolver_ip, topology.clock,
                                 hierarchy.root_ips)
    net.attach(resolver)
    return net, topology, isp, resolver, cdn, resolver_ip


def main() -> None:
    wire_format_demo()

    net, topology, isp, resolver, cdn, resolver_ip = build_world()
    client_ip = isp.host_in(city("Cleveland"))
    client = StubClient(client_ip, net)

    print("=== 2. Recursive resolution over the hierarchy ===")
    result = client.query(resolver_ip, "www.example.com")
    print(f"www.example.com -> {result.addresses} "
          f"in {result.elapsed_ms:.1f} ms (virtual)")
    print()

    print("=== 3. ECS-driven CDN mapping and scope-keyed caching ===")
    result = client.query(resolver_ip, "video.cdn.example")
    decision = cdn.last_decision
    print(f"client {client_ip} (Cleveland) mapped to edge pool in "
          f"{decision.pool.city.name} via hint source '{decision.hint_source}'")

    # A second client in the same /24 hits the resolver cache...
    sibling = client_ip.rsplit(".", 1)[0] + ".200"
    before = cdn.queries_received
    StubClient(sibling, net).query(resolver_ip, "video.cdn.example")
    print(f"same-/24 client: cache hit (CDN queried "
          f"{cdn.queries_received - before} more times)")

    # ...while a client in Tokyo misses (scope /24) and maps elsewhere.
    tokyo_client = isp.host_in(city("Tokyo"))
    before = cdn.queries_received
    StubClient(tokyo_client, net).query(resolver_ip, "video.cdn.example")
    decision = cdn.last_decision
    print(f"Tokyo client: cache miss ({cdn.queries_received - before} new "
          f"CDN query), mapped to {decision.pool.city.name}")
    print()
    print(f"resolver cache stats: {resolver.cache.stats}")


if __name__ == "__main__":
    main()
