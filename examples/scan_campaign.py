#!/usr/bin/env python3
"""Run the paper's active-measurement campaign end to end.

Run:  python examples/scan_campaign.py

Builds a simulated open-resolver ecosystem (the Scan universe), scans it
with IP-encoding hostnames exactly as section 4 describes, then runs the
section 5/6/8.2 analyses on the harvested records:

 * discovery: passive (CDN-side) vs active (scan) ECS resolver counts;
 * Table 1: source prefix lengths, with jammed-last-byte detection;
 * section 6.3: the twin-query caching-behavior experiment;
 * section 8.2: hidden resolver discovery and the Fig 4/5 distance split.
"""

from repro.analysis import (analyze_caching_behavior, analyze_discovery,
                            analyze_hidden_resolvers, build_table1,
                            summarize_scan)
from repro.datasets import ScanUniverseBuilder
from repro.engine.seeding import world_seed
from repro.measure import Scanner


def main() -> None:
    print("building the scan universe (forwarders, hidden resolvers, "
          "egress mix, MegaDNS)...")
    universe = ScanUniverseBuilder(seed=7, ingress_count=400).build()
    print(f"  {len(universe.chains)} ingress chains, "
          f"{len(universe.egress_specs)} non-MegaDNS egress resolvers, "
          f"{len(universe.megadns.egress_ips)} MegaDNS egress IPs")

    print("\nscanning every open ingress resolver once "
          "(no ECS in probes, per the paper)...")
    result = Scanner(universe).scan()
    print(summarize_scan(result))

    print()
    print(analyze_discovery(universe, result,
                            world_seed(7, "analysis.discovery")).report())

    print()
    table1 = build_table1(scan_result=result)
    print(table1.report())

    print("\nrunning the section 6.3 twin-query caching experiment...")
    caching = analyze_caching_behavior(universe)
    print(caching.report())

    print("\nhunting hidden resolvers (section 8.2)...")
    hidden = analyze_hidden_resolvers(universe, result)
    print(hidden.report())

    worst = max(hidden.combinations,
                key=lambda c: c.f_h_km - c.f_r_km, default=None)
    if worst is not None and worst.f_h_km > worst.f_r_km:
        print(f"\nworst pathological combination: forwarder "
              f"{worst.forwarder_ip} sits {worst.f_r_km:.0f} km from its "
              f"egress but the ECS-advertised hidden prefix "
              f"{worst.hidden_prefix} is {worst.f_h_km:.0f} km away — "
              "ECS as an obstacle, exactly the Santiago/Italy case.")


if __name__ == "__main__":
    main()
