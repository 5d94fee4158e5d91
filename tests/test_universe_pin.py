"""One digest pins where the scan universe puts every host.

``ScanUniverseBuilder`` stands up the simulated open-resolver Internet
that the scan, the twin queries and the chaos campaigns all run against.
Its placement (which AS and city get which address, which /24 the geo
database maps where, in what order endpoints attach) is ground truth for
every analysis, so any change to how addresses are allocated must leave
it exactly as it is.  The digest below covers, for seeds {0, 1, 7, 13} ×
``ingress_count`` {40, 300, 800} and for ``MappingQualityLab.build``:

* the ASes (number, name, country, address space);
* ``chains`` and ``egress_specs``;
* every placed host as ip -> (asn, city);
* the geo tables in registration order;
* the ``Network`` endpoint order;
* MegaDNS's frontend and egress IPs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from repro.analysis.mapping_quality import MappingQualityLab
from repro.datasets.scan_dataset import ScanUniverseBuilder

SEEDS = (0, 1, 7, 13)
SIZES = (40, 300, 800)

UNIVERSE_PIN = \
    "737e8018c90e9ab3e5e08812c923da3f6e88bd23b892caabd779bd5e01dad18a"


def _placement(topology, net):
    return {
        "ases": [(a.asn, a.name, a.country, str(a._v4.supernet),
                  str(a._v6.supernet)) for a in topology.ases()],
        "hosts": [(ip, a.asn, topology.host_city[ip].name)
                  for ip, a in topology.host_as.items()],
        "host_city_order": list(topology.host_city),
        "geo": [(version, length, [(value, c.name)
                                   for value, c in table.items()])
                for version, tables in sorted(topology.geo._tables.items())
                for length, table in tables],
        "endpoints": [(ip, type(ep).__name__)
                      for ip, ep in net._endpoints.items()],
    }


def _universe_doc(seed, size):
    universe = ScanUniverseBuilder(seed=seed, ingress_count=size).build()
    doc = _placement(universe.topology, universe.net)
    doc.update(
        chains=[dataclasses.astuple(c) for c in universe.chains],
        egress_specs=[dataclasses.astuple(s) for s in universe.egress_specs],
        megadns=[universe.megadns.frontend_ips, universe.megadns.egress_ips],
        scanner=universe.scanner_ip)
    return doc


def _lab_doc():
    lab = MappingQualityLab.build(probe_count=200, seed=0)
    doc = _placement(lab.topology, lab.net)
    doc.update(lab=lab.lab_ip, probes=[p.ip for p in lab.atlas.probes],
               cdn=[lab.cdn1.ip, lab.cdn2.ip])
    return doc


def universe_digest():
    digest = hashlib.sha256()
    for seed in SEEDS:
        for size in SIZES:
            digest.update(json.dumps(_universe_doc(seed, size)).encode())
    digest.update(json.dumps(_lab_doc()).encode())
    return digest.hexdigest()


def test_universe_placement_is_pinned():
    assert universe_digest() == UNIVERSE_PIN
