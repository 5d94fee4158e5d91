"""The IPv4 scan (section 4's Scan dataset methodology).

The paper scanned the IPv4 space at 25K qps with hostnames encoding the
probed address, so the experimental authoritative server could associate
each open ingress resolver with the egress resolver(s) that contacted it.
Queries are sent *without* ECS, since open forwarders are mostly home
routers that may mishandle unknown options.

:class:`Scanner` runs the same campaign against a
:class:`~repro.datasets.scan_dataset.ScanUniverse` and assembles the Scan
dataset records from the experiment server's log.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from ..auth.scan_experiment import ScanQueryRecord, encode_probe_name
from ..datasets.scan_dataset import ScanUniverse
from ..dnslib import RecordType
from ..faults.retry import RetryPolicy
from ..obs import trace as _obs_trace
from .digclient import StubClient


@dataclass
class ScanResult:
    """Everything the scan produced."""

    records: List[ScanQueryRecord]
    responding_ingress: Set[str]
    ecs_ingress: Set[str]
    ecs_egress: Set[str]

    def records_by_egress(self) -> Dict[str, List[ScanQueryRecord]]:
        out: Dict[str, List[ScanQueryRecord]] = {}
        for r in self.records:
            out.setdefault(r.egress_ip, []).append(r)
        return out


class Scanner:
    """Drives the scan from a single vantage machine."""

    def __init__(self, universe: ScanUniverse,
                 retry_policy: Optional[RetryPolicy] = None):
        self.universe = universe
        # Default policy: one shot per ingress, like the paper's scan.
        # Chaos mode passes a retrying policy so campaigns stay useful
        # under injected loss.
        self.client = StubClient(universe.scanner_ip, universe.net,
                                 retry_policy=retry_policy)

    def scan(self, ingress_ips: Optional[Sequence[str]] = None) -> ScanResult:
        """Probe every ingress once; harvest the authoritative's log."""
        universe = self.universe
        targets = list(ingress_ips if ingress_ips is not None
                       else universe.forwarder_ips)
        start_index = len(universe.experiment_server.observations)
        responding: Set[str] = set()
        tracer = _obs_trace.ACTIVE
        with (tracer.span("scan", targets=len(targets)) if tracer is not None
              else nullcontext()):
            for ingress_ip in targets:
                qname = encode_probe_name(ingress_ip, universe.domain)
                # The probe carries no ECS and asks for an A record, as
                # the paper's scan did.
                result = self.client.query(ingress_ip, qname, RecordType.A,
                                           use_edns=False)
                if result.response is not None and result.addresses:
                    responding.add(ingress_ip)
                universe.net.clock.advance(1.0 / 25_000)  # 25k queries/s

        records = universe.experiment_server.observations[start_index:]
        ecs_ingress: Set[str] = set()
        ecs_egress: Set[str] = set()
        for obs in records:
            if obs.has_ecs:
                ecs_egress.add(obs.egress_ip)
                if obs.ingress_ip:
                    ecs_ingress.add(obs.ingress_ip)
        return ScanResult(records, responding, ecs_ingress, ecs_egress)
