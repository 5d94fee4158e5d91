"""The authors' experimental authoritative nameserver (Scan dataset).

Implements the scan methodology of section 4: hostnames encode the IPv4
address being probed (so the server can associate the *ingress* resolver a
query was sent to with the *egress* resolver that finally contacted the
authoritative server), every name under the experiment domain resolves, and
ECS queries are answered with scope ``source − 4`` while non-ECS queries get
no ECS option, per the RFC.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional

from ..addr import address_text, parse_version
from ..dnslib import (A, Message, Name, Rcode, RecordType, ResourceRecord)
from ..net.transport import Network
from .server import DnsServer, source_minus

_PROBE_LABEL = re.compile(rb"^ip-(\d+)-(\d+)-(\d+)-(\d+)$")


def encode_probe_name(probe_ip: str, domain: Name, nonce: str = "") -> Name:
    """The qname used to probe ``probe_ip`` (section 4's technique from
    Dagon et al.): ``ip-a-b-c-d[.nonce].<domain>``.

    ``nonce`` makes trial names unique so cached answers from one trial
    cannot contaminate another (section 6.3's methodology).
    """
    label = "ip-" + address_text(4, parse_version(probe_ip, 4)).replace(
        ".", "-")
    name = domain.child(nonce).child(label) if nonce else domain.child(label)
    return name


def decode_probe_name(qname: Name, domain: Name) -> Optional[str]:
    """Recover the probed ingress IP from a scan qname, or ``None``."""
    if not qname.is_subdomain_of(domain) or len(qname) <= len(domain):
        return None
    match = _PROBE_LABEL.match(qname.labels[0])
    if not match:
        return None
    a, b, c, d = map(int, match.groups())
    if a > 255 or b > 255 or c > 255 or d > 255:
        return None
    return f"{a}.{b}.{c}.{d}"


@dataclass(slots=True)
class ScanQueryRecord:
    """One arrival at the experimental nameserver (Scan dataset): which
    ingress was probed, which egress showed up, and what ECS (if any) it
    attached.  The server logs it; :mod:`repro.datasets` exports it
    beside the other datasets' records."""

    ts: float
    ingress_ip: Optional[str]
    egress_ip: str
    qname: str
    has_ecs: bool
    ecs_address: Optional[str] = None
    ecs_source_len: Optional[int] = None


class ScanExperimentServer(DnsServer):
    """Authoritative for the experiment domain; answers everything."""

    span_name = "authoritative"

    def __init__(self, ip: str, domain: Name, answer_address: str):
        # ``observations`` is this server's one log.
        super().__init__(ip, log_queries=False)
        self.domain = domain
        self.answer_address = answer_address
        self.scope_policy = source_minus(4)
        self.observations: List[ScanQueryRecord] = []

    def handle_query(self, query: Message, src_ip: str,
                     net: Network) -> Optional[Message]:
        response = query.make_response()
        response.authoritative = True
        if query.question is None:
            response.rcode = Rcode.FORMERR
            return response
        qname = query.question.qname
        if not qname.is_subdomain_of(self.domain):
            response.rcode = Rcode.REFUSED
            return response

        ecs = query.ecs()
        self.observations.append(ScanQueryRecord(
            net.clock.now(), decode_probe_name(qname, self.domain), src_ip,
            qname.to_text(), ecs is not None,
            ecs.address_text if ecs else None,
            ecs.source_prefix_length if ecs else None))

        if query.question.qtype == RecordType.A:
            response.answers.append(ResourceRecord(
                qname, RecordType.A, 60, A(self.answer_address)))
        if ecs is not None and response.edns is not None:
            response.set_ecs(ecs.response_to(self.scope_policy(ecs)))
        return response
