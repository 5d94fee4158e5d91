"""CNAME flattening at an authoritative DNS provider (section 8.4).

The DNS standard forbids a CNAME at a zone apex, so providers "flatten": on
a query for the apex they resolve the CDN-assigned name themselves on the
backend and return the final A records.  The pitfall the paper demonstrates
is that the backend resolution is performed *from the provider's own
vantage point*, typically without forwarding the client's ECS data — so the
CDN maps the user to an edge near the **DNS provider**, not near the user.

:class:`FlatteningProvider` models both the careless (no ECS on the backend
query — the measured real-world behavior) and the careful variant (ECS
forwarded), so the Fig 8 case study can quantify the penalty and verify the
suggested mitigation.
"""

from __future__ import annotations

from typing import List, Optional

from ..dnslib import (CNAME, EcsOption, Message, Name, Rcode, RecordType,
                      ResourceRecord)
from ..net.transport import Network
from .server import DnsServer

#: TTL of the ``www`` CNAME, and the cap on a flattened record's TTL.
TTL = 60


class FlatteningProvider(DnsServer):
    """Authoritative for a customer zone, onboarded to a CDN.

    * apex A query → backend-resolve ``apex_target`` at the CDN and return
      the flattened A records;
    * ``www`` A query → a regular CNAME to ``www_target`` (the resolver
      chases it to the CDN itself, carrying its own ECS).
    """

    span_name = "authoritative"

    def __init__(self, ip: str, zone_apex: Name, cdn_auth_ip: str,
                 apex_target: Name, www_target: Name,
                 forward_ecs: bool = False):
        super().__init__(ip)
        self.zone_apex = zone_apex
        self.www_name = zone_apex.child("www")
        self.cdn_auth_ip = cdn_auth_ip
        self.apex_target = apex_target
        self.www_target = www_target
        self.forward_ecs = forward_ecs
        self.backend_queries = 0

    def _flatten(self, qtype: RecordType, incoming_ecs: Optional[EcsOption],
                 net: Network) -> List[ResourceRecord]:
        """Resolve the CDN name on the backend, as the provider."""
        backend_ecs = incoming_ecs if self.forward_ecs else None
        backend_query = Message.make_query(
            self.apex_target, qtype,
            msg_id=(self.backend_queries + 1) & 0xFFFF,
            ecs=backend_ecs)
        self.backend_queries += 1
        outcome = net.query(self.ip, self.cdn_auth_ip, backend_query)
        if outcome.response is None:
            return []
        return [ResourceRecord(self.zone_apex, rr.rdtype, min(rr.ttl, TTL),
                               rr.rdata)
                for rr in outcome.response.answers if rr.rdtype == qtype]

    def handle_query(self, query: Message, src_ip: str,
                     net: Network) -> Optional[Message]:
        response = query.make_response()
        response.authoritative = True
        if query.question is None:
            response.rcode = Rcode.FORMERR
            return response
        qname, qtype = query.question.qname, query.question.qtype
        if not qname.is_subdomain_of(self.zone_apex):
            response.rcode = Rcode.REFUSED
            return response

        if qname == self.zone_apex and qtype in (RecordType.A, RecordType.AAAA):
            answers = self._flatten(qtype, query.ecs(), net)
            if not answers:
                response.rcode = Rcode.SERVFAIL
            response.answers = answers
            # The flattened answer hides the CDN involvement entirely; no
            # ECS is echoed (the provider did not use the client's subnet).
            return response

        if qname == self.www_name and qtype in (RecordType.A, RecordType.AAAA):
            response.answers.append(ResourceRecord(
                qname, RecordType.CNAME, TTL, CNAME(self.www_target)))
            return response

        response.rcode = Rcode.NXDOMAIN
        return response
