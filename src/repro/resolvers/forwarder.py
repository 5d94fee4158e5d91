"""Forwarders and hidden resolvers.

The paper's terminology (section 3): *ingress* resolvers take queries from
end hosts and usually just forward them — most of the open resolvers found
by the scan are home-router forwarders.  Some deployments interpose one or
more *hidden* resolvers between the ingress forwarder and the egress
(recursive) resolver.  Because many egress resolvers derive the ECS prefix
from the immediate sender of a query, a hidden resolver's address — not the
client's — ends up in the ECS option, which is how the paper discovers them
(section 8.2) and why they can wreck CDN mapping.

Both roles are :class:`Forwarder` instances; a hidden resolver is simply a
forwarder sitting mid-chain.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence

from ..dnslib import Message, Rcode
from ..faults.retry import RetryPolicy, execute_with_retries
from ..net.transport import Network
from ..obs import metrics as _obs_metrics
from .base import DnsServer

#: Forwarders are transparent: fail over between upstreams but never
#: retry truncation (the client's own TCP fallback handles TC=1) and
#: never rewrite the query's EDNS/ECS on errors.
DEFAULT_FORWARDER_RETRY_POLICY = RetryPolicy(tcp_on_truncation=False)


class Forwarder(DnsServer):
    """Stateless query forwarder (ingress resolver or hidden resolver).

    It passes any client-supplied ECS through untouched ("blindly
    forward"), which is what lets the caching-behavior experiments inject
    arbitrary prefixes through some resolution paths.  A device that
    drops unknown EDNS options is a fault on its link
    (:class:`~repro.faults.EcsStripSpec`), not a forwarder.
    """

    span_name = "forward"

    def __init__(self, ip: str, upstreams: Sequence[str],
                 retry_policy: Optional[RetryPolicy] = None):
        super().__init__(ip, log_queries=False)
        if not upstreams:
            raise ValueError("a forwarder needs at least one upstream")
        self.upstreams = list(upstreams)
        self.retry_policy = retry_policy or DEFAULT_FORWARDER_RETRY_POLICY
        self._msg_ids = itertools.count(1)
        self.forwarded = 0

    def handle_query(self, query: Message, src_ip: str,
                     net: Network) -> Optional[Message]:
        self.forwarded += 1
        reg = _obs_metrics.ACTIVE
        if reg is not None:
            reg.counter("repro_forwarder_forwarded_total",
                        "Queries passed upstream.").inc(1)

        def make_query(edns_ok: bool, ecs_ok: bool) -> Message:
            msg = query.copy()
            msg.msg_id = next(self._msg_ids) & 0xFFFF
            if not ecs_ok:
                msg.set_ecs(None)
            if not edns_ok:
                msg.edns = None
            return msg

        result = execute_with_retries(net, self.ip, self.upstreams,
                                      make_query, self.retry_policy,
                                      site="forwarder")
        if result.response is not None:
            reply = result.response.copy()
            reply.msg_id = query.msg_id
            return reply
        failed = query.make_response()
        failed.rcode = Rcode.SERVFAIL
        return failed


def build_chain(net: Network, ips: Sequence[str],
                egress_ip: str) -> List[Forwarder]:
    """Wire a forwarding chain ``ips[0] -> ips[1] -> ... -> egress_ip``.

    Returns the created forwarders, head first.  ``ips[1:]`` play the role
    of hidden resolvers.
    """
    forwarders: List[Forwarder] = []
    hops = list(ips) + [egress_ip]
    for ip, nxt in zip(hops, hops[1:]):
        fwd = Forwarder(ip, [nxt])
        net.attach(fwd)
        forwarders.append(fwd)
    return forwarders
