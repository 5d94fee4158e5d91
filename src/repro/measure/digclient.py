"""A dig-like stub client.

Sends single queries — to a recursive resolver or directly to an
authoritative server — with full control over the ECS option, as the paper
does with ``dig`` in section 8.1 (Table 2) and with its scanning scripts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import List, Optional, Union

from ..dnslib import EcsOption, Message, Name, Rcode, RecordType
from ..faults.retry import RetryPolicy, execute_with_retries
from ..net.transport import Network

#: dig-like defaults: single attempt, automatic TCP retry on TC=1, no
#: silent protocol downgrades — a FORMERR is *reported*, as dig does,
#: so measurements see exactly what the server said.
DEFAULT_STUB_POLICY = RetryPolicy()


@dataclass(slots=True)
class DigResult:
    """Everything a measurement needs from one query."""

    response: Optional[Message]
    elapsed_ms: float

    @property
    def rcode(self) -> Optional[Rcode]:
        return self.response.rcode if self.response else None

    @property
    def addresses(self) -> List[str]:
        """A/AAAA answers, in order."""
        return self.response.answer_addresses() if self.response else []

    @property
    def first_address(self) -> Optional[str]:
        addrs = self.addresses
        return addrs[0] if addrs else None

    @property
    def scope(self) -> Optional[int]:
        """The scope prefix length in the response ECS, if any."""
        if self.response is None:
            return None
        ecs = self.response.ecs()
        return ecs.scope_prefix_length if ecs else None


class StubClient:
    """An end host (or measurement box) issuing DNS queries."""

    def __init__(self, ip: str, net: Network,
                 retry_policy: Optional[RetryPolicy] = None):
        self.ip = ip
        self.net = net
        self.retry_policy = retry_policy or DEFAULT_STUB_POLICY
        self._msg_ids = itertools.count(1)
        #: Cumulative ladder tallies across this client's queries.
        self.attempts = 0
        self.retries = 0
        self.ecs_downgrades = 0

    def query(self, server_ip: str, qname: Union[str, Name],
              qtype: RecordType = RecordType.A,
              ecs: Optional[EcsOption] = None,
              recursion_desired: bool = True,
              use_edns: bool = True,
              tcp: bool = False,
              retry_on_truncation: bool = True) -> DigResult:
        """Send one query and return the parsed result.

        The client's :class:`~repro.faults.retry.RetryPolicy` drives
        timeouts, backoff and downgrades; a TC=1 response is retried
        over TCP automatically (like dig) unless ``retry_on_truncation``
        is disabled.  ``elapsed_ms`` sums every wire leg exactly once —
        a truncated UDP exchange plus its TCP retry charge one UDP and
        one TCP round trip.
        """
        name = Name.from_text(qname) if isinstance(qname, str) else qname
        policy = self.retry_policy
        if not retry_on_truncation and policy.tcp_on_truncation:
            policy = replace(policy, tcp_on_truncation=False)

        def make_query(edns_ok: bool, ecs_ok: bool) -> Message:
            return Message.make_query(
                name, qtype, msg_id=next(self._msg_ids) & 0xFFFF,
                recursion_desired=recursion_desired,
                use_edns=use_edns and edns_ok,
                ecs=ecs if (ecs_ok and edns_ok) else None)

        outcome = execute_with_retries(self.net, self.ip, (server_ip,),
                                       make_query, policy, site="stub",
                                       tcp=tcp)
        self.attempts += outcome.attempts
        self.retries += outcome.retries
        if outcome.ecs_downgraded:
            self.ecs_downgrades += 1
        return DigResult(outcome.response, outcome.elapsed_ms)

    def query_with_subnet(self, server_ip: str, qname: Union[str, Name],
                          subnet: str, prefix_len: int,
                          qtype: RecordType = RecordType.A) -> DigResult:
        """Convenience: query with an explicit client-subnet option, like
        ``dig +subnet=...``."""
        ecs = EcsOption.from_client_address(subnet, prefix_len)
        return self.query(server_ip, qname, qtype=qtype, ecs=ecs)
