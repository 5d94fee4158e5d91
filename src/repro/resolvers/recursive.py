"""Recursive (egress) resolver with configurable ECS behavior.

Performs genuine iterative resolution over the simulated delegation tree
(root → TLD → authoritative, following referrals and chasing CNAMEs), with
an :class:`~repro.core.cache.EcsCache` for scope-aware caching and an
:class:`~repro.core.policies.EcsPolicy`/:class:`ProbingEngine` pair driving
every ECS decision.  All the behaviors the paper catalogs — compliant and
deviant — are reachable through policy configuration; see
:mod:`repro.resolvers.behaviors` for ready-made presets.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from ..core.cache import EcsCache
from ..core.policies import (EcsDecision, EcsPolicy, ProbingEngine,
                             ProbingStrategy, build_query_ecs)
from ..dnslib import (EcsOption, Message, Name, Rcode, RecordType,
                      ResolutionError)
from ..faults.retry import RetryPolicy, execute_with_retries
from ..net.clock import SimClock
from ..net.transport import Network
from ..obs import metrics as _obs_metrics
from ..obs import trace as _obs_trace
from .base import DnsServer

_MAX_REFERRALS = 20
_MAX_CNAME_CHASE = 8

#: Production-resolver posture: retry truncation over TCP, downgrade to
#: no-ECS on FORMERR (RFC 7871 section 7.1) and then to plain DNS for
#: pre-EDNS0 servers (RFC 6891 section 7); failover is handled by the
#: iterative loop's own nameserver ordering.
DEFAULT_RESOLVER_RETRY_POLICY = RetryPolicy(
    retry_without_ecs_on_formerr=True,
    retry_without_edns_on_formerr=True)

class RecursiveResolver(DnsServer):
    """An egress resolver: takes client queries, resolves iteratively."""

    span_name = "resolve"

    def __init__(self, ip: str, clock: SimClock, root_hints: Sequence[str],
                 policy: Optional[EcsPolicy] = None,
                 allowed_clients: Optional[Set[str]] = None,
                 trusted_ecs_senders: Optional[FrozenSet[str]] = None,
                 retry_policy: Optional[RetryPolicy] = None):
        super().__init__(ip, log_queries=False)
        self.clock = clock
        self.root_hints = list(root_hints)
        self.policy = policy or EcsPolicy()
        self.retry_policy = retry_policy or DEFAULT_RESOLVER_RETRY_POLICY
        self.probing = ProbingEngine(self.policy)
        self.cache = EcsCache(
            clock,
            scope_mode=self.policy.scope_handling,
            clamp_bits=self.policy.clamp_scope_bits,
            enforce_scope_le_source=self.policy.enforce_scope_le_source,
            cache_zero_scope=self.policy.cache_zero_scope,
        )
        #: ``None`` means open to the world; a set restricts who may query.
        self.allowed_clients = allowed_clients
        #: Senders whose ECS options are trusted even when the policy would
        #: otherwise replace client ECS with the sender's address (the
        #: public service's own front-ends).
        self.trusted_ecs_senders = trusted_ecs_senders or frozenset()
        self._msg_ids = itertools.count(1)
        self._no_edns_servers: Set[str] = set()
        #: Delegation cache: zone cut -> (nameserver IPs, expiry).
        self._delegations: dict = {}
        #: Smoothed RTT per nameserver IP (ms), for server selection.
        self._srtt: dict = {}
        self.upstream_queries = 0

    # -- public entry points -----------------------------------------------

    def handle_query(self, query: Message, src_ip: str,
                     net: Network) -> Optional[Message]:
        if self.allowed_clients is not None and src_ip not in self.allowed_clients:
            refused = query.make_response()
            refused.rcode = Rcode.REFUSED
            return refused
        if query.question is None:
            bad = query.make_response()
            bad.rcode = Rcode.FORMERR
            return bad

        incoming_ecs = query.ecs()
        usable_ecs = incoming_ecs
        if incoming_ecs is not None and not (
                self.policy.accept_client_ecs
                or src_ip in self.trusted_ecs_senders):
            # Anti-spoofing behavior of many resolvers: override client ECS
            # with the immediate sender's address (section 8.2).
            usable_ecs = None
        client_hint = usable_ecs.address_text if usable_ecs is not None \
            else src_ip

        response, scope = self.resolve(query.question.qname,
                                       query.question.qtype,
                                       client_hint, net,
                                       incoming_ecs=usable_ecs)
        reply = response.copy()
        reply.msg_id = query.msg_id
        reply.is_response = True
        reply.recursion_available = True
        reply.question = query.question
        reply.authoritative = False
        if incoming_ecs is not None and query.edns is not None:
            if reply.edns is None:
                reply.edns = query.make_response().edns
            echo_scope = scope if scope is not None else 0
            reply.set_ecs(incoming_ecs.response_to(
                min(echo_scope, incoming_ecs.source_prefix_length)))
        elif reply.edns is not None:
            reply.set_ecs(None)
        return reply

    def resolve(self, qname: Name, qtype: RecordType, client_hint: str,
                net: Network, incoming_ecs: Optional[EcsOption] = None
                ) -> Tuple[Message, Optional[int]]:
        """Resolve a question for a client; returns (response, auth scope).

        The returned scope is the authoritative scope prefix length that
        applied (``None`` when the exchange did not involve ECS).
        """
        probe_bypass = (self.policy.probing is ProbingStrategy.PROBE_HOSTNAMES
                        and self.policy.bypass_cache_for_probes
                        and qname in self.policy.probe_hostnames)
        if not probe_bypass:
            cached = self.cache.lookup(qname, qtype, client_hint)
            tracer = _obs_trace.ACTIVE
            if tracer is not None:
                tracer.event("cache_lookup", resolver=self.ip,
                             qname=qname.to_text(),
                             hit=cached is not None)
            if cached is not None:
                return cached, self._scope_of(cached)

        response, ecs_sent = self._resolve_iteratively(
            qname, qtype, client_hint, net, incoming_ecs)
        if response.rcode in (Rcode.NOERROR, Rcode.NXDOMAIN) \
                and not response.truncated:
            self.cache.store(qname, qtype, response, query_ecs=ecs_sent)
        return response, self._scope_of(response)

    @staticmethod
    def _scope_of(response: Message) -> Optional[int]:
        ecs = response.ecs()
        return ecs.scope_prefix_length if ecs else None

    # -- iterative machinery -------------------------------------------------

    def _resolve_iteratively(self, qname: Name, qtype: RecordType,
                             client_hint: str, net: Network,
                             incoming_ecs: Optional[EcsOption],
                             depth: int = 0
                             ) -> Tuple[Message, Optional[EcsOption]]:
        if depth > _MAX_CNAME_CHASE:
            raise ResolutionError(f"CNAME chain too deep for {qname}")
        nameservers, at_root = self._starting_servers(qname)
        last_ecs: Optional[EcsOption] = None
        for _ in range(_MAX_REFERRALS):
            response = None
            for ns_ip in self._order_nameservers(nameservers):
                response, last_ecs = self._query_one(
                    qname, qtype, ns_ip, client_hint, net, incoming_ecs,
                    at_root=at_root)
                if response is not None:
                    break
            if response is None:
                raise ResolutionError(f"no nameserver answered for {qname}")
            if response.rcode not in (Rcode.NOERROR,):
                return response, last_ecs

            answers = response.answer_rrset(qtype)
            if answers:
                return response, last_ecs
            cnames = response.answer_rrset(RecordType.CNAME)
            if cnames and qtype != RecordType.CNAME:
                target = cnames[-1].rdata.target  # type: ignore[attr-defined]
                chased, chased_ecs = self._resolve_iteratively(
                    target, qtype, client_hint, net, incoming_ecs, depth + 1)
                merged = chased.copy()
                merged.answers = list(response.answers) + list(chased.answers)
                return merged, chased_ecs or last_ecs
            referral_ns = [rr for rr in response.authority
                           if rr.rdtype == RecordType.NS]
            if referral_ns and not response.authoritative:
                glue = {str(rr.name): rr.rdata.address  # type: ignore[attr-defined]
                        for rr in response.additional
                        if rr.rdtype == RecordType.A}
                next_servers = []
                for rr in referral_ns:
                    target = rr.rdata.target  # type: ignore[attr-defined]
                    addr = glue.get(target.to_text().rstrip(".") + ".")
                    if addr is None:
                        addr = glue.get(target.to_text())
                    if addr is not None:
                        next_servers.append(addr)
                if not next_servers:
                    raise ResolutionError(f"glueless referral for {qname}")
                self._cache_delegation(referral_ns, next_servers)
                nameservers = next_servers
                at_root = False
                continue
            # NODATA / terminal answer without records of qtype.
            return response, last_ecs
        raise ResolutionError(f"referral chain too long for {qname}")

    def _starting_servers(self, qname: Name) -> Tuple[List[str], bool]:
        """Deepest cached delegation covering ``qname``, or the root hints.

        Real resolvers cache NS rrsets from referrals; without this every
        cache miss would hammer the root, which neither happens in practice
        nor scales in simulation.
        """
        now = self.clock.now()
        best: Optional[Tuple[Name, List[str]]] = None
        for zone, (servers, expiry) in list(self._delegations.items()):
            if expiry <= now:
                del self._delegations[zone]
                continue
            if qname.is_subdomain_of(zone):
                if best is None or len(zone) > len(best[0]):
                    best = (zone, servers)
        if best is not None:
            return list(best[1]), False
        return list(self.root_hints), True

    def _cache_delegation(self, referral_ns, server_ips: List[str]) -> None:
        zone = referral_ns[0].name
        ttl = min(rr.ttl for rr in referral_ns)
        self._delegations[zone] = (list(server_ips), self.clock.now() + ttl)

    def _order_nameservers(self, nameservers: List[str]) -> List[str]:
        """Prefer nameservers with the lowest smoothed RTT.

        Unprobed servers sort first (exploration), then by measured RTT —
        the standard server-selection heuristic of production resolvers.
        """
        return sorted(nameservers,
                      key=lambda ip: self._srtt.get(ip, -1.0))

    def _note_rtt(self, ns_ip: str, elapsed_ms: float) -> None:
        previous = self._srtt.get(ns_ip)
        if previous is None:
            self._srtt[ns_ip] = elapsed_ms
        else:
            self._srtt[ns_ip] = 0.7 * previous + 0.3 * elapsed_ms

    def _query_one(self, qname: Name, qtype: RecordType, ns_ip: str,
                   client_hint: str, net: Network,
                   incoming_ecs: Optional[EcsOption], at_root: bool
                   ) -> Tuple[Optional[Message], Optional[EcsOption]]:
        decision = self.probing.decide(qname, qtype, ns_ip,
                                       self.clock.now())
        if at_root and not self.policy.send_ecs_to_roots:
            decision = EcsDecision(False)
        ecs_opt = build_query_ecs(self.policy, decision, client_hint,
                                  self.ip, incoming_ecs,
                                  source_limit=self.probing
                                  .adapted_source_limit(ns_ip))
        use_edns = ns_ip not in self._no_edns_servers
        reg = _obs_metrics.ACTIVE
        if reg is not None:
            reg.counter("repro_resolver_upstream_queries_total",
                        "Probes sent upstream, by ECS decision.",
                        ("ecs",)).inc(
                1, "sent" if (ecs_opt is not None and use_edns) else "none")

        def make_query(edns_ok: bool, ecs_ok: bool) -> Message:
            q_edns = use_edns and edns_ok
            return Message.make_query(qname, qtype,
                                      msg_id=next(self._msg_ids) & 0xFFFF,
                                      recursion_desired=False,
                                      use_edns=q_edns,
                                      ecs=ecs_opt if (q_edns and ecs_ok)
                                      else None)

        result = execute_with_retries(net, self.ip, (ns_ip,), make_query,
                                      self.retry_policy, site="resolver")
        self.upstream_queries += result.attempts
        if result.edns_downgraded:
            # Pre-EDNS0 server: remember so future queries go plain.
            self._no_edns_servers.add(ns_ip)
        if result.response is None:
            # Penalize unresponsive servers heavily in selection.
            self._note_rtt(ns_ip, net.TIMEOUT_MS)
            return None, ecs_opt
        self._note_rtt(ns_ip, result.elapsed_ms)
        response = result.response
        # The ECS actually on the final query (None after a section 7.1
        # downgrade) is what validation and the cache must key on.
        sent_ecs = result.query_ecs
        if sent_ecs is not None:
            resp_ecs = response.ecs()
            valid = resp_ecs is not None and resp_ecs.matches_query(sent_ecs)
            self.probing.note_response(
                ns_ip, valid,
                scope=resp_ecs.scope_prefix_length if valid else None)
            if valid and reg is not None:
                reg.histogram("repro_resolver_scope_bits",
                              "Authoritative scope prefix lengths seen.",
                              buckets=(0, 8, 16, 20, 24, 28, 32, 48, 64,
                                       128)).observe(
                    resp_ecs.scope_prefix_length)
            if resp_ecs is not None and not valid:
                # RFC 7871 section 7.3: a mismatched ECS response option
                # must be ignored entirely.
                response.set_ecs(None)
        return response, sent_ecs
