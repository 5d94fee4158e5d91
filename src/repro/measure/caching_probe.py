"""The section 6.3 caching-behavior experiment.

Methodology, verbatim from the paper: deliver *pairs* of queries for our own
domain to each ECS-enabled recursive resolver such that the resolver sees
them as coming from clients in **different /24s sharing a /16**, configure
the experimental authoritative server to return scope 24, 16, or 0, and use
a unique hostname per trial so cached answers never leak between trials.
A compliant resolver forwards the second query for scope 24 (miss) but
answers it from cache for scopes 16 and 0 (hit).

Delivery techniques, in the paper's order of preference:

1. **direct** — the resolver accepts arbitrary client-supplied ECS, so we
   submit our chosen prefixes straight to it (24 open + 8 via forwarders in
   the paper; merged here since the forwarder hop is transparent);
2. **paired forwarders** — two open forwarders using the same resolver,
   sitting in different /24s of one /16;
3. **paired hidden resolvers** — same trick one level deeper.

A second experiment against the arbitrary-ECS resolvers probes prefixes
longer/shorter than /24 to detect forwarding clamps, over-/24 acceptance,
and private-prefix emission.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..addr import address_kind, same_prefix
from ..auth.server import fixed_scope
from ..core.classify import CachingCategory, CachingProbeOutcome, classify_caching
from ..datasets.scan_dataset import ChainSpec, ScanUniverse
from ..dnslib import Name, RecordType
from .digclient import StubClient

#: The twin-query prefixes: different /24, same /16.
PROBE_SUBNET_A = "85.12.100.0"
PROBE_SUBNET_B = "85.12.101.0"


def _is_private_block(address: Optional[str]) -> bool:
    """True for RFC1918-style private prefixes (the section 6.3
    misconfiguration), excluding loopback/link-local, which the paper
    treats separately in section 8.1."""
    return address is not None and address_kind(address) == "private"


@dataclass
class ProbeReport:
    """Per-resolver outcome plus the derived category."""

    resolver_ip: str
    technique: str
    outcome: CachingProbeOutcome
    category: CachingCategory


class CachingBehaviorProber:
    """Runs the twin-query experiment against a :class:`ScanUniverse`."""

    def __init__(self, universe: ScanUniverse):
        self.universe = universe
        self.client = StubClient(universe.scanner_ip, universe.net)
        self._trial = itertools.count(1)

    # -- helpers ---------------------------------------------------------------

    def _trial_name(self) -> Name:
        return self.universe.domain.child(f"trial-{next(self._trial)}")

    def _seen_count(self, qname: Name, since: int) -> int:
        """Arrivals for ``qname`` among the observations the experiment
        server logged from index ``since`` on: only the trial's own, since
        another prober on the same universe reuses trial names."""
        text = qname.to_text()
        observations = self.universe.experiment_server.observations[since:]
        return sum(1 for o in observations if o.qname == text)

    def _deliver_direct(self, resolver_ip: str, qname: Name,
                        subnet: str, prefix_len: int = 24) -> None:
        self.client.query_with_subnet(resolver_ip, qname, subnet, prefix_len)

    @staticmethod
    def _sibling_chains(chains: Sequence[ChainSpec]
                        ) -> Optional[Tuple[ChainSpec, ChainSpec]]:
        """Two of ``chains`` (all to one egress) whose heads share a /16
        but not a /24."""
        for a, b in itertools.combinations(chains, 2):
            if a.hidden_ips or b.hidden_ips:
                continue
            if same_prefix(a.forwarder_ip, b.forwarder_ip, 16) and \
                    not same_prefix(a.forwarder_ip, b.forwarder_ip, 24):
                return a, b
        return None

    # -- experiment 1: twin queries at scopes 24 / 16 / 0 -------------------------

    def _twin_trial(self, deliver_pair, scope_bits: int) -> Optional[bool]:
        """Run one trial; True = second query reached the authoritative."""
        server = self.universe.experiment_server
        old_policy = server.scope_policy
        server.scope_policy = fixed_scope(scope_bits)
        try:
            qname = self._trial_name()
            before = len(server.observations)
            deliver_pair(qname)
            seen = self._seen_count(qname, before)
        finally:
            server.scope_policy = old_policy
        if seen == 0:
            return None
        return seen >= 2

    def _probe_scopes(self, deliver_pair) -> CachingProbeOutcome:
        outcome = CachingProbeOutcome()
        outcome.second_query_seen_scope24 = self._twin_trial(deliver_pair, 24)
        outcome.second_query_seen_scope16 = self._twin_trial(deliver_pair, 16)
        outcome.second_query_seen_scope0 = self._twin_trial(deliver_pair, 0)
        return outcome

    # -- experiment 2: arbitrary prefix handling ---------------------------------

    def _probe_prefix_handling(self, resolver_ip: str,
                               outcome: CachingProbeOutcome) -> None:
        server = self.universe.experiment_server
        before = len(server.observations)
        qname = self._trial_name()
        self._deliver_direct(resolver_ip, qname, "85.12.102.77", 32)
        qname2 = self._trial_name()
        self._deliver_direct(resolver_ip, qname2, "85.12.102.0", 24)
        observed = [o for o in server.observations[before:] if o.has_ecs]
        if not observed:
            return
        lens = [o.ecs_source_len for o in observed if o.ecs_source_len]
        if lens:
            outcome.max_prefix_forwarded = max(lens)
            if max(lens) < 24:
                outcome.forwarding_clamp = max(lens)
        if any(_is_private_block(o.ecs_address) for o in observed):
            outcome.sends_private_prefix = True

    def _probe_zero_scope_caching(self, resolver_ip: str,
                                  outcome: CachingProbeOutcome) -> None:
        """Prime with a scope-0 answer, re-query: a hit means it cached."""
        server = self.universe.experiment_server
        old_policy = server.scope_policy
        server.scope_policy = fixed_scope(0)
        try:
            qname = self._trial_name()
            before = len(server.observations)
            self._deliver_direct(resolver_ip, qname, PROBE_SUBNET_A, 24)
            self._deliver_direct(resolver_ip, qname, PROBE_SUBNET_A, 24)
            outcome.caches_zero_scope = \
                self._seen_count(qname, before) == 1
        finally:
            server.scope_policy = old_policy

    # -- drivers --------------------------------------------------------------

    def probe_direct(self, resolver_ip: str) -> ProbeReport:
        """Technique 1: the resolver forwards client-supplied ECS."""

        def deliver(qname: Name) -> None:
            self._deliver_direct(resolver_ip, qname, PROBE_SUBNET_A, 24)
            self._deliver_direct(resolver_ip, qname, PROBE_SUBNET_B, 24)

        outcome = self._probe_scopes(deliver)
        self._probe_prefix_handling(resolver_ip, outcome)
        self._probe_zero_scope_caching(resolver_ip, outcome)
        return ProbeReport(resolver_ip, "direct", outcome,
                           classify_caching(outcome))

    def probe_via_forwarders(self, egress_ip: str,
                             pair: Tuple[ChainSpec, ChainSpec]) -> ProbeReport:
        """Technique 2/3: twin queries through sibling forwarders."""

        def deliver(qname: Name) -> None:
            self.client.query(pair[0].forwarder_ip, qname, RecordType.A)
            self.client.query(pair[1].forwarder_ip, qname, RecordType.A)

        before = len(self.universe.experiment_server.observations)
        outcome = self._probe_scopes(deliver)
        # Even without direct access, the ECS the resolver emitted during
        # the trials reveals private-prefix misconfigurations.
        observed = self.universe.experiment_server.observations[before:]
        if any(o.egress_ip == egress_ip and _is_private_block(o.ecs_address)
               for o in observed):
            outcome.sends_private_prefix = True
        return ProbeReport(egress_ip, "paired-forwarders", outcome,
                           classify_caching(outcome))

    def probe_megadns(self) -> Optional[ProbeReport]:
        """Probe the public service via its paired hidden resolvers
        (technique 3): two hidden resolvers in sibling /24s of one /16."""
        candidates = [c for c in self.universe.chains
                      if c.via_megadns and c.hidden_ips]
        for a, b in itertools.combinations(candidates, 2):
            if same_prefix(a.hidden_ips[0], b.hidden_ips[0], 16) and \
                    not same_prefix(a.hidden_ips[0], b.hidden_ips[0], 24):

                def deliver(qname: Name, pair=(a, b)) -> None:
                    self.client.query(pair[0].forwarder_ip, qname, RecordType.A)
                    self.client.query(pair[1].forwarder_ip, qname, RecordType.A)

                outcome = self._probe_scopes(deliver)
                return ProbeReport("megadns", "paired-hidden", outcome,
                                   classify_caching(outcome))
        return None

    def probe_all(self) -> List[ProbeReport]:
        """Probe every studiable non-MegaDNS egress resolver.

        Resolvers that accept arbitrary ECS get the direct technique (which
        can also detect prefix-handling deviations); the rest are probed via
        sibling forwarder pairs when the universe contains them.
        """
        reports: List[ProbeReport] = []
        resolvers = self.universe.egress_by_ip()
        chains = self.universe.chains_by_egress()
        for spec in self.universe.egress_specs:
            if spec.policy_name == "no_ecs":
                continue
            resolver = resolvers.get(spec.ip)
            accepts = resolver is not None and resolver.policy.accept_client_ecs
            if spec.open_to_world and accepts:
                reports.append(self.probe_direct(spec.ip))
                continue
            pair = self._sibling_chains(chains.get(spec.ip, ()))
            if pair is None:
                continue
            report = self.probe_via_forwarders(spec.ip, pair)
            if spec.open_to_world:
                # Open but ECS-overriding resolvers still reveal prefix
                # handling when probed directly.
                self._probe_prefix_handling(spec.ip, report.outcome)
                report = ProbeReport(spec.ip, report.technique, report.outcome,
                                     classify_caching(report.outcome))
            reports.append(report)
        return reports
