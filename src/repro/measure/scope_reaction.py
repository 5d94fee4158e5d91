"""The section 9 follow-up experiment: do resolvers react to scopes?

The paper's scan answered each ECS query with a fixed policy
(scope = source − 4) and probed each resolver once, so it could not tell
whether any resolver *adapts* its source prefix length to the scopes a
given authoritative returns.  This prober runs that follow-up: engage one
resolver repeatedly against our experimental server, switch the returned
scope between phases, and compare the source prefix lengths of the
resolver's queries before and after.

A static resolver keeps sending its configured length; an adaptive one
(e.g. :class:`~repro.core.policies.EcsPolicy` with
``adapt_source_to_scope=True``) drops to the advertised scope — the
privacy-preserving reaction the paper hints at, with the section 8.3
caveat that CDNs silently ignore ECS below their thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..auth.server import fixed_scope
from ..datasets.scan_dataset import ScanUniverse
from ..dnslib import RecordType
from .digclient import StubClient


@dataclass
class ScopeReactionOutcome:
    """Observed source prefix lengths per phase, and the verdict."""

    resolver_ip: str
    phase_scopes: List[int]
    observed_source_lengths: List[List[int]]

    @property
    def adapts(self) -> Optional[bool]:  # repro-lint: disable=RS008 (the §9 extension's verdict)
        """True if later phases' source lengths track the returned scope.

        ``None`` when the experiment produced no ECS observations (the
        resolver never attached ECS, or probes never reached the server).
        """
        if len(self.observed_source_lengths) < 2:
            return None
        first, last = (self.observed_source_lengths[0],
                       self.observed_source_lengths[-1])
        if not first or not last:
            return None
        target = self.phase_scopes[-1]
        return max(last) <= target < max(first)


class ScopeReactionProber:  # repro-lint: disable=RS008 (a §9 extension)
    """Runs the repeated-engagement experiment against one resolver."""

    def __init__(self, universe: ScanUniverse):
        self.universe = universe
        self.client = StubClient(universe.scanner_ip, universe.net)
        self._trial = 0

    def probe(self, resolver_ip: str,
              phase_scopes: Sequence[int] = (24, 16, 16),
              queries_per_phase: int = 4) -> ScopeReactionOutcome:
        """Engage ``resolver_ip`` across phases with different scopes.

        Each phase uses fresh hostnames (cache misses) so every query
        reaches the experimental server, whose scope policy is switched
        per phase.
        """
        server = self.universe.experiment_server
        old_policy = server.scope_policy
        observed: List[List[int]] = []
        try:
            for scope in phase_scopes:
                server.scope_policy = fixed_scope(scope)
                lengths: List[int] = []
                for _ in range(queries_per_phase):
                    self._trial += 1
                    qname = self.universe.domain.child(
                        f"react-{self._trial}")
                    before = len(server.observations)
                    self.client.query(resolver_ip, qname, RecordType.A)
                    for obs in server.observations[before:]:
                        if obs.has_ecs and obs.ecs_source_len is not None:
                            lengths.append(obs.ecs_source_len)
                    self.universe.net.clock.advance(30.0)
                observed.append(lengths)
        finally:
            server.scope_policy = old_policy
        return ScopeReactionOutcome(resolver_ip, list(phase_scopes),
                                    observed)
