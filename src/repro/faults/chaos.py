"""Chaos mode: scan campaigns under a composed fault plan.

Shards are fully independent universes.  Shard *i* builds its own
:class:`~repro.datasets.scan_dataset.ScanUniverse` from
``derive_seed(seed, i, "chaos.universe")``, binds the plan's injectors
with ``plan.bind(fault_seed, i)``, installs them on the shard's network
and drives the scan with a retrying stub client.  Per-shard partials
fold by the usual all-additive shard algebra, so the merged result —
and the :class:`~repro.engine.executor.EngineReport` metrics — are
byte-identical at every ``--workers`` count.

Degradation is first-class, not an error: a chaos result under loss
reports fewer responding ingresses and flags itself partial instead of
raising, which is the "analyses degrade gracefully" contract the test
layer certifies up to 30% loss.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analysis.report import format_network_stats, format_table
from ..datasets.scan_dataset import ScanUniverseBuilder
from ..engine.executor import EngineReport, run_sharded
from ..engine.seeding import derive_seed
from ..engine.sharding import DEFAULT_SHARDS, shard_bounds
from ..measure.scanner import Scanner
from ..net.transport import NetworkStats
from ..obs import live as _obs_live
from .plan import FaultPlan
from .retry import RetryPolicy

#: Retry posture for chaos scans: three attempts per server with
#: exponential backoff — aggressive enough that a campaign stays useful
#: under the 30% ``heavy-loss`` preset.
CHAOS_RETRY_POLICY = RetryPolicy(max_attempts=3, backoff_base_ms=250.0,
                                 jitter_fraction=0.5)


@dataclass
class ChaosPartial:
    """One shard's chaos-scan tallies; folds by addition."""

    probes: int = 0
    responded: int = 0
    unanswered: int = 0
    records: int = 0
    ecs_records: int = 0
    attempts: int = 0
    retries: int = 0
    ecs_downgrades: int = 0
    faults_by_kind: Dict[str, int] = field(default_factory=dict)
    network: NetworkStats = field(default_factory=NetworkStats)

    def merge_from(self, other: "ChaosPartial") -> "ChaosPartial":
        """Fold another shard's tallies into this one (in place)."""
        self.probes += other.probes
        self.responded += other.responded
        self.unanswered += other.unanswered
        self.records += other.records
        self.ecs_records += other.ecs_records
        self.attempts += other.attempts
        self.retries += other.retries
        self.ecs_downgrades += other.ecs_downgrades
        for kind, count in other.faults_by_kind.items():
            self.faults_by_kind[kind] = \
                self.faults_by_kind.get(kind, 0) + count
        self.network.merge_from(other.network)
        return self

    def merge(self, other: "ChaosPartial") -> "ChaosPartial":
        """Pure merge: a new partial holding the combined tallies."""
        return ChaosPartial().merge_from(self).merge_from(other)


@dataclass
class ChaosResult:
    """The merged campaign outcome plus its provenance."""

    scenario: str
    seed: int
    fault_seed: int
    totals: ChaosPartial

    @property
    def response_rate(self) -> float:
        totals = self.totals
        return totals.responded / totals.probes if totals.probes else 0.0

    @property
    def degraded(self) -> bool:
        """True when faults left marks: results are flagged partial."""
        totals = self.totals
        return totals.unanswered > 0 or totals.retries > 0 \
            or totals.network.faults_injected > 0

    def report(self) -> str:
        """Deterministic text report (what the CI smoke diffs)."""
        totals = self.totals
        rows: List[Tuple[str, object]] = [
            ("scenario", self.scenario),
            ("seed", self.seed),
            ("fault seed", self.fault_seed),
            ("probes", totals.probes),
            ("responding ingress", totals.responded),
            ("unanswered", totals.unanswered),
            ("response rate", f"{self.response_rate:.2%}"),
            ("scan records", totals.records),
            ("ecs records", totals.ecs_records),
            ("client attempts", totals.attempts),
            ("client retries", totals.retries),
            ("ecs downgrades", totals.ecs_downgrades),
            ("partial results", "yes" if self.degraded else "no"),
        ]
        for kind in sorted(totals.faults_by_kind):
            rows.append((f"faults[{kind}]", totals.faults_by_kind[kind]))
        return "\n".join([
            format_table(("metric", "value"), rows,
                         title=f"Chaos scan — {self.scenario}"),
            "",
            format_network_stats(totals.network),
        ])


def _probe_count(partial: ChaosPartial) -> int:
    return partial.probes


def _chaos_shard(plan: FaultPlan, policy: RetryPolicy, seed: int,
                 fault_seed: int, shard_index: int,
                 ingress_count: int) -> ChaosPartial:
    """Build one universe, fault it, scan it.  Module-level: picklable."""
    started = time.perf_counter()
    universe = ScanUniverseBuilder(
        seed=derive_seed(seed, shard_index, "chaos.universe"),
        ingress_count=ingress_count).build()
    emitter = _obs_live.ACTIVE
    if emitter is not None:
        emitter.beat("chaos_universe", f"chaos[{plan.name}]", shard_index,
                     seconds=time.perf_counter() - started,
                     ingress=ingress_count)
    bound = plan.bind(fault_seed, shard_index)
    universe.net.install_injector(bound)
    scanner = Scanner(universe, retry_policy=policy)
    result = scanner.scan()
    if emitter is not None:
        emitter.beat("progress", f"chaos[{plan.name}]", shard_index,
                     records=len(result.records))
    targets = universe.forwarder_ips
    return ChaosPartial(
        probes=len(targets),
        responded=len(result.responding_ingress),
        unanswered=len(targets) - len(result.responding_ingress),
        records=len(result.records),
        ecs_records=sum(1 for r in result.records if r.has_ecs),
        attempts=scanner.client.attempts,
        retries=scanner.client.retries,
        ecs_downgrades=scanner.client.ecs_downgrades,
        faults_by_kind=dict(bound.injected),
        network=universe.net.stats)


def run_chaos(plan: FaultPlan, *, seed: int = 0, fault_seed: int = 0,
              ingress: int = 120, shards: int = DEFAULT_SHARDS,
              workers: int = 1,
              retry_policy: Optional[RetryPolicy] = None
              ) -> Tuple[ChaosResult, EngineReport]:
    """Run the chaos campaign sharded; returns (result, engine report).

    The fault plan, retry policy and seeds are shared run state —
    serialized once per run, decoded once per submission — so each shard's
    private spec is just ``(index, size)``.
    """
    policy = retry_policy if retry_policy is not None else CHAOS_RETRY_POLICY
    sizes = [hi - lo for lo, hi in shard_bounds(ingress, shards)]
    shard_args = [(index, size)
                  for index, size in enumerate(sizes) if size > 0]
    partials, engine_report = run_sharded(
        _chaos_shard, shard_args, workers=workers,
        task=f"chaos[{plan.name}]", count_of=_probe_count,
        shared=(plan, policy, seed, fault_seed))
    totals = ChaosPartial()
    for partial in partials:
        totals.merge_from(partial)
    return (ChaosResult(plan.name, seed, fault_seed, totals),
            engine_report)
