"""Ablations for the design choices DESIGN.md calls out.

* scope-keyed caching (RFC) vs scope-ignoring caching — what the 103
  deviant resolvers trade: cache/hit-rate savings against wrong answers;
* loopback probing vs own-address probing — the paper's recommendation;
* the TTL sweep ablation lives in Figure 1's bench.
"""

from repro.analysis import format_table
from repro.analysis.unroutable import UnroutableLab
from repro.core.cache import ScopeTracker
from repro.dnslib import EcsOption, RecordType
from repro.measure import StubClient


def test_bench_ablation_scope_ignoring_cache(allnames_dataset, benchmark,
                                             save_report):
    """Scope-ignoring caches look great on cache metrics — that's *why*
    over half the studied resolvers do it — but every cross-subnet reuse
    is a potentially mis-targeted answer."""

    def run():
        honor = ScopeTracker(use_ecs=True)
        ignore = ScopeTracker(use_ecs=False)
        wrong_reuse = 0
        for r in allnames_dataset.records:
            honor.access(r.ts, r.qname, r.qtype, r.client_ip, r.scope, r.ttl)
            hit = ignore.access(r.ts, r.qname, r.qtype, r.client_ip,
                                r.scope, r.ttl)
            if hit:
                wrong_reuse += 1
        return honor, ignore, wrong_reuse

    honor, ignore, wrong_reuse = benchmark.pedantic(run, rounds=1,
                                                    iterations=1)
    rows = [
        ("hit rate (scope-honoring)", f"{honor.hit_rate():.1%}"),
        ("hit rate (scope-ignoring)", f"{ignore.hit_rate():.1%}"),
        ("peak cache (scope-honoring)", honor.max_size),
        ("peak cache (scope-ignoring)", ignore.max_size),
        ("answers reused across subnets", wrong_reuse),
    ]
    save_report("ablation_scope_ignoring",
                format_table(("metric", "value"), rows,
                             title="Ablation — scope-keyed vs scope-ignoring"
                                   " caching"))
    assert ignore.hit_rate() > honor.hit_rate()
    assert ignore.max_size < honor.max_size
    assert wrong_reuse > honor.hits  # the hidden cost


def test_bench_ablation_probing_address(benchmark, save_report):
    """Loopback probes confuse literal-lookup mappers; probing with the
    resolver's own public address (the paper's recommendation) keeps the
    answer as good as a no-ECS query."""
    lab = UnroutableLab.build()
    client = StubClient(lab.lab_ip, lab.net)

    def measure(ecs):
        result = client.query(lab.cdn.ip, lab.qname, RecordType.A, ecs=ecs)
        return lab.net.ping_ms(lab.lab_ip, result.first_address, 8)

    def run():
        loopback = measure(EcsOption.from_client_address("127.0.0.1", 32))
        own = measure(EcsOption.from_client_address(lab.lab_ip, 24))
        none = measure(None)
        return loopback, own, none

    loopback, own, none = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [("loopback probe RTT (ms)", round(loopback, 1)),
            ("own-address probe RTT (ms)", round(own, 1)),
            ("no-ECS RTT (ms)", round(none, 1))]
    save_report("ablation_probing_address",
                format_table(("probing variant", "value"), rows,
                             title="Ablation — loopback vs own-address"
                                   " probing"))
    assert own < 1.5 * none
    assert loopback > 2 * own
