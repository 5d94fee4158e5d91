"""Shard-merge algebra: ReplayPartial merging and the order-stable merges.

The engine's correctness under concurrency reduces to these properties:
partial merging is associative, commutative, and has an identity, so any
shard order (and therefore any completion order) yields the same final
ReplayResult; the record merge and the per-line JSONL reference merge
(``jsonl_reference.py``) are stable k-way merges equivalent to a stable
sort of the shard concatenation.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cache_sim import (KeyedTrace, ReplayPartial,
                                      merge_partials, replay_partial,
                                      replay_partial_columns)
from repro.datasets import AllNamesBuilder, write_jsonl
from repro.datasets.columnar import ColumnarStore
from repro.engine.replay import ACCESSORS
from repro.engine.sharding import ShardSpec, partition_by_key
from repro.faults import preset
from repro.faults.chaos import CHAOS_RETRY_POLICY, ChaosPartial, _chaos_shard
from repro.net.transport import NetworkStats

from builder_reference import merge_sorted_records, shard_lists
from jsonl_reference import merge_jsonl_shards, write_jsonl_shards


def _shard_lists(shards: int) -> tuple:
    """The allnames shards, built in-process (no engine involved)."""
    return shard_lists(ShardSpec.create("allnames", shard_count=shards,
                                        scale=0.01, seed=6))


def _random_partial(rng: random.Random) -> ReplayPartial:
    return ReplayPartial(*(rng.randrange(0, 1000) for _ in range(6)))


class TestPartialAlgebra:
    def test_identity(self):
        rng = random.Random(1)
        partial = _random_partial(rng)
        empty = ReplayPartial()
        assert partial.merge(empty) == partial
        assert empty.merge(partial) == partial

    def test_associative(self):
        rng = random.Random(2)
        for _ in range(50):
            a, b, c = (_random_partial(rng) for _ in range(3))
            assert a.merge(b).merge(c) == a.merge(b.merge(c))

    def test_commutative(self):
        rng = random.Random(3)
        for _ in range(50):
            a, b = (_random_partial(rng) for _ in range(2))
            assert a.merge(b) == b.merge(a)

    def test_result_matches_counters(self):
        partial = ReplayPartial(hits_ecs=3, misses_ecs=7, hits_no_ecs=8,
                                misses_no_ecs=2, max_size_ecs=40,
                                max_size_no_ecs=10)
        result = partial.result()
        assert result.hit_rate_ecs == pytest.approx(0.3)
        assert result.hit_rate_no_ecs == pytest.approx(0.8)
        assert result.blowup == pytest.approx(4.0)

    def test_empty_result_is_idle(self):
        result = ReplayPartial().result()
        assert result.hit_rate_ecs == 0.0
        assert result.hit_rate_no_ecs == 0.0
        assert result.blowup == 1.0


class TestShardOrderIndependence:
    """Shuffling real shard partials never changes the merged result."""

    @pytest.fixture(scope="class")
    def shard_partials(self):
        shard_lists = _shard_lists(6)
        records = merge_sorted_records(shard_lists)
        buckets = partition_by_key(records, 6, lambda r: r.qname)
        return [replay_partial(bucket, *ACCESSORS["allnames"])
                for bucket in buckets]

    def test_shuffled_shards_same_result(self, shard_partials):
        baseline = merge_partials(shard_partials)
        rng = random.Random(7)
        for _ in range(10):
            shuffled = list(shard_partials)
            rng.shuffle(shuffled)
            result = merge_partials(shuffled)
            assert result == baseline
            assert result.blowup == baseline.blowup

    def test_pairwise_tree_merge_same_result(self, shard_partials):
        # Merging as a reduction tree (how a hierarchical merge would run)
        # equals the left fold.
        level = list(shard_partials)
        while len(level) > 1:
            level = [level[i].merge(level[i + 1])
                     if i + 1 < len(level) else level[i]
                     for i in range(0, len(level), 2)]
        assert level[0].result() == merge_partials(shard_partials)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 1 << 16),
       scale=st.sampled_from((0.002, 0.005, 0.01)))
def test_shard_count_moves_only_the_peak(seed, scale):
    """Hit counters are identical at any ``--shards``; the merged peak, a
    sum of per-bucket peaks, bounds the one-shard peak from above."""
    store = ColumnarStore.from_column_chunks(
        AllNamesBuilder(scale=scale, seed=seed).iter_shard_columns(0, 1),
        "allnames")

    trace = KeyedTrace([store], len(store), "client_ip")

    def merged(shards):
        partial = ReplayPartial()
        for rows in trace.qname_buckets(shards):
            partial = partial.merge(replay_partial_columns(trace, rows=rows))
        return partial

    whole = merged(1)
    for shards in (8, 64):
        split = merged(shards)
        assert (split.hits_ecs, split.misses_ecs, split.hits_no_ecs,
                split.misses_no_ecs) == (whole.hits_ecs, whole.misses_ecs,
                                         whole.hits_no_ecs,
                                         whole.misses_no_ecs)
        assert split.max_size_ecs >= whole.max_size_ecs
        assert split.max_size_no_ecs >= whole.max_size_no_ecs


def _random_network_stats(rng: random.Random) -> NetworkStats:
    return NetworkStats(
        datagrams=rng.randrange(0, 1000),
        bytes_sent=rng.randrange(0, 100_000),
        timeouts=rng.randrange(0, 100),
        drops=rng.randrange(0, 100),
        faults_injected=rng.randrange(0, 100),
        per_destination={f"10.0.0.{i}": rng.randrange(1, 50)
                         for i in range(rng.randrange(0, 4))})


def _random_chaos_partial(rng: random.Random) -> ChaosPartial:
    kinds = rng.sample(("loss", "burst-loss", "jitter", "truncate"),
                       rng.randrange(0, 4))
    return ChaosPartial(
        *(rng.randrange(0, 500) for _ in range(8)),
        faults_by_kind={kind: rng.randrange(1, 50) for kind in kinds},
        network=_random_network_stats(rng))


class TestNetworkStatsAlgebra:
    """NetworkStats folds like every other shard partial — including the
    fault counter and the per-destination histogram."""

    def test_identity(self):
        rng = random.Random(21)
        stats = _random_network_stats(rng)
        empty = NetworkStats()
        assert stats.merge(empty) == stats
        assert empty.merge(stats) == stats

    def test_associative_and_commutative(self):
        rng = random.Random(22)
        for _ in range(50):
            a, b, c = (_random_network_stats(rng) for _ in range(3))
            assert a.merge(b).merge(c) == a.merge(b.merge(c))
            assert a.merge(b) == b.merge(a)

    def test_pure_merge_leaves_operands_alone(self):
        rng = random.Random(23)
        a, b = (_random_network_stats(rng) for _ in range(2))
        before = (NetworkStats().merge_from(a), NetworkStats().merge_from(b))
        a.merge(b)
        assert (a, b) == before

    def test_rates_survive_merging(self):
        a = NetworkStats(datagrams=100, faults_injected=10, drops=5)
        b = NetworkStats(datagrams=300, faults_injected=30, drops=15)
        merged = a.merge(b)
        assert merged.drop_rate() == pytest.approx(0.05)


class TestChaosPartialAlgebra:
    def test_identity(self):
        rng = random.Random(31)
        partial = _random_chaos_partial(rng)
        empty = ChaosPartial()
        assert partial.merge(empty) == partial
        assert empty.merge(partial) == partial

    def test_associative_and_commutative(self):
        rng = random.Random(32)
        for _ in range(50):
            a, b, c = (_random_chaos_partial(rng) for _ in range(3))
            assert a.merge(b).merge(c) == a.merge(b.merge(c))
            assert a.merge(b) == b.merge(a)

    def test_real_faulted_shards_merge_order_free(self):
        # Behavioral check: partials produced by actual chaos shards
        # (faults, retries and all) fold to the same totals in any order.
        partials = [_chaos_shard(preset("lossy"), CHAOS_RETRY_POLICY,
                                 seed=2, fault_seed=9, shard_index=i,
                                 ingress_count=4)
                    for i in range(3)]
        baseline = ChaosPartial()
        for partial in partials:
            baseline = baseline.merge(partial)
        rng = random.Random(33)
        for _ in range(5):
            shuffled = list(partials)
            rng.shuffle(shuffled)
            merged = ChaosPartial()
            for partial in shuffled:
                merged = merged.merge(partial)
            assert merged == baseline
            assert merged.network == baseline.network


@dataclass
class _Stamp:
    ts: float
    tag: str


class TestOrderStableMerges:
    def test_merge_sorted_records_is_stable_sort(self):
        rng = random.Random(8)
        # Duplicated timestamps across shards exercise tie-breaking.
        shards = [sorted((_Stamp(rng.choice((1.0, 2.0, 3.0)), f"s{i}-{j}")
                          for j in range(20)), key=lambda r: r.ts)
                  for i in range(4)]
        merged = merge_sorted_records(shards)
        concat = [r for shard in shards for r in shard]
        assert merged == sorted(concat, key=lambda r: r.ts)

    def test_jsonl_shard_merge_equals_in_memory_merge(self, tmp_path):
        shard_lists = _shard_lists(4)
        base = tmp_path / "trace.jsonl"
        paths = write_jsonl_shards(shard_lists, base)
        assert [p.name for p in paths] == [f"trace.jsonl.shard{i:02d}"
                                           for i in range(4)]
        count = merge_jsonl_shards(paths, base)
        assert count == sum(len(s) for s in shard_lists)

        direct = tmp_path / "direct.jsonl"
        write_jsonl(merge_sorted_records(shard_lists), direct)
        assert base.read_bytes() == direct.read_bytes()

    def test_jsonl_merge_tie_break_is_shard_order(self, tmp_path):
        shards = [[_Stamp(1.0, "a"), _Stamp(2.0, "b")],
                  [_Stamp(1.0, "c"), _Stamp(2.0, "d")]]
        paths = write_jsonl_shards(shards, tmp_path / "t.jsonl")
        merge_jsonl_shards(paths, tmp_path / "t.jsonl")
        tags = [json.loads(line)["tag"] for line in
                (tmp_path / "t.jsonl").read_text().splitlines()]
        assert tags == ["a", "c", "b", "d"]

    def test_replay_partial_counts_queries(self):
        shard_lists = _shard_lists(4)
        records = merge_sorted_records(shard_lists)
        partial = replay_partial(records,
                                 client_of=lambda r: r.client_ip,
                                 scope_of=lambda r: r.scope,
                                 ttl_of=lambda r: r.ttl)
        assert partial.queries == len(records)
        assert partial.hits_no_ecs + partial.misses_no_ecs == len(records)
