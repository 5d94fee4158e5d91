"""Tests for workload models, record IO, and the dataset generators."""

import dataclasses
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classify import classify_probing, prefix_length_profile
from repro.datasets import (AllNamesBuilder, CdnDatasetBuilder,
                            RootTraceBuilder, ScanUniverseBuilder, ZipfSampler,
                            poisson_arrivals, write_jsonl)
from repro.datasets.allnames import (CLIENT_ALPHA, ZIPF_ALPHA, _Clients,
                                     _sld_of)
from repro.datasets.ditl import count_root_ecs_violators
from repro.datasets.records import AllNamesRecord, CdnQueryRecord
from repro.datasets.workload import COLUMN_CHUNK_ROWS, SldPolicy
from repro.engine.seeding import derive_seed
from repro.engine.sharding import shard_bounds
from repro.net import same_prefix

from jsonl_reference import read_jsonl


class TestZipf:
    def test_rank_zero_most_likely(self):
        sampler = ZipfSampler(100, 1.0)
        rng = random.Random(7)
        counts = [0] * 100
        for _ in range(5000):
            counts[sampler.sample(rng)] += 1
        assert counts[0] == max(counts)
        assert counts[0] > 3 * counts[50]

    def test_all_ranks_reachable(self):
        sampler = ZipfSampler(5, 0.5)
        rng = random.Random(1)
        seen = {sampler.sample(rng) for _ in range(2000)}
        assert seen == set(range(5))

    def test_bad_n_rejected(self):
        with pytest.raises(ValueError):
            ZipfSampler(0)

    def test_deterministic(self):
        s = ZipfSampler(50, 1.1)
        a = [s.sample(random.Random(3)) for _ in range(10)]
        b = [s.sample(random.Random(3)) for _ in range(10)]
        assert a == b


class _FixedDraw:
    """Stands in for ``random.Random``: hands out one chosen ``u``."""

    def __init__(self, u: float) -> None:
        self.u = u
        self.draws = 0

    def random(self) -> float:
        self.draws += 1
        return self.u


def _binary_search_rank(cdf, u):
    """The hand-written search ``ZipfSampler.sample`` used to run."""
    lo, hi = 0, len(cdf) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cdf[mid] < u:
            lo = mid + 1
        else:
            hi = mid
    return lo


class TestZipfMatchesBinarySearch:
    """``sample`` is pinned to the loop it replaced: same rank for every
    ``u`` and exactly one ``rng.random()`` draw, so no builder's random
    stream (and no golden trace) can move."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 300),
           alpha=st.floats(0.0, 3.0, allow_nan=False),
           u=st.floats(0.0, 1.0, exclude_max=True), data=st.data())
    def test_same_rank_one_draw(self, n, alpha, u, data):
        sampler = ZipfSampler(n, alpha)
        # Half the time land exactly on a CDF entry, the search's edge.
        if data.draw(st.booleans()):
            u = sampler._cdf[data.draw(st.integers(0, n - 1))]
        rng = _FixedDraw(u)
        assert sampler.sample(rng) == _binary_search_rank(sampler._cdf, u)
        assert rng.draws == 1

    def test_single_rank_never_searches_past_zero(self):
        sampler = ZipfSampler(1, 1.0)
        assert [sampler.sample(_FixedDraw(u)) for u in (0.0, 0.5, 1.0)] \
            == [0, 0, 0]
        assert sampler.ranks([0.0, 0.5, 1.0]) == [0, 0, 0]

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 300),
           alpha=st.floats(0.0, 3.0, allow_nan=False),
           us=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=40),
           data=st.data())
    def test_ranks_equal_sample_over_the_same_draws(self, n, alpha, us,
                                                    data):
        """``ranks(us)`` is ``sample`` once per ``u``, in order — with
        ``u`` exactly on CDF entries mixed in, the search's edge."""
        sampler = ZipfSampler(n, alpha)
        edges = data.draw(st.lists(st.integers(0, n - 1), max_size=10))
        us = us + [sampler._cdf[index] for index in edges]
        us = data.draw(st.permutations(us))
        assert sampler.ranks(us) \
            == [sampler.sample(_FixedDraw(u)) for u in us]


def _allnames_column_chunks_rowwise(builder, world, rng, lo, hi):
    """The per-row loop ``AllNamesBuilder._column_chunks`` ran before it
    drew a chunk at C level; kept as the oracle of that stream.

    Per row: three draws (inter-arrival, hostname rank, client rank —
    in that order, the order every golden depends on), two table reads
    and six appends.
    """
    hostnames, policies, clients = world
    names = []
    for hostname in hostnames:
        policy = policies[_sld_of(hostname)]
        names.append((hostname, policy.ttl,
                      (policy.scope, 0 if policy.scope == 0 else 48)))
    all_clients = [(client, 28, 1) if ":" in client else (client, 1, 0)
                   for client in clients.all_clients]
    sample_name = ZipfSampler(len(names), ZIPF_ALPHA).sample
    sample_client = ZipfSampler(len(all_clients),
                                CLIENT_ALPHA).sample
    expovariate = rng.expovariate
    step = builder.duration_s / builder.total_queries
    t = lo * step
    for start in range(lo, hi, COLUMN_CHUNK_ROWS):
        chunk = [[], [], [], [], [], []]
        (add_ts, add_client, add_qname, add_qtype, add_scope,
         add_ttl) = [column.append for column in chunk]
        for _ in range(start, min(hi, start + COLUMN_CHUNK_ROWS)):
            t += expovariate(1.0) * step
            hostname, ttl, scopes = names[sample_name(rng)]
            client, qtype, family = all_clients[sample_client(rng)]
            add_ts(t)
            add_client(client)
            add_qname(hostname)
            add_qtype(qtype)
            add_scope(scopes[family])
            add_ttl(ttl)
        yield chunk


@pytest.mark.oracle
class TestAllNamesStreamMatchesRowLoop:
    """The C-level chunk draw is the per-row loop it replaced: same
    ``random()`` values in the same cells, column for column, for any
    seed, scale and shard — empty shards and one-entry tables too."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32), scale=st.floats(0.001, 0.012),
           data=st.data())
    def test_shard_stream_equals_the_row_loop(self, seed, scale, data):
        builder = AllNamesBuilder(scale=scale, seed=seed)
        total = builder.total_queries
        shard_count = data.draw(st.one_of(
            st.integers(1, 6), st.integers(total, total + 4)))
        shard_index = data.draw(st.integers(0, shard_count - 1))
        lo, hi = shard_bounds(total, shard_count)[shard_index]
        oracle = list(_allnames_column_chunks_rowwise(
            builder, builder._world(), random.Random(
                derive_seed(seed, shard_index, builder._SEED_NS)), lo, hi))
        assert list(builder.iter_shard_columns(shard_index,
                                               shard_count)) == oracle
        assert sum(len(chunk[0]) for chunk in oracle) == hi - lo

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32), scope=st.sampled_from([0, 16, 24]),
           v6=st.booleans(), lo=st.integers(0, 50),
           rows=st.integers(0, 300) | st.sampled_from(
               [COLUMN_CHUNK_ROWS - 1, COLUMN_CHUNK_ROWS,
                COLUMN_CHUNK_ROWS + 3]))
    def test_one_hostname_one_client(self, seed, scope, v6, lo, rows):
        """Samplers of ``n=1``: every rank is 0, and the draws still
        move the clock."""
        builder = AllNamesBuilder(scale=0.01, seed=seed)
        client = "2610:0:0::1" if v6 else "100.64.0.1"
        world = (["h0.s00000.com."],
                 {"s00000.com.": SldPolicy(ttl=60, scope=scope)},
                 _Clients([] if v6 else [client], [client] if v6 else []))
        chunks = list(builder._column_chunks(
            world, random.Random(seed), lo, lo + rows))
        assert chunks == list(_allnames_column_chunks_rowwise(
            builder, world, random.Random(seed), lo, lo + rows))
        assert [len(chunk[0]) for chunk in chunks] == [
            min(COLUMN_CHUNK_ROWS, rows - start)
            for start in range(0, rows, COLUMN_CHUNK_ROWS)]


class TestPoisson:
    def test_rate_matches(self):
        ts = poisson_arrivals(10.0, 1000.0, random.Random(5))
        assert 9000 < len(ts) < 11000

    def test_sorted_in_window(self):
        ts = poisson_arrivals(1.0, 100.0, random.Random(5), start=50.0)
        assert ts == sorted(ts)
        assert all(50 <= t < 150 for t in ts)

    def test_zero_rate(self):
        assert poisson_arrivals(0, 100, random.Random(1)) == []


class TestRecordIO:
    def test_jsonl_roundtrip(self, tmp_path):
        records = [AllNamesRecord(1.0, "10.0.0.1", "a.com.", 1, 24, 60),
                   AllNamesRecord(2.0, "10.0.0.2", "b.com.", 28, 48, 20)]
        path = tmp_path / "records.jsonl"
        assert write_jsonl(records, path) == 2
        loaded = read_jsonl(path, AllNamesRecord)
        assert loaded == records

    def test_jsonl_lines_match_asdict(self, tmp_path):
        """Field-by-name dicts serialize to the bytes ``asdict`` gave,
        for mixed record types in one stream and for ``None`` fields."""
        records = [AllNamesRecord(1.5, "10.0.0.1", "a.com.", 1, 24, 60),
                   CdnQueryRecord(2.0, "r", "q.", 1, True, "10.1.0.0", 24),
                   CdnQueryRecord(3.0, "r", "é.", 28, False)]
        path = tmp_path / "records.jsonl"
        assert write_jsonl(iter(records), path) == 3
        assert path.read_text(encoding="utf-8") == "".join(
            json.dumps(dataclasses.asdict(r), separators=(",", ":")) + "\n"
            for r in records)

    def test_jsonl_rejects_non_dataclass(self, tmp_path):
        with pytest.raises(TypeError):
            write_jsonl([("not", "a", "record")], tmp_path / "bad.jsonl")


class TestCdnDataset:
    def test_population_mix_scaled(self, cdn_dataset):
        from collections import Counter
        truth = Counter(s.probing for s in cdn_dataset.resolvers)
        # ALWAYS dominates, as in the paper (3382 of 4147).
        assert truth["always_ecs"] > truth["mixed"] > truth["hostname_probes"]

    def test_every_resolver_has_records(self, cdn_dataset):
        by = cdn_dataset.by_resolver()
        assert all(by.get(s.ip) for s in cdn_dataset.resolvers)

    def test_records_sorted(self, cdn_dataset):
        ts = [r.ts for r in cdn_dataset.records]
        assert ts == sorted(ts)

    def test_classifier_recovers_ground_truth(self, cdn_dataset):
        by = cdn_dataset.by_resolver()
        correct = 0
        for spec in cdn_dataset.resolvers:
            verdict = classify_probing(by[spec.ip], record_ttl=20)
            if verdict.category.value == spec.probing:
                correct += 1
        assert correct / len(cdn_dataset.resolvers) >= 0.95

    def test_prefix_profiles_match_assignment(self, cdn_dataset):
        by = cdn_dataset.by_resolver()
        checked = 0
        for spec in cdn_dataset.resolvers:
            if spec.probing != "always_ecs" or spec.is_v6:
                continue
            profile = prefix_length_profile(by[spec.ip])
            assert profile.table1_label() == spec.profile
            checked += 1
        assert checked > 5

    def test_dominant_as_is_jammed_chinese(self, cdn_dataset):
        dominant = [s for s in cdn_dataset.resolvers if s.dominant_as]
        assert dominant
        assert all(s.country == "CN" for s in dominant)
        assert all("jammed" in s.profile for s in dominant)

    def test_v6_resolvers_present(self, cdn_dataset):
        assert any(s.is_v6 for s in cdn_dataset.resolvers)

    def test_deterministic(self):
        a = CdnDatasetBuilder(scale=0.005, seed=9, duration_s=600).build()
        b = CdnDatasetBuilder(scale=0.005, seed=9, duration_s=600).build()
        assert a.records == b.records

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            CdnDatasetBuilder(scale=0)


class TestAllNamesDataset:
    def test_schema_complete(self, allnames_dataset):
        record = allnames_dataset.records[0]
        assert record.client_ip and record.qname.endswith(".")
        assert record.scope >= 0 and record.ttl > 0

    def test_scope_zero_absent(self, allnames_dataset):
        # By construction the dataset only holds non-zero-scope responses.
        assert all(r.scope > 0 for r in allnames_dataset.records)

    def test_sld_policies_stable(self, allnames_dataset):
        per_sld = {}
        for record in allnames_dataset.records:
            sld = _sld_of(record.qname)
            if record.qtype == 1:
                per_sld.setdefault(sld, set()).add((record.scope, record.ttl))
        assert all(len(v) == 1 for v in per_sld.values())

    def test_v6_clients_get_v6_scope(self, allnames_dataset):
        v6 = [r for r in allnames_dataset.records if ":" in r.client_ip]
        assert v6 and all(r.scope == 48 for r in v6)
        assert all(r.qtype == 28 for r in v6)

    def test_duration_respected(self, allnames_dataset):
        assert max(r.ts for r in allnames_dataset.records) <= \
            allnames_dataset.duration_s * 1.2

    def test_sld_of(self):
        assert _sld_of("h1.s00001.com.") == "s00001.com."
        assert _sld_of("a.b.c.example.org.") == "example.org."


class TestPublicCdnDataset:
    def test_all_records_carry_ecs(self, public_cdn_dataset):
        assert all(r.ecs_source_len == 24 and r.scope == 24
                   for r in public_cdn_dataset.records)

    def test_fixed_ttl(self, public_cdn_dataset):
        assert all(r.ttl == 20 for r in public_cdn_dataset.records)

    def test_heterogeneous_volumes(self, public_cdn_dataset):
        volumes = Counter(r.resolver_ip for r in public_cdn_dataset.records)
        sizes = sorted(volumes.values())
        assert sizes[-1] > 5 * max(1, sizes[0])

    def test_grouping_covers_all_records(self, public_cdn_dataset):
        assert {r.resolver_ip for r in public_cdn_dataset.records} <= \
            set(public_cdn_dataset.resolver_ips)


class TestScanUniverse:
    def test_paired_forwarders_exist_for_specs(self, scan_universe):
        from itertools import combinations
        grouped = scan_universe.chains_by_egress()
        for spec in scan_universe.egress_specs[:5]:
            chains = grouped[spec.ip]
            pairs = [(a, b) for a, b in combinations(chains, 2)
                     if not a.hidden_ips and not b.hidden_ips
                     and same_prefix(a.forwarder_ip, b.forwarder_ip, 16)
                     and not same_prefix(a.forwarder_ip, b.forwarder_ip, 24)]
            assert pairs

    def test_hidden_fraction_rough(self, scan_universe):
        with_hidden = sum(1 for c in scan_universe.chains if c.hidden_ips)
        fraction = with_hidden / len(scan_universe.chains)
        assert 0.2 < fraction < 0.7

    def test_ground_truth_cities_recorded(self, scan_universe):
        for chain in scan_universe.chains[:10]:
            assert chain.forwarder_city
            city = scan_universe.topology.city_of(chain.forwarder_ip)
            assert city and city.name == chain.forwarder_city

    def test_deterministic(self):
        a = ScanUniverseBuilder(seed=3, ingress_count=20).build()
        b = ScanUniverseBuilder(seed=3, ingress_count=20).build()
        assert [c.forwarder_ip for c in a.chains] == \
            [c.forwarder_ip for c in b.chains]
        assert [s.policy_name for s in a.egress_specs] == \
            [s.policy_name for s in b.egress_specs]


class TestDitl:
    def test_violator_count_exact(self):
        trace = RootTraceBuilder(resolver_count=100, violators=7,
                                 seed=2).build()
        assert count_root_ecs_violators(trace.records) == 7
        assert len(trace.violator_ips) == 7

    def test_regular_resolvers_clean(self):
        trace = RootTraceBuilder(resolver_count=50, violators=0,
                                 seed=2).build()
        assert count_root_ecs_violators(trace.records) == 0

    def test_too_many_violators_rejected(self):
        with pytest.raises(ValueError):
            RootTraceBuilder(resolver_count=5, violators=6)
