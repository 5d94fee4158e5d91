"""Determinism contract of ``repro.engine``: workers never change bytes.

For every shardable builder and for the sharded replay, the merged
output of ``workers=1`` must equal the merged output of ``workers=4``
exactly — same records, same ReplayResults, same rendered report text —
because shard random streams are seeded from ``derive_seed(root_seed,
shard_index)`` and merged in shard order, independent of scheduling.
The engine-free reference is ``builder_reference.py``: the builder's
column stream read as records, in-process.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.analysis.cache_sim import replay
from repro.datasets import (AllNamesBuilder, CdnDatasetBuilder,
                            PublicCdnBuilder, RootTraceBuilder)
from repro.datasets.columnar import (convert_columnar, read_columnar,
                                     write_columnar_stream)
from repro.engine import derive_seed, shard_bounds, world_seed
from repro.datasets.records import write_jsonl
from repro.engine.executor import SUBMISSIONS_PER_WORKER, _chunk_bounds
from repro.engine.generate import generate_columnar, generate_jsonl
from repro.engine.replay import replay_columnar_sharded, replay_jsonl_sharded
from repro.engine.sharding import ShardSpec

from builder_reference import merged_records, shard_lists
from jsonl_reference import read_jsonl

SHARDS = 4


def _spec(name: str, **kwargs) -> ShardSpec:
    return ShardSpec.create(name, shard_count=SHARDS, **kwargs)


SPECS = {
    "allnames": lambda seed: _spec("allnames", scale=0.01, seed=seed),
    "public-cdn": lambda seed: _spec("public-cdn", scale=0.002, seed=seed,
                                     duration_s=300.0),
    "cdn": lambda seed: _spec("cdn", scale=0.002, seed=seed,
                              duration_s=900.0),
    "root": lambda seed: _spec("root-trace", resolver_count=48, violators=5,
                               seed=seed),
}


@pytest.fixture(scope="module")
def small_allnames_records():
    return list(merged_records(SPECS["allnames"](9)))


class TestSeeding:
    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(7, 0) == derive_seed(7, 0)
        seeds = {derive_seed(7, i) for i in range(64)}
        assert len(seeds) == 64
        assert derive_seed(7, 0) != derive_seed(8, 0)
        assert derive_seed(7, 0, "a") != derive_seed(7, 0, "b")
        assert world_seed(7, "a") == derive_seed(7, -1, "a")

    def test_shard_bounds_cover_everything_once(self):
        for total in (0, 1, 7, 8, 9, 100):
            bounds = shard_bounds(total, SHARDS)
            assert bounds[0][0] == 0 and bounds[-1][1] == total
            for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
                assert hi == lo


class TestBuilderDeterminism:
    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_workers_1_vs_4_identical_records(self, kind, tmp_path):
        spec = SPECS[kind](5)
        reference = list(merged_records(spec))
        for workers in (1, 4):
            generate_jsonl(spec, tmp_path / f"w{workers}.jsonl",
                           workers=workers)
        assert (tmp_path / "w1.jsonl").read_bytes() == \
            (tmp_path / "w4.jsonl").read_bytes()
        assert read_jsonl(tmp_path / "w4.jsonl",
                          type(reference[0])) == reference

    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_assembled_dataset_identical(self, kind, tmp_path):
        """The columnar route holds the in-process merge's order."""
        spec = SPECS[kind](5)
        for workers in (1, 4):
            generate_columnar(spec, tmp_path / f"w{workers}.col",
                              workers=workers)
        assert (tmp_path / "w1.col").read_bytes() == \
            (tmp_path / "w4.col").read_bytes()
        assert read_columnar(tmp_path / "w4.col") == \
            list(merged_records(spec))

    def test_different_seeds_differ(self):
        assert shard_lists(SPECS["allnames"](1)) != \
            shard_lists(SPECS["allnames"](2))

    def test_merged_records_time_sorted(self, tmp_path):
        generate_columnar(SPECS["public-cdn"](5), tmp_path / "t.col")
        timestamps = [r.ts for r in read_columnar(tmp_path / "t.col")]
        assert timestamps == sorted(timestamps)

    def test_root_trace_ground_truth_stable(self):
        spec = SPECS["root"](5)
        first = spec.make_builder().build()
        again = spec.make_builder().build()
        assert first.violator_ips == again.violator_ips
        assert len(first.violator_ips) == 5
        # The sharded trace's ECS senders are the same ground truth.
        assert {r.resolver_ip for r in merged_records(spec)
                if r.has_ecs} == set(first.violator_ips)


class TestReplayDeterminism:
    @pytest.fixture()
    def small_allnames_trace(self, small_allnames_records, tmp_path):
        path = tmp_path / "allnames.col"
        write_columnar_stream(small_allnames_records, path, "allnames")
        return path

    def test_workers_1_vs_4_identical_result(self, small_allnames_records,
                                             small_allnames_trace,
                                             oracle_replay):
        r1, _ = replay_columnar_sharded(small_allnames_trace, "allnames",
                                        shards=SHARDS, workers=1)
        r4, _ = replay_columnar_sharded(small_allnames_trace, "allnames",
                                        shards=SHARDS, workers=4)
        assert r1 == r4 == oracle_replay(small_allnames_records,
                                         "allnames", SHARDS)

    def test_single_shard_matches_legacy_replay(self, small_allnames_records,
                                                small_allnames_trace):
        sharded, _ = replay_columnar_sharded(small_allnames_trace,
                                             "allnames", shards=1, workers=1)
        legacy = replay(small_allnames_records,
                        client_of=lambda r: r.client_ip,
                        scope_of=lambda r: r.scope,
                        ttl_of=lambda r: r.ttl)
        assert sharded == legacy

    def test_public_cdn_kind(self, tmp_path, oracle_replay):
        records = merged_records(SPECS["public-cdn"](9))
        path = tmp_path / "public-cdn.col"
        write_columnar_stream(records, path, "public-cdn")
        r1, _ = replay_columnar_sharded(path, "public-cdn",
                                        shards=SHARDS, workers=1)
        r4, _ = replay_columnar_sharded(path, "public-cdn",
                                        shards=SHARDS, workers=4)
        assert r1 == r4 == oracle_replay(records, "public-cdn", SHARDS)

    def test_unknown_kind_rejected(self, small_allnames_trace):
        for replay_trace in (replay_columnar_sharded, replay_jsonl_sharded):
            with pytest.raises(ValueError, match="unknown trace kind"):
                replay_trace(small_allnames_trace, "nope")


def test_batched_submissions_equal_inline_reference(tmp_path):
    """16 shards on 2 workers go out 2 per pool submission (the auto
    rule); generated bytes and replay counters still equal the inline run."""
    assert _chunk_bounds(16, 16 // (2 * SUBMISSIONS_PER_WORKER))[0] == (0, 2)
    spec = ShardSpec.create("allnames", shard_count=16, scale=0.01, seed=5)
    runs = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}.col"
        generate_columnar(spec, out, workers=workers)
        result, _ = replay_columnar_sharded(out, "allnames", shards=16,
                                            workers=workers)
        runs.append((out.read_bytes(), result))
    assert runs[0] == runs[1]


class TestGoldenBytes:
    """Byte-identity *across commits*, not only across worker counts.

    The digests were recorded at the commit before trace writing went
    column-at-a-time (PR 13's parent).  A builder that reorders its
    ``rng`` draws, or a writer that encodes a cell differently, moves
    them; re-record only for a change that means to alter the bytes.
    """

    GOLDEN = {
        "columnar": "46bc11ff05a5d9a8c17940477358b99b"
                    "542558097dcb022d4a1b75767bc28f0f",
        "jsonl": "f16214b74f8fb6c19cfd8fcdec40d493"
                 "1f9df40dc7826c75ea8960270ddc4ead",
        "build": "89e195f9e50fa2c1fed3e29d3d1e64d1"
                 "bf7948a2c394f7c6dd9e7cc01e5806c9",
        # public-cdn, recorded at the commit before its builder went
        # column-at-a-time (PR 22's parent)
        "public-cdn jsonl": "5b9db7724cc7f5d74f95ab3e90cae194"
                            "9c9cdb9e7599cd8aa1fb053ad7d9e0d9",
        "public-cdn build": "829208c1857336e1a38a4658be778f4c"
                            "33f4d9d8231b1b0c6b1df93fe0921cdd",
    }

    @staticmethod
    def _sha256(path) -> str:
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_allnames_trace_sha256(self, tmp_path):
        spec = ShardSpec.create("allnames", shard_count=4, scale=0.01,
                                seed=0)
        rows, _ = generate_columnar(spec, tmp_path / "t.col",
                                    row_group_rows=256)
        assert rows == 5500
        assert self._sha256(tmp_path / "t.col") == self.GOLDEN["columnar"]
        rows, _ = generate_jsonl(spec, tmp_path / "t.jsonl")
        assert rows == 5500
        assert self._sha256(tmp_path / "t.jsonl") == self.GOLDEN["jsonl"]

    #: ``convert_columnar`` over the committed JSONL fixtures, as one
    #: default-size group and in 64-row groups; recorded at the commit
    #: before ``convert`` stopped building a record per line (PR 19's
    #: parent).
    CONVERTED = {
        "allnames": ("fbf3b6c525f3aca0120bd0f7219a0326"
                     "7a5c843081da0f7742cf265a41dcd89d",
                     "df3cd81afefa236b6188119a2ab0af08"
                     "5b28b45a398c0edd4dfa03b93dc99f3a"),
        "cdn": ("b9e102ab63a4d99d70abf8fa3ac14a78"
                "0f2ec5ba2f187c109e2c6343d2e3dddf",
                "554fe04ce3e585ef9dfee7e330c0eca8"
                "9e8303b5e9d3c546c57754d9103b8c1a"),
    }

    @pytest.mark.parametrize("schema", sorted(CONVERTED))
    def test_converted_jsonl_sha256(self, schema, tmp_path):
        src = Path(__file__).parent / "data" / f"{schema}_v1.jsonl"
        for group_rows, digest in zip((None, 64), self.CONVERTED[schema]):
            convert_columnar(src, tmp_path / "t.col", schema, group_rows)
            assert self._sha256(tmp_path / "t.col") == digest, group_rows

    def test_allnames_unsharded_build_sha256(self, tmp_path):
        """``build()`` draws from a different seed than the shards but
        shares their row loop; pin its stream too."""
        records = AllNamesBuilder(scale=0.01, seed=0).build().records
        write_jsonl(records, tmp_path / "b.jsonl")
        assert self._sha256(tmp_path / "b.jsonl") == self.GOLDEN["build"]

    def test_public_cdn_trace_sha256(self, tmp_path):
        """The sharded stream and the unsharded ``build()`` (another
        seed, the same row loop) of the builder no allnames digest
        covers."""
        spec = ShardSpec.create("public-cdn", shard_count=4, scale=0.002,
                                seed=0, duration_s=360)
        rows, _ = generate_jsonl(spec, tmp_path / "t.jsonl")
        assert rows == 18786
        assert (self._sha256(tmp_path / "t.jsonl")
                == self.GOLDEN["public-cdn jsonl"])
        records = PublicCdnBuilder(scale=0.002, seed=0,
                                   duration_s=360).build().records
        assert write_jsonl(records, tmp_path / "b.jsonl") == 21436
        assert (self._sha256(tmp_path / "b.jsonl")
                == self.GOLDEN["public-cdn build"])

    #: cdn and root-trace, recorded at the commit before their builders
    #: went column-at-a-time: ``(rows, sha256)`` of
    #: ``generate_columnar`` (4 shards, 256-row groups) and of
    #: ``write_jsonl(build().records)``, per seed.
    BUILDERS = {
        ("cdn", 0): ((850, "9e6d04308b500e0153f7f990c7c0d377"
                           "7d3b91971c48fe3ef0284bb3a532d837"),
                     (852, "e2cf4a85ed2fae21f9a1c031fec91674"
                           "0c889e5c14f04cc49b725d17e189a9ab")),
        ("cdn", 7): ((999, "4243ef80a4f3472680ee836eda75379c"
                           "bf88bc969d512e18054ea078473c530c"),
                     (861, "a989e8b4043453588712f1773f66e834"
                           "ddfe0426a37aeeaf00c0d02e0ec66812")),
        ("root-trace", 0): ((476, "5b5fa5c4321afa04303193a6a841c902"
                                  "c72b4000b54e3ea793e47c139e492fda"),
                            (23459, "6caef0aa2e429fb0461f9eff8d556485"
                                    "f4611e66baa3b90897794fde9813ebb9")),
        ("root-trace", 7): ((505, "e4224f2fd8319d41bfed01c80d211ef5"
                                  "dfbbd9d04737cbe9d83e2283d02d47ac"),
                            (23622, "524ba02faf08b95f83fd3ab9844738d4"
                                    "e244146d668566130c0f2eddad5dc28c")),
    }

    @pytest.mark.parametrize("name,seed", sorted(BUILDERS))
    def test_census_builder_sha256(self, name, seed, tmp_path):
        """The two section 6.1 builders: the sharded stream and the
        unsharded ``build()``."""
        (rows, digest), (built, built_digest) = self.BUILDERS[name, seed]
        if name == "cdn":
            kwargs = dict(scale=0.004, duration_s=900)
            builder = CdnDatasetBuilder(seed=seed, **kwargs)
        else:
            kwargs = dict(resolver_count=48, violators=5, duration_s=600)
            builder = RootTraceBuilder(400, 15, seed=seed)
        spec = ShardSpec.create(name, shard_count=4, seed=seed, **kwargs)
        assert generate_columnar(spec, tmp_path / "t.col",
                                 row_group_rows=256)[0] == rows
        assert self._sha256(tmp_path / "t.col") == digest
        assert write_jsonl(builder.build().records,
                           tmp_path / "b.jsonl") == built
        assert self._sha256(tmp_path / "b.jsonl") == built_digest


class TestCliDeterminism:
    """End-to-end: the CLI's rendered artifacts are worker-independent."""

    def _generate(self, tmp_path, tag, workers):
        from repro.cli import main
        trace = tmp_path / f"trace-{tag}.jsonl"
        rc = main(["--seed", "3", "--quiet", "generate", "allnames",
                   str(trace), "--scale", "0.01",
                   "--shards", str(SHARDS), "--workers", str(workers)])
        assert rc == 0
        return trace

    def test_generate_bytes_identical(self, tmp_path):
        serial = self._generate(tmp_path, "w1", 1)
        parallel = self._generate(tmp_path, "w4", 4)
        assert serial.read_bytes() == parallel.read_bytes()
        assert serial.stat().st_size > 0

    def test_replay_report_bytes_identical(self, tmp_path):
        from repro.cli import main
        trace = self._generate(tmp_path, "replay", 1)
        reports = {}
        for workers in (1, 4):
            out = tmp_path / f"out-w{workers}"
            rc = main(["--quiet", "--out", str(out), "replay", "allnames",
                       str(trace), "--shards", str(SHARDS),
                       "--workers", str(workers)])
            assert rc == 0
            reports[workers] = (out / "replay.txt").read_bytes()
        assert reports[1] == reports[4]
        assert b"blow-up factor" in reports[1]
