"""Tests for figure-data export and a differential check between the two
cache implementations (full-fidelity EcsCache vs fast ScopeTracker)."""

import csv
import random

import pytest

from repro.analysis import (analyze_hidden_resolvers, export_all,
                            export_fig1, export_fig2, export_fig3,
                            export_fig45, export_fig67, client_sweep,
                            fig1_series, fig2_series, fig3_series)
from repro.analysis.export import _write_rows
from repro.analysis.mapping_quality import (MappingQualityLab,
                                            measure_mapping_quality)
from repro.core import EcsCache
from repro.core.cache import ScopeTracker
from repro.dnslib import (A, EcsOption, Message, Name, RecordType,
                          ResourceRecord)
from repro.net import SimClock


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestExports:
    def test_fig1_export(self, public_cdn_store, tmp_path):
        series = fig1_series(public_cdn_store, ttls=(20,))
        n = export_fig1(series, tmp_path / "fig1.csv")
        rows = read_csv(tmp_path / "fig1.csv")
        assert rows[0] == ["ttl_s", "blowup", "cdf"]
        assert len(rows) == n + 1
        assert float(rows[-1][2]) == pytest.approx(1.0)

    def test_fig2_export(self, allnames_dataset, allnames_store, tmp_path):
        series = fig2_series(client_sweep(
            allnames_store, allnames_dataset.client_ips,
            fractions=(0.5, 1.0), seeds=(1,)))
        export_fig2(series, tmp_path / "fig2.csv")
        rows = read_csv(tmp_path / "fig2.csv")
        assert len(rows) == 3
        assert float(rows[1][0]) == 0.5

    def test_fig3_export(self, allnames_dataset, allnames_store, tmp_path):
        series = fig3_series(client_sweep(
            allnames_store, allnames_dataset.client_ips, fractions=(1.0,),
            seeds=(1,)))
        export_fig3(series, tmp_path / "fig3.csv")
        rows = read_csv(tmp_path / "fig3.csv")
        assert rows[0][-1] == "hit_rate_ecs"
        assert 0.0 < float(rows[1][1]) <= 1.0

    def test_fig45_export(self, scan_universe, scan_result, tmp_path):
        analysis = analyze_hidden_resolvers(scan_universe, scan_result)
        n_mp = export_fig45(analysis, tmp_path / "fig4.csv", True)
        n_other = export_fig45(analysis, tmp_path / "fig5.csv", False)
        assert n_mp == len(analysis.split(True))
        assert n_other == len(analysis.split(False))

    def test_fig67_export(self, tmp_path):
        lab = MappingQualityLab.build(probe_count=20, seed=1)
        series = measure_mapping_quality(lab, lab.cdn1, lab.cdn1_qname,
                                         prefix_lengths=(23, 24), seed=0)
        export_fig67(series, tmp_path / "fig6.csv")
        rows = read_csv(tmp_path / "fig6.csv")
        lengths = {row[0] for row in rows[1:]}
        assert lengths == {"23", "24"}

    def test_export_all(self, public_cdn_store, tmp_path):
        series = fig1_series(public_cdn_store, ttls=(20,))
        written = export_all(tmp_path / "figures", fig1=series)
        assert written == ["fig1_blowup_cdf.csv"]
        assert (tmp_path / "figures" / "fig1_blowup_cdf.csv").exists()

    def test_interrupted_export_leaves_the_old_file(self, tmp_path):
        """A row the CSV writer cannot render, after one it wrote: the
        destination keeps its old bytes and no ``.tmp`` is left."""
        class Unrenderable:
            def __str__(self):
                raise RuntimeError("interrupted")

        path = tmp_path / "fig2.csv"
        path.write_text("old\n")
        with pytest.raises(RuntimeError, match="interrupted"):
            _write_rows(path, ("a", "b"), [(1, 2), (Unrenderable(), 3)])
        assert path.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [path]


class TestCacheDifferential:
    """EcsCache (full messages, compliant mode) and ScopeTracker (replay
    fast path) must agree on every hit/miss for the same access stream."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_hit_miss_agreement(self, seed):
        rng = random.Random(seed)
        clock = SimClock()
        full = EcsCache(clock)
        fast = ScopeTracker(use_ecs=True)
        names = [Name.from_text(f"n{i}.example.com") for i in range(6)]
        # Authoritative behavior is stable per name (the ScopeTracker
        # replay model's assumption, true of every dataset generator).
        policy = {name: (rng.choice((0, 16, 24)), rng.choice((5, 20, 60)))
                  for name in names}
        clients = [f"10.{rng.randrange(4)}.{rng.randrange(4)}.7"
                   for _ in range(12)]
        t = 0.0
        for _ in range(400):
            t += rng.expovariate(1.0) * 2.0
            clock.advance_to(t)
            qname = rng.choice(names)
            client = rng.choice(clients)
            scope, ttl = policy[qname]

            cached = full.lookup(qname, RecordType.A, client)
            if cached is None:
                ecs = EcsOption.from_client_address(client, 24)
                response = Message(is_response=True)
                response.answers.append(ResourceRecord(
                    qname, RecordType.A, ttl, A("203.0.113.1")))
                response.set_ecs(ecs.response_to(scope))
                full.store(qname, RecordType.A, response, ecs)
            fast_hit = fast.access(t, qname.to_text(), 1, client, scope, ttl)
            assert fast_hit == (cached is not None), (
                f"divergence at t={t:.2f} {qname} {client} scope={scope}")

    def test_size_agreement_snapshot(self):
        clock = SimClock()
        full = EcsCache(clock)
        fast = ScopeTracker(use_ecs=True)
        qname = Name.from_text("x.example.com")
        for i in range(10):
            client = f"10.0.{i}.1"
            ecs = EcsOption.from_client_address(client, 24)
            response = Message(is_response=True)
            response.answers.append(ResourceRecord(qname, RecordType.A, 60,
                                                   A("203.0.113.1")))
            response.set_ecs(ecs.response_to(24))
            full.store(qname, RecordType.A, response, ecs)
            fast.access(clock.now(), qname.to_text(), 1, client, 24, 60)
        assert full.size() == fast.current_size == 10
