"""Section 5 — discovering ECS-enabled resolvers: passive vs active.

Paper: the CDN vantage finds 4 147 ECS resolvers vs 278 (non-Google) from
the scan, with 234 of the 278 also present passively.  The shape to hold:
passive ≫ active, and the overlap covers most of the active set.
"""


from repro.analysis import analyze_discovery


def test_bench_discovery(scan_universe, scan_result, benchmark, save_report):
    analysis = benchmark.pedantic(
        lambda: analyze_discovery(scan_universe, scan_result, seed=42),
        rounds=1, iterations=1)
    save_report("section5_discovery", analysis.report())

    active = len(analysis.active_found)
    passive = len(analysis.passive_found)
    overlap = len(analysis.overlap)
    assert passive > 5 * active, "passive discovery must dominate"
    assert overlap >= 0.7 * active, "most active finds also appear passively"
    assert overlap < active, "a few active finds stay passive-invisible"
