"""Smoke test of the benchmark harness itself (not of the program).

Every workload runs at ``--scale 0.02`` — flagged non-comparable in the
output — once untraced and three times traced.  Collected only by
``PYTHONPATH=src python -m pytest benchmarks/e2e -q``; tier-1
(``testpaths = tests``) never sees it.
"""

import re

import pytest

import run as harness

SPEC = harness.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SMOKE = {"seconds": 0.1, "scale": 0.02}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Units of the per-layer metrics that are counts (or exact ratios of
#: counts) and so must repeat bit for bit under one seed.
COUNT_UNITS = {"1/op", "count", "B/op", "B"}
COUNT_RATIOS = {"core.cache.hit_ratio", "faults.unanswered_share"}


def counts_of(result):
    return {name: body["value"] for name, body in result["metrics"].items()
            if body["unit"] in COUNT_UNITS or name in COUNT_RATIOS}


def check_schema(result, detail, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    assert detail["failed_ops_share"] == 0
    assert detail["comparable"] is False
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        body = result["metrics"][metric["name"]]
        assert set(body) == {"value", "unit"}
        assert isinstance(body["value"], (int, float))
        assert body["unit"] == metric["unit"]
        assert NAME.match(metric["name"])


def test_benchmark_json_names():
    names = [w["name"] for w in SPEC["workloads"]] \
        + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    assert len(SPEC["per_layer"]) < 128


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_pass(workload):
    result, detail = harness.run_child(workload, 0, trace=0, **SMOKE)
    check_schema(result, detail, SPEC["end_to_end"])
    assert all(body["value"] > 0 for body in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass(workload):
    first, detail = harness.run_child(workload, 0, trace=1, **SMOKE)
    again, detail_again = harness.run_child(workload, 0, trace=1, **SMOKE)
    other, detail_other = harness.run_child(workload, 1, trace=1, **SMOKE)
    check_schema(first, detail, SPEC["per_layer"])
    assert first["metrics"]["trace.attributed_share"]["value"] >= 0.9

    # Same seed, same counts and same output; another seed, another load.
    assert counts_of(first) == counts_of(again)
    assert detail["report_sha256"] == detail_again["report_sha256"]
    assert (counts_of(first), detail["report_sha256"]) \
        != (counts_of(other), detail_other["report_sha256"])

    # The bypass predictions later performance issues rely on.
    calls = {name: value for name, value in counts_of(first).items()
             if name.endswith(".calls_per_op")}
    if workload == "mapping_direct":
        idle = ("resolvers.", "core.cache.", "dnslib.copy.")
    elif workload in ("trace_write", "replay_columnar", "replay_jsonl"):
        idle = ("dnslib.", "net.")
    else:
        idle = ()
    busy = [name for name, value in calls.items()
            if name.startswith(idle) and value != 0]
    assert not busy
    if workload != "chaos_lossy":
        assert calls["faults.hooks.calls_per_op"] == 0
        assert first["metrics"]["net.timeouts_per_op"]["value"] == 0
