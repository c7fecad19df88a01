"""Smoke test of the end-to-end benchmark's harness (not of its numbers).

Lives outside ``testpaths``; run it with
``python -m pytest benchmarks/e2e/test_e2e_smoke.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")

for _p in (HERE, os.path.join(ROOT, "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--smoke", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def _check_result(result, metrics, printed):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    shown = {line.split()[0]: line.split() for line in printed if line.startswith("  ")}
    for m in metrics:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
        # printed by name, with its unit
        assert shown[m["name"]][-1] == m["unit"]


def test_untraced_smoke_prints_every_end_to_end_metric():
    for workload in ("compile-cold", "interp-only"):
        printed, result = _run(workload, 0)
        _check_result(result, _bench()["end_to_end"], printed)
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_spans_nest_and_self_times_add_up():
    printed, result = _run("compile-cold", 1)
    _check_result(result, _bench()["per_layer"], printed)

    path = os.path.join(ROOT, "benchmarks", "results", "e2e", "trace-compile-cold.jsonl")
    with open(path) as fh:
        header, *rows = [json.loads(line) for line in fh]
    spans = {r["id"]: r for r in rows if not r.get("hot")}
    hot = [r for r in rows if r.get("hot")]
    assert spans and hot
    for s in spans.values():
        assert s["t0_ns"] <= s["t1_ns"] and 0 <= s["self_ns"] <= s["t1_ns"] - s["t0_ns"]
        if s["parent"] is not None:
            parent = spans[s["parent"]]          # every parent id exists
            assert parent["thread"] == s["thread"]
            assert parent["t0_ns"] <= s["t0_ns"] and s["t1_ns"] <= parent["t1_ns"]
    roots = sum(s["t1_ns"] - s["t0_ns"] for s in spans.values() if s["parent"] is None)
    roots += sum(r["total_ns"] for r in hot if r["parent_name"] is None)
    self_total = sum(r["self_ns"] for r in rows)
    assert abs(self_total - roots) <= 0.01 * roots
    assert abs(header["root_ns"] - roots) <= 0.01 * roots


def test_benchmark_json_lists_the_layer_table():
    import layers
    import workloads
    bench = _bench()
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [(m, u, b) for m, u, b, _ in layers.PER_LAYER]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert bench["run_seconds"] == workloads.REFERENCE_SECONDS


def test_tracer_restores_every_patched_attribute():
    from repro import RVM, Config
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    patched = tracer.patched()
    assert patched
    for owner, attr, old in patched:
        assert vars(owner)[attr] is not old
    vm = RVM(Config(codecache_dir=None))
    vm.eval("f <- function(x) x + 1\nfor (i in 1:5) f(i)")
    assert tracer.span_count() > 0
    tracer.uninstall()
    assert tracer.patched() == []
    for owner, attr, old in patched:
        assert vars(owner)[attr] is old
    before = tracer.span_count()
    vm.eval("f(1)")
    assert tracer.span_count() == before


def test_host_clock_divides_a_span_by_the_slowdown_around_it():
    import hostspeed

    clock = hostspeed.HostClock()
    ref = hostspeed.REFERENCE_S
    # four samples, at t = 0, 10, 20, 30, the kernel taking 1x, 2x, 3x, 4x
    clock._starts = [0.0, 10.0, 20.0, 30.0]
    clock._ends = [1.0, 11.0, 21.0, 31.0]
    clock._costs = [ref, 2 * ref, 3 * ref, 4 * ref]
    assert clock.slowdown((12.0, 19.0)) == pytest.approx(2.5)   # two before, two after
    assert clock.slowdown((1.5, 9.0)) == pytest.approx(2.0)     # only one before
    assert clock.slowdown((32.0, 40.0)) == pytest.approx(3.5)   # none after
    assert clock.seconds((12.0, 17.0)) == pytest.approx(2.0)

    clock = hostspeed.HostClock(gap_s=3600.0)
    clock.tick()
    clock.tick()                                    # too soon for a second sample
    assert len(clock.slowdowns()) == 1
    assert 0.2 < clock.slowdowns()[0] < 20
