"""Tests for the benchmark harness and the cost model."""

import math

import pytest

from repro import Config, CostModel, RVM
from repro.bench.harness import (
    Phase,
    RunResult,
    compare_phases,
    format_series_table,
    geomean,
    run_phases,
)
from repro.jit.telemetry import Telemetry


SRC = "f <- function(x) x * 2\n"


def test_run_phases_records_each_iteration():
    res = run_phases(Config(), SRC, [Phase("a", "", "f(21)", 3)], label="t")
    assert len(res.records) == 3
    assert all(r.phase == "a" for r in res.records)
    assert all(r.wall_s >= 0 for r in res.records)


def test_run_phases_executes_setup_between_phases():
    phases = [
        Phase("p1", "y <- 1", "f(y)", 2),
        Phase("p2", "y <- 100", "f(y)", 2),
    ]
    res = run_phases(Config(), SRC, phases)
    assert res.records[-1].result_repr.startswith("dbl[200")


def test_stable_time_uses_median_after_skip():
    res = RunResult("x")
    from repro.bench.harness import IterationRecord

    for i, t in enumerate([9.0, 1.0, 2.0, 3.0]):
        res.records.append(IterationRecord("p", i, t, 0.0, 0, 0, 0, 0, 0))
    assert res.stable_time("p", skip=1) == 2.0


def test_compare_phases_returns_both_configs():
    normal, deoptless = compare_phases(SRC, [Phase("a", "", "f(1)", 2)])
    assert normal.label == "normal" and deoptless.label == "deoptless"
    assert normal.vm.config.enable_deoptless is False
    assert deoptless.vm.config.enable_deoptless is True


def test_geomean():
    assert abs(geomean([2.0, 8.0]) - 4.0) < 1e-12
    assert math.isnan(geomean([]))
    assert geomean([1.0, 0.0, 4.0]) == 2.0  # zeros are dropped


def test_format_series_table_alignment():
    a, b = compare_phases(SRC, [Phase("a", "", "f(1)", 2)])
    text = format_series_table([a, b])
    lines = text.splitlines()
    assert "normal" in lines[0] and "deoptless" in lines[0]
    assert len(lines) == 3


def test_cost_model_weights_generic_ops():
    t = Telemetry()
    t.native_ops = 100
    base = CostModel().cycles(t)
    t.native_generic_ops = 50
    assert CostModel().cycles(t) > base


def test_cost_model_dispatched_deopts_cheaper_than_tier_down():
    cm = CostModel()
    a = Telemetry()
    a.deopts = 10  # all tier down
    b = Telemetry()
    b.deopts = 10
    b.deoptless_dispatches = 10  # all dispatched
    assert cm.cycles(b) < cm.cycles(a)


def test_workload_scaling_helpers():
    from repro.bench.workload import REGISTRY, Workload
    import repro.bench.programs  # noqa: F401

    w = REGISTRY.get("sum_phases")
    assert "%d" not in w.setup_code(10)
    assert "{n}" not in w.setup_code(10)
    assert w.setup_code(10) != w.setup_code(20)
