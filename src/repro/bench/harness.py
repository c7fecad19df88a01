"""Evaluation harness: phased runs, per-iteration records, and reports.

The paper's figures are all per-iteration time series over *phases* (a
phase = a workload configuration, e.g. "data is now a float vector").  The
harness runs a workload through its phases on a fresh VM per configuration
and records wall time, simulated cycles and VM event counters for every
iteration, so figure drivers can print the same series the paper plots.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..jit.config import Config
from ..jit.vm import RVM
from .workload import Workload


@dataclass
class Phase:
    """One phase of a phased benchmark: optional setup, then N iterations."""

    name: str
    setup: str = ""
    call: str = ""
    iterations: int = 5


@dataclass
class IterationRecord:
    phase: str
    iteration: int
    wall_s: float
    cycles: float
    deopts: int
    deoptless_dispatches: int
    deoptless_compiles: int
    compiles: int
    osr_ins: int
    result_repr: str = ""


@dataclass
class RunResult:
    label: str
    records: List[IterationRecord] = field(default_factory=list)
    vm: Optional[RVM] = None

    def phase_records(self, phase: str) -> List[IterationRecord]:
        return [r for r in self.records if r.phase == phase]

    def wall_series(self) -> List[float]:
        return [r.wall_s for r in self.records]

    def cycles_series(self) -> List[float]:
        return [r.cycles for r in self.records]

    def stable_time(self, phase: str, skip: int = 1) -> float:
        """Median wall time of a phase's iterations after ``skip`` warmup."""
        xs = sorted(r.wall_s for r in self.phase_records(phase)[skip:])
        if not xs:
            return float("nan")
        return xs[len(xs) // 2]

    def stable_cycles(self, phase: str, skip: int = 1) -> float:
        xs = sorted(r.cycles for r in self.phase_records(phase)[skip:])
        if not xs:
            return float("nan")
        return xs[len(xs) // 2]

    def total_deopts(self) -> int:
        return self.records[-1].deopts if self.records else 0


def run_phases(
    config: Config,
    source: str,
    phases: Sequence[Phase],
    label: str = "",
    global_setup: str = "",
) -> RunResult:
    """Run ``phases`` on a fresh VM; returns per-iteration records."""
    vm = RVM(config)
    vm.eval(source)
    if global_setup:
        vm.eval(global_setup)
    out = RunResult(label=label, vm=vm)
    for phase in phases:
        if phase.setup:
            vm.eval(phase.setup)
        for it in range(phase.iterations):
            c0 = vm.cycles()
            t0 = time.perf_counter()
            result = vm.eval(phase.call)
            wall = time.perf_counter() - t0
            out.records.append(IterationRecord(
                phase=phase.name,
                iteration=it,
                wall_s=wall,
                cycles=vm.cycles() - c0,
                deopts=vm.state.deopts,
                deoptless_dispatches=vm.state.deoptless_dispatches,
                deoptless_compiles=vm.state.deoptless_compiles,
                compiles=vm.state.compiles,
                osr_ins=vm.state.osr_ins,
                result_repr=repr(result)[:60],
            ))
    return out


def compare_phases(
    source: str,
    phases: Sequence[Phase],
    base_config: Optional[Config] = None,
    global_setup: str = "",
) -> Tuple[RunResult, RunResult]:
    """Run the same phases under normal deoptimization and under deoptless.

    Contextual dispatch is pinned off on both sides: the paper's figures
    compare a *single* optimized version recovering at the exit boundary
    (deopt vs deoptless continuation).  Entry-specialized versions would
    absorb the phase change at the call boundary instead and flatten both
    series (that layer is the `ctxdispatch` row of DESIGN.md, "What each
    feature buys").
    """
    base = base_config or Config()
    normal_cfg = _clone_config(base, enable_deoptless=False, ctxdispatch=False)
    deoptless_cfg = _clone_config(base, enable_deoptless=True, ctxdispatch=False)
    normal = run_phases(normal_cfg, source, phases, "normal", global_setup)
    deoptless = run_phases(deoptless_cfg, source, phases, "deoptless", global_setup)
    return normal, deoptless


def _clone_config(base: Config, **overrides) -> Config:
    import dataclasses

    return dataclasses.replace(base, **overrides)


# ---------------------------------------------------------------------------
# simple report formatting
# ---------------------------------------------------------------------------

def geomean(xs: Sequence[float]) -> float:
    xs = [x for x in xs if x > 0 and not math.isnan(x)]
    if not xs:
        return float("nan")
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def format_series_table(results: Sequence[RunResult], metric: str = "wall_s") -> str:
    """Aligned per-iteration table across configurations."""
    lines = []
    header = "%-10s %-4s" % ("phase", "it")
    for r in results:
        header += " %14s" % r.label
    lines.append(header)
    n = max(len(r.records) for r in results)
    for i in range(n):
        rec0 = results[0].records[i] if i < len(results[0].records) else None
        row = "%-10s %-4s" % (rec0.phase if rec0 else "?", rec0.iteration if rec0 else "?")
        for r in results:
            if i < len(r.records):
                v = getattr(r.records[i], metric)
                row += " %14.6g" % v
            else:
                row += " %14s" % "-"
        lines.append(row)
    return "\n".join(lines)
