"""Ablations over the deoptless policy knobs the paper fixes by fiat:
the dispatch-table bound (5), the context size limits (stack 16 / env 32),
and the feedback-repair pass.  These quantify the design choices DESIGN.md
calls out.
"""

import dataclasses

from conftest import bench_scale, report
from repro import Config, RVM, from_r

POLY_SRC = """
poly <- function(v, n) { s <- 0\nfor (i in 1:n) s <- s + v[[i]]\ns }
"""

SETUP = [
    "xi <- integer(%(n)d); for (i in 1:%(n)d) xi[[i]] <- i",
    "xd <- numeric(%(n)d); for (i in 1:%(n)d) xd[[i]] <- i * 0.5",
    "xc <- complex(%(n)d)",
    "xl <- logical(%(n)d)",
]

CYCLE = ["poly(xi, %(n)dL)", "poly(xd, %(n)dL)", "poly(xc, %(n)dL)", "poly(xl, %(n)dL)"]


def run_with_table_bound(bound: int, n: int, rounds: int = 4):
    # ctxdispatch off (as in the context-size ablation below): a specialized
    # entry version would absorb each type change at the call boundary, no
    # deopt would happen and every row would read 0
    vm = RVM(Config(enable_deoptless=True, compile_threshold=2, ctxdispatch=False,
                    deoptless_max_continuations=bound))
    vm.eval(POLY_SRC)
    for s in SETUP:
        vm.eval(s % {"n": n})
    for _ in range(4):
        vm.eval("poly(xi, %dL)" % n)
    for _ in range(rounds):
        for c in CYCLE:
            vm.eval(c % {"n": n})
    return vm


def test_table_bound_ablation(bench_scale):
    """More slots = more dispatches survive; with bound 1 the extra types
    keep falling back to real deoptimization."""
    n = 100 if bench_scale == "test" else 1000
    lines = ["bound  dispatches  bailout-deopts  compiles"]
    stats = {}
    for bound in (1, 2, 3, 5):
        vm = run_with_table_bound(bound, n)
        tier_downs = vm.state.deopts - vm.state.deoptless_dispatches
        stats[bound] = (vm.state.deoptless_dispatches, tier_downs)
        lines.append("%5d  %10d  %14d  %8d" % (
            bound, vm.state.deoptless_dispatches, tier_downs, vm.state.compiles))
    report("Ablation: dispatch table bound", "\n".join(lines))
    # more capacity must never dispatch less
    assert stats[5][0] >= stats[2][0] >= stats[1][0] > 0
    # and must tier down no more often
    assert stats[5][1] <= stats[1][1]


def test_feedback_repair_ablation(bench_scale):
    """Disabling the repair pass (paper section 4.3) lets stale feedback
    poison continuations: they mis-speculate and get discarded."""
    n = 100 if bench_scale == "test" else 1000

    def run(repair: bool):
        vm = RVM(Config(enable_deoptless=True, compile_threshold=2,
                        deoptless_feedback_repair=repair))
        vm.eval("""
powmod <- function(base, exp, mod) {
  result <- 1L
  b <- base %% mod
  e <- exp
  while (e > 0L) {
    if (e %% 2L == 1L) result <- (result * b) %% mod
    e <- e %/% 2L
    b <- (b * b) %% mod
  }
  result
}
""")
        for i in range(5):
            vm.eval("powmod(%dL, 13L, 497L)" % (i + 2))
        for _ in range(6):
            r = vm.eval("powmod(3L, 13.0, 497L)")
        bad = [e for e in vm.state.events_of("deopt")
               if e.details.get("from_continuation")]
        return from_r(r), len(bad), vm

    with_repair, bad_with, _ = run(True)
    without_repair, bad_without, _ = run(False)
    report(
        "Ablation: feedback repair",
        "continuation mis-speculations with repair: %d, without: %d"
        % (bad_with, bad_without),
    )
    assert with_repair == without_repair == pow(3, 13, 497)
    assert bad_with == 0, "repair must prevent continuation mis-speculation"
    # without repair, the stale int profile inside the continuation is still
    # neutralized by the doomed-guard rule in the builder, so we only assert
    # that repair is never worse
    assert bad_with <= bad_without


def test_context_size_limit_ablation(bench_scale):
    """Functions with more locals than the env bound are skipped by
    deoptless (the state is "too big to describe")."""
    decls = "\n".join("v%d <- %d" % (i, i) for i in range(40))
    src = "bigenv <- function(x) {\n%s\ns <- 0\nfor (i in 1:20) s <- s + x[[i]]\ns\n}" % decls
    vm = RVM(Config(enable_deoptless=True, compile_threshold=2, ctxdispatch=False))
    vm.eval(src)
    vm.eval("xi <- integer(20); for (i in 1:20) xi[[i]] <- i")
    vm.eval("xd <- numeric(20); for (i in 1:20) xd[[i]] <- i * 1.0")
    for _ in range(4):
        vm.eval("bigenv(xi)")
    vm.eval("bigenv(xd)")
    assert vm.state.deoptless_dispatches == 0, "context above the bound must be skipped"
    assert vm.state.deoptless_bailouts >= 1
    # raising the bound turns the same deopt into a dispatch
    vm2 = RVM(Config(enable_deoptless=True, compile_threshold=2, ctxdispatch=False,
                     deoptless_max_env=128))
    vm2.eval(src)
    vm2.eval("xi <- integer(20); for (i in 1:20) xi[[i]] <- i")
    vm2.eval("xd <- numeric(20); for (i in 1:20) xd[[i]] <- i * 1.0")
    for _ in range(4):
        vm2.eval("bigenv(xi)")
    vm2.eval("bigenv(xd)")
    assert vm2.state.deoptless_dispatches >= 1
