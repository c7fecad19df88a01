"""Deoptless recovery from deopts *inside inlined code* — the lifted
section-4.3 limitation: ``deoptless/engine.py`` no longer excludes frames
with a parent, so a mis-speculation in an inlined callee forms a
dispatchable context (keyed on the inlinee pc, the frame depth, and the
reason) with a specialized continuation; the enclosing frames resume in
the interpreter after the continuation returns.

The workload: ``clamp`` has a branch that is never taken during warmup, so
the *inlined* copy of its body inside ``f`` carries a cold-branch
assumption.  Driving values through the cold side mis-speculates inside
the inlined frame — the caller's own guards see no change at all."""

import pytest

from conftest import make_vm
from repro import from_r

DRIVER_SRC = """
clamp <- function(x) {
  if (x < 0) x <- 0 - x
  x * 2
}
f <- function(n, t) {
  s <- 0
  i <- 0
  while (i < n) {
    s <- s + clamp(i - t)
    i <- i + 1
  }
  s
}
"""


def expected_f(n, t):
    return float(sum(abs(i - t) * 2 for i in range(n)))


def warmed_deoptless(**kw):
    # compile_threshold=6 so the branch has enough one-sided observations
    # to be speculated cold before clamp/f are first compiled
    cfg = dict(enable_deoptless=True, compile_threshold=6, osr_threshold=10**9,
               inline=True)
    cfg.update(kw)
    vm = make_vm(**cfg)
    vm.eval(DRIVER_SRC)
    for _ in range(8):
        vm.eval("f(30, 0)")  # x never negative: the branch stays cold
    return vm


def test_mid_inlinee_deopt_dispatches():
    vm = warmed_deoptless()
    assert vm.state.inlined_frames >= 1
    r = vm.eval("f(12, 6)")  # first 6 iterations take the cold branch
    assert from_r(r) == expected_f(12, 6)
    ev = vm.state.events_of("deoptless_dispatch")
    assert any(e.fn_name == "clamp" and e.details["reason"] == "cold_branch"
               for e in ev), "the dispatched context belongs to the inlinee's code"


def test_context_is_keyed_on_frame_depth():
    vm = warmed_deoptless()
    vm.eval("f(12, 6)")
    clamp_clo = vm.global_env.get("clamp")
    entries = clamp_clo.jit.deoptless_table.entries
    assert entries, "the continuation hangs off the inlinee's dispatch table"
    assert any(ctx.depth == 2 for ctx, _ in entries), (
        "mid-inlinee contexts record the frame-chain depth"
    )


def test_origin_version_is_retained():
    """Figure 2 vs Figure 1: the caller's optimized code — the unit the
    callee was spliced into — survives the mis-speculation."""
    vm = warmed_deoptless()
    f_clo = vm.global_env.get("f")
    version_before = f_clo.jit.version
    assert version_before is not None
    vm.eval("f(12, 6)")
    assert f_clo.jit.version is version_before


def test_repeated_misspeculation_reuses_continuation():
    vm = warmed_deoptless()
    for _ in range(5):
        assert from_r(vm.eval("f(12, 6)")) == expected_f(12, 6)
    clamp_clo = vm.global_env.get("clamp")
    entries = clamp_clo.jit.deoptless_table.entries
    assert sum(1 for ctx, _ in entries if ctx.depth == 2) == 1, (
        "the mid-inlinee continuation is compiled once"
    )
    dispatches = [e for e in vm.state.events_of("deoptless_dispatch")
                  if e.fn_name == "clamp"]
    assert len(dispatches) >= 5, "and dispatched on every mis-speculation"


def test_parent_frames_resume_after_continuation():
    """The continuation only covers the innermost frame; the caller must be
    resumed with the continuation's result pushed — the final value depends
    on the caller's loop continuing correctly after each dispatch."""
    vm = warmed_deoptless()
    for n, t in ((7, 3), (1, 1), (12, 6), (20, 19)):
        assert from_r(vm.eval("f(%d, %d)" % (n, t))) == expected_f(n, t)


def test_resumed_caller_keeps_its_closure():
    """The caller frame resumed after an inlined-frame recovery is still
    ``run``'s activation: when its loop tiers back up, OSR-in compiles it
    as closure code (register-promoted locals), not as top-level code
    against a shared environment — the unwind must pass the owning closure,
    as ``osr_out.resume_in_interpreter`` does."""
    src = """
add1 <- function(x) x + 1L
run <- function(n, xs) { s <- 0; for (i in 1:n) s <- s + add1(xs[[i]]); s }
mk <- function(k) { l <- list(); for (i in 1:90) { if (i < k) l[[i]] <- i else l[[i]] <- i + 0.5 }; l }
"""
    vm = make_vm(enable_deoptless=True, compile_threshold=2, osr_threshold=50,
                 inline=True)
    vm.eval(src)
    vm.eval("xi <- mk(1000L); xm <- mk(10L)")
    for _ in range(4):
        vm.eval("run(90L, xi)")
    assert vm.state.inlined_frames >= 1
    n = len(vm.state.events)
    r = vm.eval("run(90L, xm)")  # elements turn double at i = 10
    assert from_r(r) == sum(i + 1 for i in range(1, 10)) + sum(i + 1.5 for i in range(10, 91))
    first = vm.state.events[n]
    assert (first.kind, first.fn_name) == ("deopt", "add1"), "inside the inlinee"
    assert vm.state.deoptless_dispatches >= 1
    resumed = [e for e in vm.state.events[n:] if e.kind == "osr_in"]
    assert resumed and resumed[0].fn_name == "run"
    assert resumed[0].details["env_elided"]


def test_warm_path_still_runs_retained_fast_code():
    vm = warmed_deoptless()
    vm.eval("f(12, 6)")
    deopts_before = vm.state.deopts
    assert from_r(vm.eval("f(30, 0)")) == expected_f(30, 0)
    assert vm.state.deopts == deopts_before, (
        "non-negative calls still run the retained inlined code"
    )


def test_inline_off_still_dispatches_at_depth_one():
    """Sanity: with inlining disabled the same workload deopts in the callee
    as a depth-1 frame and deoptless still recovers."""
    vm = warmed_deoptless(inline=False)
    assert vm.state.inlined_frames == 0
    assert from_r(vm.eval("f(12, 6)")) == expected_f(12, 6)
    clamp_clo = vm.global_env.get("clamp")
    entries = clamp_clo.jit.deoptless_table.entries
    assert entries and all(ctx.depth == 1 for ctx, _ in entries)


def test_chaos_with_deoptless_inside_inlined_bodies():
    expected = expected_f(40, 0)
    for seed in (3, 11):
        vm = make_vm(enable_deoptless=True, compile_threshold=6, inline=True,
                     osr_threshold=10**9, chaos_rate=0.1, chaos_seed=seed)
        vm.eval(DRIVER_SRC)
        for _ in range(5):
            assert from_r(vm.eval("f(40, 0)")) == expected
