"""End-to-end tests for the deoptless engine (paper Listing 6 and its
conditions/limitations in section 4.3)."""

import pytest

from conftest import make_vm
from repro import from_r

SUM_SRC = """
sumfn <- function(data, len) {
  total <- 0
  for (i in 1:len) total <- total + data[[i]]
  total
}
"""


def deoptless_vm(**kw):
    # ctxdispatch off: these tests provoke deopts in the generic version by
    # switching argument types; contextual dispatch would intercept those
    # calls with a specialized entry version before deoptless ever runs
    cfg = dict(enable_deoptless=True, compile_threshold=2, ctxdispatch=False)
    cfg.update(kw)
    vm = make_vm(**cfg)
    vm.eval(SUM_SRC)
    vm.eval("xi <- c(1L, 2L, 3L)")
    vm.eval("xd <- c(1.5, 2.5, 3.0)")
    vm.eval("xc <- c(complex(1, 1), complex(2, -1))")
    for _ in range(5):
        vm.eval("sumfn(xi, 3L)")
    return vm


def test_type_change_dispatches_instead_of_tiering_down():
    vm = deoptless_vm()
    r = vm.eval("sumfn(xd, 3L)")
    assert from_r(r) == 7.0
    assert vm.state.deoptless_compiles == 1
    assert vm.state.deoptless_dispatches == 1


def test_original_version_is_retained():
    """The key difference from normal deoptimization (Figure 2 vs Figure 1):
    the origin function is NOT retired."""
    vm = deoptless_vm()
    clo = vm.global_env.get("sumfn")
    version_before = clo.jit.version
    vm.eval("sumfn(xd, 3L)")
    assert clo.jit.version is version_before


def test_continuation_reused_on_subsequent_deopts():
    vm = deoptless_vm()
    for _ in range(4):
        vm.eval("sumfn(xd, 3L)")
    assert vm.state.deoptless_compiles == 1, "compiled once"
    assert vm.state.deoptless_dispatches == 4, "dispatched every time"


def test_returning_to_old_type_uses_retained_fast_code():
    vm = deoptless_vm()
    vm.eval("sumfn(xd, 3L)")
    deopts_before = vm.state.deopts
    assert from_r(vm.eval("sumfn(xi, 3L)")) == 6
    assert vm.state.deopts == deopts_before, "int calls run the retained code"


def test_different_types_get_different_continuations():
    vm = deoptless_vm()
    vm.eval("sumfn(xd, 3L)")
    vm.eval("sumfn(xc, 2L)")
    clo = vm.global_env.get("sumfn")
    assert vm.state.deoptless_compiles == 2
    assert len(clo.jit.deoptless_table) == 2


def test_results_identical_to_interpreter_across_phases():
    calls = (["sumfn(xi, 3L)"] * 6 + ["sumfn(xd, 3L)"] * 6
             + ["sumfn(xc, 2L)"] * 6 + ["sumfn(xd, 3L)"] * 6)
    vm_d = deoptless_vm()
    vm_i = make_vm(enable_jit=False)
    vm_i.eval(SUM_SRC)
    for setup in ("xi <- c(1L, 2L, 3L)", "xd <- c(1.5, 2.5, 3.0)",
                  "xc <- c(complex(1, 1), complex(2, -1))"):
        vm_i.eval(setup)
    for c in calls:
        assert from_r(vm_d.eval(c)) == from_r(vm_i.eval(c)), c


def test_table_bound_falls_back_to_real_deopt():
    # OSR-in off: the tier-down's interpreter must not compile its way back
    vm = deoptless_vm(deoptless_max_continuations=1, enable_osr_in=False)
    vm.eval("sumfn(xd, 3L)")  # fills the single slot
    assert vm.state.deoptless_compiles == 1
    clo = vm.global_env.get("sumfn")
    st = vm.state
    before = (st.compiles, st.codecache_hits, st.ir_verifies)
    vm.eval("sumfn(xc, 2L)")  # no slot left: normal deoptimization
    assert st.deoptless_bailouts == 1 and st.dispatch_refusals == 1
    assert clo.jit.version is None, "fallback path retires the code"
    # refused before a continuation was fetched or compiled for the context
    assert (st.compiles, st.codecache_hits, st.ir_verifies) == before


def test_no_recursive_deoptless():
    """A deoptless continuation that itself mis-speculates must perform a
    real deoptimization (section 4.3)."""
    vm = deoptless_vm()
    vm.eval("sumfn(xd, 3L)")
    # the dbl continuation now exists; feed data that turns complex mid-loop
    # through the same guard: a dbl vector whose use leads to the complex
    # case is simulated directly via a mixed phase change
    vm.eval("sumfn(xc, 2L)")
    # force a deopt inside a continuation: call with dbl again (dispatches),
    # then with a vector that becomes NA mid-way (NA check inside the
    # continuation's loop deopts; reason from a continuation must not
    # re-enter deoptless)
    vm.eval("xna <- c(1.5, NA, 2.5)")
    r = vm.eval("sumfn(xna, 3L)")
    assert from_r(r) is None
    from_cont = [e for e in vm.state.events_of("deopt") if e.details.get("from_continuation")]
    assert from_cont, "the NA deopt originated in a continuation"


def test_deoptless_disabled_behaves_like_normal():
    vm = deoptless_vm(enable_deoptless=False)
    vm.eval("sumfn(xd, 3L)")
    assert vm.state.deoptless_dispatches == 0
    clo = vm.global_env.get("sumfn")
    assert clo.jit.version is None


def test_feedback_repair_keeps_baseline_profile_intact():
    vm = deoptless_vm()
    clo = vm.global_env.get("sumfn")
    before = {pc: repr(fb) for pc, fb in clo.code.feedback.items()}
    vm.eval("sumfn(xd, 3L)")  # triggers a deoptless compile with repair
    # repair works on a copy: no slot of the live profile became stale
    for pc, fb in clo.code.feedback.items():
        assert not getattr(fb, "stale", False)


def test_deoptless_speedup_vs_normal_on_oscillating_types():
    """The headline behaviour: with types oscillating, deoptless executes
    far fewer interpreter ops than normal deoptimization."""
    def run(deoptless):
        vm = deoptless_vm(enable_deoptless=deoptless)
        vm.eval("big <- numeric(400)")
        vm.eval("for (i in 1:400) big[[i]] <- i * 1.0")
        vm.eval("bigi <- integer(400)")
        vm.eval("for (i in 1:400) bigi[[i]] <- i")
        for _ in range(4):
            vm.eval("sumfn(bigi, 400L)")
        vm.state.reset_counters()
        for _ in range(6):
            vm.eval("sumfn(big, 400L)")
            vm.eval("sumfn(bigi, 400L)")
        return vm.state.interp_ops

    assert run(True) * 4 < run(False), (
        "deoptless must avoid most interpreter execution during phase changes"
    )


def test_dispatch_on_cold_branch_deopt():
    """Cold-branch deopts also go through deoptless (reason COLD_BRANCH)."""
    src = """
clamp <- function(x) { if (x < 0) x <- 0\nx * 2 }
"""
    # threshold high enough that the branch has >= 5 one-sided observations
    # before the function is first compiled
    vm = make_vm(enable_deoptless=True, compile_threshold=6)
    vm.eval(src)
    for i in range(10):
        vm.eval("clamp(%d)" % (i + 1))
    r = vm.eval("clamp(-5)")  # the cold branch fires
    assert from_r(r) == 0.0
    ev = [e for e in vm.state.events_of("deoptless_dispatch")]
    assert any(e.details.get("reason") == "cold_branch" for e in ev)


def test_call_target_change_dispatches():
    src = """
apply1 <- function(f, x) f(x)
double_ <- function(v) v * 2
triple_ <- function(v) v * 3
"""
    vm = make_vm(enable_deoptless=True, compile_threshold=2)
    vm.eval(src)
    for _ in range(6):
        vm.eval("apply1(double_, 21)")
    r = vm.eval("apply1(triple_, 14)")
    assert from_r(r) == 42.0
    ev = vm.state.events_of("deoptless_dispatch")
    assert any(e.details.get("reason") == "call_target" for e in ev)
    # and the double_ path still runs the retained code afterwards
    deopts = vm.state.deopts
    assert from_r(vm.eval("apply1(double_, 21)")) == 42.0
