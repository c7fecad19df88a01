"""Tests for speculative call-target inlining (opt/inline.py): splicing,
the cost model, nested FrameState chains, and multi-frame deoptimization."""

import pytest

from conftest import make_vm
from repro import from_r

DRIVER_SRC = """
add <- function(a, b) a + b
f <- function(n, x) {
  s <- 100
  i <- 0
  while (i < n) {
    s <- add(s, x)
    i <- i + 1
  }
  s
}
"""


def warmed(src, warm_calls, **cfg):
    cfg.setdefault("compile_threshold", 1)
    cfg.setdefault("osr_threshold", 10**9)
    vm = make_vm(**cfg)
    vm.eval(src)
    for c in warm_calls:
        vm.eval(c)
    return vm


# -- splicing ---------------------------------------------------------------------

def test_monomorphic_call_is_inlined():
    vm = warmed(DRIVER_SRC, ["f(50, 1)"] * 3)
    assert vm.state.inlined_frames >= 1
    assert vm.state.events_of("inline"), "an inline event is emitted"
    assert from_r(vm.eval("f(50, 1)")) == 150.0


def test_inline_disabled_by_config():
    vm = warmed(DRIVER_SRC, ["f(50, 1)"] * 3, inline=False)
    assert vm.state.inlined_frames == 0
    assert from_r(vm.eval("f(50, 1)")) == 150.0


def test_inline_results_match_interpreter():
    for cfg in (dict(inline=True), dict(inline=False), dict(enable_jit=False)):
        vm = warmed(DRIVER_SRC, [], **cfg)
        assert from_r(vm.eval("f(30, 2)")) == 160.0


def test_nested_inlining():
    # NOTE: args must be simple variables — a call argument that is itself a
    # call (inc(inc(x))) compiles to a promise, which makes the intermediate
    # callee's environment escape and (correctly) blocks inlining it
    src = """
inc <- function(x) x + 1
twice <- function(x) {
  a <- inc(x)
  inc(a)
}
g <- function(n) {
  s <- 0
  i <- 0
  while (i < n) {
    s <- s + twice(i)
    i <- i + 1
  }
  s
}
"""
    vm = warmed(src, ["g(40)"] * 3)
    # twice is inlined into g, and both inc calls into the spliced body
    events = vm.state.events_of("inline")
    assert any(e.fn_name == "g" and e.details["callee"] == "twice" for e in events)
    assert any(e.fn_name == "g" and e.details["callee"] == "inc"
               and e.details["depth"] == 2 for e in events)
    assert from_r(vm.eval("g(40)")) == sum(i + 2 for i in range(40))


def test_default_arguments_substituted():
    src = """
step <- function(x, d = 3) x + d
h <- function(n) {
  s <- 0
  i <- 0
  while (i < n) {
    s <- step(s)
    i <- i + 1
  }
  s
}
"""
    vm = warmed(src, ["h(20)"] * 3)
    assert vm.state.inlined_frames >= 1
    assert from_r(vm.eval("h(20)")) == 60.0


def test_free_variables_resolve_in_callee_env():
    # k is free in adder's body; an inlined copy must read it from adder's
    # *lexical* environment, not from the caller's scope (which shadows it)
    src = """
k <- 7
adder <- function(x) x + k
use <- function(n) {
  k <- 1000
  s <- 0
  i <- 0
  while (i < n) {
    s <- adder(s) - s - s
    i <- i + 1
  }
  s
}
"""
    vm = warmed(src, ["use(25)"] * 3)
    expected = from_r(make_vm(enable_jit=False).eval(src + "\nuse(25)"))
    assert from_r(vm.eval("use(25)")) == expected
    assert vm.state.inlined_frames >= 1


# -- cost model: what is NOT inlined -----------------------------------------------

def _no_inline(src, call):
    vm = warmed(src, [call] * 4)
    assert vm.state.inlined_frames == 0, vm.state.events_of("inline")
    return vm


def test_recursive_self_call_never_expands():
    """A recursive callee may be inlined ONE level into a driver, but the
    self-call inside the spliced body (and inside its own compilation) must
    never be inlined — no unbounded expansion."""
    src = """
fact <- function(n) if (n <= 1) 1 else n * fact(n - 1)
run <- function() fact(6)
"""
    vm = warmed(src, ["run()"] * 4 + ["fact(6)"] * 4)
    assert from_r(vm.eval("run()")) == 720.0
    events = vm.state.events_of("inline")
    assert all(e.fn_name != e.details["callee"] for e in events)
    # fact appears as a callee at most once per compilation of run
    assert vm.state.inlined_frames <= len(vm.state.events_of("compile")) + 1


def test_no_inline_of_callee_with_loop():
    _no_inline("""
looper <- function(n) { s <- 0\nfor (i in 1:n) s <- s + i\ns }
run <- function() looper(4L)
""", "run()")


def test_no_inline_of_escaping_env():
    _no_inline("""
maker <- function(x) function() x
run <- function() { g <- maker(1)\n2 }
""", "run()")


def test_no_inline_of_super_assign():
    _no_inline("""
g <- 0
bump <- function(x) { g <<- g + x\nx }
run <- function() bump(1) + bump(2)
""", "run()")


def test_super_assign_callee_still_correct():
    src = """
g <- 0
bump <- function(x) { g <<- g + x\nx }
run <- function(n) {
  s <- 0
  i <- 0
  while (i < n) {
    s <- s + bump(1)
    i <- i + 1
  }
  s
}
"""
    vm = warmed(src, ["run(10)"] * 3)
    vm.eval("run(10)")
    assert from_r(vm.eval("g")) == 40.0


def test_size_limit_respected():
    vm = warmed(DRIVER_SRC, ["f(50, 1)"] * 3, inline_max_size=1)
    assert vm.state.inlined_frames == 0


# -- nested FrameStates and multi-frame deopt ---------------------------------------

# The callee reads the free variable ``k`` from its lexical environment, so
# its inlined copy keeps a type guard the peephole cannot fold (argument
# guards fold away against the caller's freshly boxed values).  Rebinding
# ``k`` to an int mid-run fails that guard *inside* the inlined body.
NESTED_SRC = """
k <- 1
addk <- function(a) a + k
f <- function(n) {
  s <- 100
  i <- 0
  while (i < n) {
    s <- addk(s)
    i <- i + 1
  }
  s
}
"""


def test_compiled_caller_carries_nested_frame_descrs():
    vm = warmed(NESTED_SRC, ["f(50)"] * 3)
    clo = vm.global_env.get("f")
    ncode = clo.jit.version
    assert ncode is not None
    addk_code = vm.global_env.get("addk").code
    nested = [d for d in ncode.deopts if d.parent is not None]
    assert nested, "checkpoints inside the inlined body have parent frames"
    for d in nested:
        assert d.code is addk_code, "innermost frame is the callee"
        assert d.fun is vm.global_env.get("addk")
        assert d.parent.code is clo.code, "parent frame is the caller"
        assert d.parent.fun is None, "root frame carries no inlinee closure"
        # the caller resumes *after* the call: its pc must point past a CALL
        from repro.bytecode import opcodes as O
        assert clo.code.code[d.parent.pc - 1][0] == O.CALL


def test_deopt_inside_inlinee_materializes_both_frames():
    """A type guard failing inside the inlined callee must resume the callee
    frame at the faulting pc AND re-enter the caller at the post-call pc
    with the callee's return value — observable through an exact result
    that depends on the caller's mid-loop accumulator."""
    vm = warmed(NESTED_SRC, ["f(50)"] * 4)
    assert vm.state.inlined_frames >= 1
    deopts_before = vm.state.deopts
    # the dbl-specialized guard on k inside the inlined addk fails
    vm.eval("k <- 2L")
    r = vm.eval("f(3)")
    assert from_r(r) == 106.0
    assert vm.state.deopts > deopts_before
    addk_deopts = [e for e in vm.state.events_of("deopt") if e.fn_name == "addk"]
    assert addk_deopts, "the deopt is attributed to the inlinee's code"


def test_deopt_inside_inlinee_retires_the_caller():
    vm = warmed(NESTED_SRC, ["f(50)"] * 4)
    f_clo = vm.global_env.get("f")
    assert f_clo.jit.version is not None
    vm.eval("k <- 2L")
    vm.eval("f(3)")
    assert f_clo.jit.version is None, (
        "the root frame's compiled unit (the caller) is retired"
    )


def test_chaos_deopt_inside_inlinee_is_semantics_preserving():
    expected = from_r(make_vm(enable_jit=False).eval(DRIVER_SRC + "\nf(40, 1)"))
    for seed in (1, 7, 99):
        vm = warmed(DRIVER_SRC, ["f(40, 1)"] * 3, chaos_rate=0.1, chaos_seed=seed)
        for _ in range(4):
            assert from_r(vm.eval("f(40, 1)")) == expected


# -- telemetry and the polymorphic inline cache --------------------------------------

def test_inlined_frames_in_dispatch_signature():
    vm = warmed(DRIVER_SRC, ["f(50, 1)"] * 3)
    assert vm.state.dispatch_signature()["inlined_frames"] == vm.state.inlined_frames
    assert vm.state.inlined_frames > 0


def test_megamorphic_site_uses_pic():
    src = """
a1 <- function(x) x + 1
a2 <- function(x) x + 2
a3 <- function(x) x + 3
a4 <- function(x) x * 2
poly <- function(g, n) {
  s <- 0
  i <- 0
  while (i < n) {
    s <- g(s)
    i <- i + 1
  }
  s
}
"""
    for inline in (True, False):  # the site is not inlinable either way
        vm = warmed(src, [], inline=inline)
        # megamorphize the site before compiling
        for fn in ("a1", "a2", "a3", "a4"):
            vm.eval("poly(%s, 5)" % fn)
        for _ in range(3):
            vm.eval("poly(a1, 30)")
        assert vm.state.pic_hits > 0, "repeated targets hit the inline cache"
        assert from_r(vm.eval("poly(a2, 4)")) == 8.0


def test_pic_hits_identical_across_executors():
    src = """
b1 <- function(x) x + 1
b2 <- function(x) x - 1
b3 <- function(x) x * 2
b4 <- function(x) x * 3
spin <- function(g, n) {
  s <- 1
  i <- 0
  while (i < n) {
    s <- g(s) - s + i
    i <- i + 1
  }
  s
}
"""
    hits = []
    for threaded in (False, True):
        vm = warmed(src, [], threaded_dispatch=threaded)
        for fn in ("b1", "b2", "b3", "b4"):
            vm.eval("spin(%s, 4)" % fn)
        for _ in range(4):
            vm.eval("spin(b2, 25)")
        hits.append(vm.state.pic_hits)
    assert hits[0] == hits[1] and hits[0] > 0
