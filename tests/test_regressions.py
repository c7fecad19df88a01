"""Regression tests for specific bugs found during development, plus the
reproduction of the paper's OSR-in escape/dead-store unsoundness anecdote
(section 4.2) behind its config switch."""

import pytest

from conftest import make_vm
from repro import from_r
from repro.osr.framestate import DeoptReasonKind

SUM_SRC = """
sumfn <- function(data, len) {
  total <- 0
  for (i in 1:len) total <- total + data[[i]]
  total
}
"""


def test_continuation_entering_mid_loop_gets_phis():
    """A deoptless continuation entering in the middle of a loop body used
    to read stale entry registers forever (the entry block has an extra
    IR-only predecessor)."""
    # ctxdispatch off: the dbl call must deopt in the generic version so a
    # deoptless continuation gets compiled (the scenario under test)
    vm = make_vm(enable_deoptless=True, compile_threshold=2, ctxdispatch=False)
    vm.eval("""
sumfn <- function(data, len) {
  total <- 0
  for (i in 1:len) total <- total + data[[i]]
  total
}
""")
    vm.eval("xi <- c(1L, 2L, 3L)")
    for _ in range(5):
        vm.eval("sumfn(xi, 3L)")
    # deopt happens mid-loop-body at the data[[i]] guard
    r = vm.eval("sumfn(c(1.5, 2.5, 3.5), 3L)")
    assert from_r(r) == 7.5
    assert vm.state.deoptless_dispatches == 1


def test_colsum_continuation_runs_the_column_in_a_kernel():
    """Figure 10 replayed: ``f(1L) x6, f(2L) x6, f(1L) x6``.  Every call of
    the third phase deopts at ``f@34`` (the promoted version cannot tell the
    phases apart by its call context) and enters the same continuation.  That
    used to be the loop rotated around pc 34 — two dispatch arms and a boxed
    accumulator per element, 25x the kernel; now the first element is the
    prologue and the other ``n - 1`` are one kernel call."""
    from repro.bench.programs import REGISTRY

    w, n = REGISTRY.get("colsum"), 300
    vm = make_vm(enable_deoptless=True)
    vm.eval(w.source)
    vm.eval(w.setup_code(n))
    for col in ("1L", "2L"):
        for _ in range(6):
            vm.eval("f(%s, tbl)" % col)
    for _ in range(6):
        before = vm.state.kernel_elements
        assert from_r(vm.eval("f(1L, tbl)")) == n * (n + 1) // 2
        assert vm.state.kernel_elements - before >= n - 1
    assert vm.state.compile_failures == 0


def test_scalar_guarded_value_used_as_vector_is_reboxed():
    """`1:n` with n==1 produces a length-1 vector; scalar feedback then made
    the compiler unbox it, crashing the vector ops consuming it."""
    vm = make_vm(compile_threshold=1)
    vm.eval("f <- function(reps) { s <- 0L\nfor (r in 1:reps) s <- s + r\ns }")
    for _ in range(4):
        r = vm.eval("f(1L)")  # the loop sequence 1:1 is a scalar
    assert from_r(r) == 1
    assert from_r(vm.eval("f(5L)")) == 15


def test_doomed_guard_not_emitted_for_kind_change():
    """Stale int feedback on a statically-double variable must not produce
    an is-int guard (it would deopt unconditionally)."""
    # ctxdispatch off: the double-keyed call must reach the generic version
    # (the stale-feedback guard decision under test lives there)
    vm = make_vm(enable_deoptless=True, compile_threshold=2, ctxdispatch=False)
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
    for _ in range(5):
        assert from_r(vm.eval("powmod(3L, 13.0, 497L)")) == pow(3, 13, 497)
    # the continuation survived: exactly one compile, repeated dispatches
    assert vm.state.deoptless_compiles == 1
    assert vm.state.deoptless_dispatches == 5


def test_ldfun_of_register_promoted_parameter():
    """Calling a function passed as a parameter inside compiled code used to
    search the environment chain instead of the register."""
    vm = make_vm(compile_threshold=1)
    vm.eval("""
apply_n <- function(g, n) { s <- 0\nfor (i in 1:n) s <- s + g(i)\ns }
sq <- function(x) x * x
""")
    for _ in range(3):
        r = vm.eval("apply_n(sq, 4L)")
    assert from_r(r) == 30.0


def test_fannkuch_advance_terminates():
    """The permutation-advance loop of fannkuchredux (regression for the
    off-by-one that made it spin forever)."""
    from repro.bench.programs import REGISTRY

    w = REGISTRY.get("fannkuchredux")
    vm = make_vm()
    vm.eval(w.source)
    assert from_r(vm.eval("fannkuch(5L)")) == 7
    assert from_r(vm.eval("fannkuch(6L)")) == 10


@pytest.mark.parametrize("chaos_seed", [1, 3])
def test_verification_error_is_a_failed_compile(chaos_seed, monkeypatch):
    """A graph the verifier refuses used to escape `vm.eval` as a
    VerificationError (an OSR-in continuation of `sieve_run` under chaos,
    call 33 with seed 1, 49 with seed 3).  Whatever builds such a graph, it
    must be a failed compile like any other: counted, reported as a
    continuation's `compile_failed`, OSR-in stopped for the code, and the
    call finishes in the interpreter.  The graph
    that showed it is fixed (`test_loop_in_a_cold_arm_*` below), so the
    refusal is provoked here: the first OSR-in unit fails verification."""
    from repro.bench.programs import REGISTRY
    from repro.ir.verifier import VerificationError
    from repro.opt import pipeline

    real_verify = pipeline.verify

    def verify(graph):
        if graph.is_continuation and not vm.state.compile_failures:
            raise VerificationError("BB10: %22 has inputs from non-predecessors")
        real_verify(graph)

    monkeypatch.setattr(pipeline, "verify", verify)
    vm = make_vm(enable_deoptless=True, chaos_rate=1e-4, chaos_seed=chaos_seed)
    vm.eval(REGISTRY.get("primes").source)
    for _ in range(5):
        assert from_r(vm.eval("sieve_run(4000L)")) == 550
    assert vm.state.compile_failures == 1
    failed = [(e.kind, e.details["unit"]) for e in vm.state.events if e.kind.endswith("_failed")]
    assert failed == [("compile_failed", "cont")]
    assert vm.global_env.get("sieve_run").code.osr_disabled


COLD_ARM_LOOP_SRC = """
f <- function(n, flag) {
  s <- 0L; i <- 1L
  while (i <= n) {
    if (flag) { j <- 1L; while (j <= 3L) { s <- s + j; j <- j + 1L } }
    i <- i + 1L
  }
  s
}
"""


def test_loop_in_a_cold_arm_compiles():
    """A loop header whose only forward edge a cold-branch Assume cut away
    used to be translated anyway (its phis exist up front), sealing an edge
    from an IR-unreachable block into the join after the `if` — `BB10: %22
    has inputs from non-predecessors [9] (preds [6])`, a failed compile and
    `cant_compile` for good: no function with a loop inside a cold arm ever
    left the interpreter."""
    vm = make_vm()
    vm.eval(COLD_ARM_LOOP_SRC)
    for _ in range(30):
        assert from_r(vm.eval("f(10L, FALSE)")) == 0
    assert vm.state.compile_failures == 0 and vm.state.compiles >= 1
    assert not vm.global_env.get("f").jit.cant_compile
    ref = make_vm(enable_jit=False)
    ref.eval(COLD_ARM_LOOP_SRC)
    for call in ("f(10L, TRUE)", "f(10L, FALSE)"):  # the first one deopts
        assert from_r(vm.eval(call)) == from_r(ref.eval(call))
    assert vm.state.deopts == 1


@pytest.mark.parametrize("chaos_seed", [1, 3, 4, 5, 7, 8, 14])
def test_loop_in_a_cold_arm_primes_under_chaos(chaos_seed):
    """The same dead loop header in the wild: `primes` under chaos failed
    one compile on exactly these seeds within 60 calls (ROADMAP item 1)."""
    from repro.bench.programs import REGISTRY

    vm = make_vm(enable_deoptless=True, chaos_rate=1e-4, chaos_seed=chaos_seed)
    vm.eval(REGISTRY.get("primes").source)
    for _ in range(60):
        assert from_r(vm.eval("sieve_run(4000L)")) == 550
    assert vm.state.compile_failures == 0


def test_code_only_an_osr_in_unit_ran_compiles_typed():
    """OSR-in leaves the interpreter inside `sieve_run`'s first loop, so
    nothing after it is profiled when the whole function compiles at call 3:
    `flags[[i]]` and `flags[[j]] <- FALSE` have no feedback.  With
    `logical(limit)` typed only by feedback, `flags` was ANY and both ran
    as generic `[[`/`[[<-` on every iteration (1,413 generic ops a call at
    n = 500); the builtin's declared result types them from the call.  The
    one generic op left is `1:limit`'s vector (ROADMAP item 6(c))."""
    from repro.bench.programs import REGISTRY
    from repro.native import ops as N

    w = REGISTRY.get("primes")
    vm, ref = make_vm(osr_threshold=100), make_vm(enable_jit=False)
    for m in (vm, ref):
        m.eval(w.source)
    call = w.call.format(n=w.n_test)
    want = from_r(ref.eval(call))
    assert from_r(vm.eval(call)) == want
    assert vm.state.osr_ins == 1 and vm.state.compiles == 1
    for _ in range(4):
        osr_ins, before = vm.state.osr_ins, vm.state.native_generic_ops
        assert from_r(vm.eval(call)) == want
    assert vm.state.osr_ins == osr_ins and vm.state.compiles == 2
    assert vm.state.native_generic_ops - before <= 1
    unit = vm.global_env.get("sieve_run").jit.version
    assert not [op for op in unit.ops if op[0] in (N.GEN_EX2, N.GEN_SET2)]


SHADOWED_BUILTIN_SRC = """
f <- function(n) {
  x <- numeric(n)
  for (i in 1:n) x[[i]] <- i * 0.5
  s <- 0
  for (i in 1:n) s <- s + x[[i]]
  c(s, is.list(x))
}
"""


@pytest.mark.parametrize("deoptless", [True, False])
def test_a_builtin_shadowed_after_compile_deopts_at_its_call(deoptless):
    """The declared result of `numeric` holds only behind the call-target
    guard: once `numeric` is a closure returning a list, the typed code
    must leave through that guard and the results stay the interpreter's."""
    vm, ref = make_vm(enable_deoptless=deoptless), make_vm(enable_jit=False)
    for m in (vm, ref):
        m.eval(SHADOWED_BUILTIN_SRC)
    for _ in range(4):
        assert from_r(vm.eval("f(20L)")) == from_r(ref.eval("f(20L)"))
    assert vm.state.compiles >= 1 and vm.state.deopts == 0
    for m in (vm, ref):
        m.eval("numeric <- function(n) list(n)")
    for _ in range(4):
        assert from_r(vm.eval("f(20L)")) == from_r(ref.eval("f(20L)"))
    reasons = [e.details["reason"] for e in vm.state.events if e.kind == "deopt"]
    assert reasons and reasons[0] == "call_target"
    assert vm.state.compile_failures == 0


UNPROFILED_STORES_SRC = """
f <- function(n) {
  x <- integer(n)
  flags <- logical(n)
  y <- numeric(n)
  k <- integer(n)
  s <- 0
  for (i in 1:n) s <- s + i
  x[[1L]] <- s / 4
  flags[[2L]] <- n
  y[[3L]] <- n > 2L
  k[[4L]] <- n == 12L
  list(s, x, is.integer(x), flags, is.logical(flags), y, is.double(y), k, is.integer(k))
}
"""


@pytest.mark.parametrize("threaded", [True, False], ids=["codegen", "execute_ref"])
def test_a_store_after_osr_in_coerces_to_the_value_kind(threaded):
    """The stores after the OSR-in loop have no feedback; the vectors'
    types come from the declared results of `integer(n)` and friends.  A
    wider value must widen the vector (a double into integers, an integer
    into logicals) and a narrower one be coerced to the vector's kind (no
    TRUE among doubles), as in the interpreter.  The stores once wrote the
    value in place whenever the vector had its static kind."""
    vm = make_vm(osr_threshold=5, threaded_dispatch=threaded)
    ref = make_vm(enable_jit=False)
    for m in (vm, ref):
        m.eval(UNPROFILED_STORES_SRC)
    # repr tells 1.0 from TRUE, which == does not
    want = repr(from_r(ref.eval("f(12L)")))
    for _ in range(4):
        assert repr(from_r(vm.eval("f(12L)"))) == want
    assert vm.state.osr_ins >= 1 and vm.state.compiles == 2
    assert vm.state.native_generic_ops <= 4


FORMALS_BODY = "{ s <- 0L; for (i in 1:4) s <- s + x[[i]]; x <- c(1,2,3,4,5,6,7); s + n }"
FORMALS_SRC = """
id <- function(v) v
k <- 3L
xi <- c(1L, 2L, 3L, 4L)
xd <- c(1.5, 2.5, 3.5, 4.5)
f <- function(x, n = 3L) %s
g <- function(x, n = length(x)) %s
""" % (FORMALS_BODY, FORMALS_BODY)


@pytest.mark.parametrize("threaded", [True, False], ids=["codegen", "execute_ref"])
def test_a_continuation_is_not_shared_across_formals(threaded):
    """`f` and `g` share a body but not their formals: `g`'s default
    `length(x)` is a promise over the environment, so its code keeps one,
    where `f`'s is a constant and its code keeps its locals in registers.
    The deoptless continuation of `f` (xd's doubles refute the profile) was
    keyed on body, context and feedback only, so `g`'s identical deopt got
    it from the cache: `n` then read the entry-time `x`, and `g(xd)` gave
    16 for 19."""
    vm = make_vm(enable_deoptless=True, ctxdispatch=False, osr_hop=False,
                 threaded_dispatch=threaded)
    ref = make_vm(enable_jit=False)
    calls = ["f(xi, id(k))"] * 4 + ["f(xd, id(k))"] + ["g(xi)"] * 4 + ["g(xd)"]
    for m in (vm, ref):
        m.eval(FORMALS_SRC)
    assert [from_r(vm.eval(c)) for c in calls] == [from_r(ref.eval(c)) for c in calls]
    assert from_r(vm.eval("g(xd)")) == 19.0
    assert vm.state.deoptless_compiles == 2 and vm.state.codecache_stable_hits == 0


CANCELLING_SUMS_SRC = """
f <- function(v, n) {
  total <- 0
  for (i in 1:n) total <- total + v[[i]]
  total
}
v <- rep(c(1e16, 1, -1e16), 100)
"""
CANCELLING_SUMS_CALLS = ["f(v, 300)"] * 4


@pytest.mark.parametrize("threaded", [True, False], ids=["codegen", "execute_ref"])
@pytest.mark.parametrize("chaos", [0.0, 0.05], ids=["jit", "chaos"])
def test_kernel_sums_add_left_to_right(chaos, threaded):
    """The `sum` kernel added with `sum()`, which compensates
    float rounding since CPython 3.12: over `1e16, 1, -1e16` repeated, the
    scalar loop's `1e16 + 1` rounds the 1 away (a total of 0) and the
    compensated sum keeps it (100)."""
    ref = make_vm(enable_jit=False)
    ref.eval(CANCELLING_SUMS_SRC)
    want = [from_r(ref.eval(c)) for c in CANCELLING_SUMS_CALLS]
    assert want[0] == 0.0
    for vectorize in (True, False):
        vm = make_vm(compile_threshold=1, osr_threshold=50, chaos_rate=chaos, chaos_seed=3,
                     enable_deoptless=True, vectorize=vectorize, threaded_dispatch=threaded)
        vm.eval(CANCELLING_SUMS_SRC)
        assert [from_r(vm.eval(c)) for c in CANCELLING_SUMS_CALLS] == want
        assert (vm.state.kernel_elements > 0) == vectorize


REFUTED_CALLEE_SRC = """
add1 <- function(x) x + 1L
run <- function(n, xs) { s <- 0; for (i in 1:n) s <- s + add1(xs[[i]]); s }
mk <- function(k) { l <- list(); for (i in 1:900) { if (i < k) l[[i]] <- i else l[[i]] <- i + 0.5 }; l }
xi <- mk(1000L)
xm <- mk(10L)
"""


def test_a_hop_never_reenters_a_refuted_version():
    """`run`'s generic version inlines `add1` under its integer profile.
    The first `run(900L, xm)` refutes that guard (the elements turn double
    at i = 10); deoptless keeps the version, and the caller resumes in the
    interpreter.  `n` and `xs` are dead at the loop header, so the hop-in
    at the next backedge admits the frame — but re-entering that version
    would fail the same guard on the next element, every `osr_threshold`
    iterations: 19 deopts on the second call.  The version carries a guard
    site whose deopt count grew since it was placed, so it is stale and the
    hop declines it, naming the site."""
    vm = make_vm(enable_deoptless=True, compile_threshold=2, osr_threshold=50, inline=True)
    ref = make_vm(enable_jit=False)
    for m in (vm, ref):
        m.eval(REFUTED_CALLEE_SRC)
    for _ in range(4):
        vm.eval("run(900L, xi)")
    assert vm.state.inlined_frames >= 1
    want = from_r(ref.eval("run(900L, xm)"))
    assert from_r(vm.eval("run(900L, xm)")) == want
    deopts, hops = vm.state.deopts, vm.state.osr_hops
    assert from_r(vm.eval("run(900L, xm)")) == want
    assert (vm.state.deopts - deopts, vm.state.osr_hops - hops) == (1, 0)
    assert any(why.startswith("stale:add1@") and fn == "run"
               for fn, _pc, why, _count in vm.state.osr_hop_decline_log)


#: one small program per reason kind: (its kind, Config overrides, the
#: warm-up, the call that fails a guard)
REASON_PROGRAMS = [
    ("typecheck", {}, "f <- function(x) x + 1\nfor (k in 1:4) f(1L)", "f(1.5)"),
    ("call_target", {}, "g <- function(v) v * 2\nh <- function(x) g(x)\n"
     "for (k in 1:4) h(1)", "g <- function(v) v * 3\nh(1)"),
    ("cold_branch", {"compile_threshold": 6},
     "f <- function(n) { s <- 0\nfor (i in 1:n) if (i > 50L) s <- s - 1 else s <- s + 1\ns }\n"
     "for (k in 1:8) f(10L)", "f(60L)"),
    ("na_check", {}, SUM_SRC + "xi <- c(1L, 2L, 3L)\nfor (k in 1:4) sumfn(xi, 3L)",
     "sumfn(c(1L, NA, 3L), 3L)"),
    ("chaos", {"chaos_rate": 0.05}, SUM_SRC + "xi <- c(1L, 2L, 3L)",
     "for (k in 1:20) sumfn(xi, 3L)"),
]


@pytest.mark.parametrize("threaded", [True, False], ids=["codegen", "execute_ref"])
def test_every_reason_kind_has_a_producer(threaded):
    """Each ``DeoptReasonKind`` is one guard something emits: each program
    raises its own kind, and together they raise every kind — a kind no
    guard carries is a branch of the deopt path no program can reach."""
    raised = set()
    for kind, cfg, warm, trigger in REASON_PROGRAMS:
        vm = make_vm(ctxdispatch=False, threaded_dispatch=threaded, **cfg)
        vm.eval(warm)
        vm.eval(trigger)
        reasons = {e.details["reason"] for e in vm.state.events_of("deopt")}
        assert kind in reasons, (kind, reasons)
        raised |= reasons
    assert raised == {k.value for k in DeoptReasonKind}


# -- the section 4.2 unsoundness anecdote --------------------------------------------

ESCAPED_LOOP_SRC = """
run <- function(n) {
  total <- 0
  observer <- function() total
  for (i in 1:n) total <- total + i
  observer()
}
"""


@pytest.mark.parametrize("src, want", [
    ("f <- function(x) { s <- 0L; for (k in 1:3) { if (x > k) s <- s + k else next }; s }",
     [0, 1, 6]),
    ("f <- function(x) { i <- 0L; while (TRUE) { if (x > i) s <- 1L else s <- 2L; "
     "i <- i + s; if (i > 6L) break }; i }", [8, 8, 7]),
])
def test_an_else_arm_starts_from_the_stack_its_then_arm_did(src, want):
    """The byte compiler counted the ``then`` arm's value into the ``else``
    arm's stack depth, so a ``next`` or ``break`` unwinding from there, or
    later in the loop body, popped a slot that was not there (an
    ``IndexError`` in the interpreter and in the IR builder's analysis)."""
    from conftest import assert_all_tiers
    for x, w in zip((0, 2, 5), want):
        assert_all_tiers(src + "\nf(%dL)" % x, w, repeat=4)


def test_continuation_escape_analysis_scans_whole_function():
    """Sound behaviour: `total` escaped into `observer` BEFORE the loop, so
    an OSR-in continuation of the loop must keep writing the real
    environment even though no closure is created after the entry pc."""
    vm = make_vm(osr_threshold=100, compile_threshold=10**9)
    vm.eval(ESCAPED_LOOP_SRC)
    r = vm.eval("run(2000L)")
    assert vm.state.osr_ins == 1, "the loop must actually tier up mid-run"
    assert from_r(r) == sum(range(1, 2001))


def test_unsound_escape_scan_reproduces_the_paper_bug():
    """With the unsound switch (scan only from the continuation entry, the
    behaviour Ř's dead-store elimination had), the observer closure reads a
    stale environment: the classic wrong-answer the paper reports."""
    vm = make_vm(osr_threshold=100, compile_threshold=10**9,
                 unsound_continuation_escape=True)
    vm.eval(ESCAPED_LOOP_SRC)
    r = vm.eval("run(2000L)")
    assert vm.state.osr_ins == 1
    assert from_r(r) != sum(range(1, 2001)), (
        "the unsound variant must exhibit the stale-environment bug"
    )


#: ``j`` is bound only inside the loop body, so after the loop it may be
#: unbound: the unit keeps its environment and the read looks ``j`` up there
LOOP_BOUND = """
g <- function(v) {
  s <- 0
  for (j in v) s <- s + j
  s * j
}
"""


def test_a_variable_bound_only_in_a_loop_body_compiles():
    from conftest import on_engines

    for vm in on_engines(LOOP_BOUND, ["g(1:3)", "g(1:0)"]):
        assert vm.state.compile_failures == 0 and vm.state.compiles > 0
        assert not vm.global_env.get("g").jit.version.env_elided


def test_an_empty_loop_reads_the_enclosing_binding():
    """``1:0`` is ``c(1L, 0L)``, two iterations: ``integer(0)`` is the empty
    one, after which ``j`` is the global."""
    from conftest import on_engines

    for vm in on_engines("j <- 10\n" + LOOP_BOUND, ["g(1:0)", "g(integer(0))", "g(1:3)"]):
        assert vm.state.compile_failures == 0 and vm.state.compiles > 0


@pytest.mark.parametrize("config", [dict(enable_jit=False), dict(threaded_dispatch=True),
                                    dict(threaded_dispatch=False)])
def test_an_empty_loop_with_nothing_bound_raises_as_the_interpreter_does(config):
    from repro.runtime.values import RError

    vm = make_vm(compile_threshold=1, **config)
    vm.eval(LOOP_BOUND)
    for _ in range(3):
        assert from_r(vm.eval("g(1:3)")) == 18.0
    with pytest.raises(RError, match="^object 'j' not found$"):
        vm.eval("g(integer(0))")
    # the native engines raise it from the compiled unit
    assert vm.state.compile_failures == 0
    assert (vm.state.compiles > 0) == config.get("enable_jit", True)
