"""Regression tests for specific bugs found during development, plus the
reproduction of the paper's OSR-in escape/dead-store unsoundness anecdote
(section 4.2) behind its config switch."""

import pytest

from conftest import make_vm
from repro import from_r


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
    must be a failed compile like any other: counted, reported as
    `osr_in_failed`, and the call finishes in the interpreter.  The graph
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
    assert [e.kind for e in vm.state.events if e.kind.endswith("_failed")] == ["osr_in_failed"]


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


# -- the section 4.2 unsoundness anecdote --------------------------------------------

ESCAPED_LOOP_SRC = """
run <- function(n) {
  total <- 0
  observer <- function() total
  for (i in 1:n) total <- total + i
  observer()
}
"""


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
