"""Edge-case tests for individual native ops and the CLI entry point."""

import math

import pytest

from conftest import assert_all_tiers, engine_signature, make_vm
from repro import from_r
from repro.bench.programs import REGISTRY
from repro.native import ops as N
from repro.runtime.rtypes import Kind
from repro.runtime.values import RError


def warmed(src, call, times=4, **cfg):
    cfg.setdefault("compile_threshold", 1)
    vm = make_vm(**cfg)
    vm.eval(src)
    r = None
    for _ in range(times):
        r = vm.eval(call)
    return vm, from_r(r)


def test_ppow_int_int_is_double_representation():
    """2L ^ 3L is a double in R; the native register must hold a float so
    boxing produces a well-formed double vector."""
    vm, r = warmed("f <- function(a, b) a ^ b\n", "f(2L, 3L)")
    assert r == 8.0 and isinstance(r, float)


def test_pow_zero_negative_exponent_inf():
    assert_all_tiers("f <- function(a, b) a ^ b\nf(0, -1)", math.inf, repeat=3)


def test_vstore_retype_falls_back_to_generic():
    """Storing a double into an int vector inside native code retypes the
    vector through the generic path."""
    src = """
f <- function() {
  v <- integer(3)
  for (i in 1:3) v[[i]] <- i
  v[[2]] <- 0.5
  v[[2]]
}
f()
"""
    assert_all_tiers(src, 0.5, repeat=4)


def test_vstore_growth_in_native_code():
    src = """
f <- function(n) {
  v <- integer(2)
  for (i in 1:n) v[[i]] <- i
  length(v)
}
"""
    assert_all_tiers(src + "f(7L)", 7, repeat=4)


def test_superassign_from_native_code():
    src = """
counter <- 0L
bump_many <- function(n) {
  for (i in 1:n) counter <<- counter + 1L
  counter
}
"""
    vm, r = warmed(src, "bump_many(10L)", times=4)
    assert r == 40
    assert from_r(vm.eval("counter")) == 40


def test_guarded_mod_zero_divisor_deopts_to_na():
    vm, r = warmed("f <- function(a, b) a %% b\n", "f(7L, 3L)")
    assert r == 1
    assert from_r(vm.eval("f(7L, 0L)")) is None  # NA via deopt
    assert vm.state.deopts >= 1


def test_float_mod_zero_is_nan_without_deopt():
    vm, r = warmed("f <- function(a, b) a %% b\n", "f(7.5, 3.0)")
    deopts = vm.state.deopts
    assert math.isnan(from_r(vm.eval("f(7.5, 0.0)")))
    assert vm.state.deopts == deopts


def test_bounds_error_identical_across_tiers():
    from repro.runtime.values import RError

    for cfg in (dict(enable_jit=False), dict(compile_threshold=1)):
        vm = make_vm(**cfg)
        vm.eval("f <- function(v, i) v[[i]]")
        for _ in range(3):
            assert from_r(vm.eval("f(c(1L,2L), 2L)")) == 2
        with pytest.raises(RError, match="subscript out of bounds"):
            vm.eval("f(c(1L,2L), 3L)")
        with pytest.raises(RError, match="subscript out of bounds"):
            vm.eval("f(c(1L,2L), 0L)")


def test_logical_arith_in_native_code():
    assert_all_tiers("f <- function(a, b) (a > b) + (b > a)\nf(2L, 1L)", 1, repeat=4)


def test_string_comparison_in_native_code():
    assert_all_tiers('f <- function(a, b) a < b\nf("apple", "banana")', True, repeat=4)


def test_deeply_nested_calls_through_tiers():
    src = """
l1 <- function(x) x + 1L
l2 <- function(x) l1(x) * 2L
l3 <- function(x) l2(x) + l1(x)
l4 <- function(x) l3(x) - l2(x)
l4(5L)
"""
    assert_all_tiers(src, 6, repeat=5)


def test_native_code_invalidated_mid_recursion():
    """A deopt inside a recursive call tower: inner activations tier down
    while outer native activations are still on the Python stack."""
    src = """
walk <- function(v, i) {
  if (i > length(v)) 0
  else v[[i]] + walk(v, i + 1L)
}
"""
    vm = make_vm(compile_threshold=1)
    vm.eval(src)
    vm.eval("xi <- c(1L, 2L, 3L, 4L)")
    for _ in range(4):
        assert from_r(vm.eval("walk(xi, 1L)")) == 10
    # switch to doubles: some activation deopts mid-tower
    assert from_r(vm.eval("walk(c(1.5, 2.5), 1L)")) == 4.0
    assert from_r(vm.eval("walk(xi, 1L)")) == 10


def test_bench_cli_subset():
    from repro.bench.__main__ import main

    assert main(["--only", "fig10", "--scale", "test"]) == 0


def test_bench_cli_rejects_unknown():
    from repro.bench.__main__ import main

    with pytest.raises(SystemExit):
        main(["--only", "not_a_figure"])


# ---------------------------------------------------------------------------
# typed subscripts: VLOAD / VSTORE carry an int-index flag and, for a store,
# the vector kind a guard proved; the generated code trusts both, the
# reference loop asserts them
# ---------------------------------------------------------------------------

def on_engines(src, calls, times=4):
    """Run ``calls`` (each ``times`` times) on both native engines and return
    the VMs after checking every result against the interpreter's and the
    two engines' ``engine_signature`` against each other."""
    want = None
    vms = []
    for cfg in (dict(enable_jit=False), dict(threaded_dispatch=True),
                dict(threaded_dispatch=False)):
        vm = make_vm(compile_threshold=1, **cfg)
        vm.eval(src)
        got = [[repr(from_r(vm.eval(c))) for c in calls] for _ in range(times)]
        if want is None:
            want = got[0]
            continue
        assert all(g == want for g in got), (cfg, got, want)
        vms.append(vm)
    assert engine_signature(vms[0]) == engine_signature(vms[1])
    return vms


def subscript_ops(vm, name):
    """The ``VLOAD`` / ``VSTORE`` ops of ``name``'s compiled version."""
    nc = vm.get_global(name).jit.version
    return [op for op in nc.ops if op[0] in (N.VLOAD, N.VSTORE)]


def int_index(op):
    return op[5] if op[0] == N.VLOAD else op[6]


def test_a_double_subscript_truncates_on_both_engines():
    src = """
ld <- function(x, i) x[[i]]
st <- function(x, i, v) { x[[i]] <- v; x }
x <- c(10.5, 20.5, 30.5)
"""
    for vm in on_engines(src, ["ld(x, 2.7)", "st(x, 2.7, 1.5)", "x"]):
        for name in ("ld", "st"):
            (op,) = subscript_ops(vm, name)
            assert not int_index(op)
        assert from_r(vm.eval("ld(x, 2.7)")) == 20.5


def test_a_computed_double_subscript_truncates_in_a_loop():
    src = """
ld <- function(x, n) { s <- 0; for (i in 2:n) s <- s + x[[i / 2]] * i; s }
st <- function(x, n) { for (i in 2:n) x[[i / 2]] <- i; x }
x <- c(1.5, 2.5, 3.5, 4.5, 5.5)
"""
    for vm in on_engines(src, ["ld(x, 9L)", "st(x, 9L)"]):
        for name in ("ld", "st"):
            assert any(not int_index(op) for op in subscript_ops(vm, name))


def test_a_logical_subscript_is_an_int_index():
    src = """
ld <- function(x, b) x[[b]]
st <- function(x, b) { x[[b]] <- 9.5; x }
x <- c(5.5, 6.5)
"""
    for vm in on_engines(src, ["ld(x, TRUE)", "st(x, TRUE)"]):
        for name in ("ld", "st"):
            (op,) = subscript_ops(vm, name)
            assert int_index(op)
        assert from_r(vm.eval("ld(x, TRUE)")) == 5.5


def test_an_int_stored_into_a_proven_double_vector_reads_back_a_float():
    src = """
f <- function(n) { v <- numeric(n); for (i in 1:n) v[[n + 1L - i]] <- i; v }
"""
    for vm in on_engines(src, ["f(5L)"]):
        (st,) = [op for op in subscript_ops(vm, "f") if op[0] == N.VSTORE]
        assert (st[5], st[7]) == (Kind.INT, Kind.DBL), "the widening arm is typed"
        v = from_r(vm.eval("f(5L)"))
        assert v == [5.0, 4.0, 3.0, 2.0, 1.0]
        assert all(type(e) is float for e in v)


def test_a_store_into_a_shared_vector_copies():
    """An argument is shared with the caller's binding: the first store into
    it copies, even where a guard proved its kind."""
    src = """
f <- function(x, n) { for (i in 1:n) x[[n + 1L - i]] <- i * 0.5; x }
x <- c(1.5, 2.5, 3.5, 4.5)
"""
    for vm in on_engines(src, ["f(x, 4L)", "x"]):
        (st,) = [op for op in subscript_ops(vm, "f") if op[0] == N.VSTORE]
        assert st[7] == Kind.DBL, "the proven arm is the one that copies"
        assert from_r(vm.eval("f(x, 4L)")) == [2.0, 1.5, 1.0, 0.5]
        assert from_r(vm.eval("x")) == [1.5, 2.5, 3.5, 4.5]


@pytest.mark.parametrize("engine", [True, False])
def test_an_out_of_range_typed_subscript_raises(engine):
    vm = make_vm(compile_threshold=1, threaded_dispatch=engine)
    vm.eval("ld <- function(x, i) x[[i]]\nst <- function(x, i) { x[[i]] <- 2.5; x }")
    vm.eval("x <- c(1.5, 2.5)")
    for _ in range(3):
        assert from_r(vm.eval("ld(x, 2L)")) == 2.5
        assert from_r(vm.eval("st(x, 1L)")) == [2.5, 2.5]
    assert all(int_index(op) for name in ("ld", "st") for op in subscript_ops(vm, name))
    for bad in ("ld(x, 3L)", "ld(x, 0L)", "st(x, 0L)"):
        with pytest.raises(RError, match="subscript out of bounds"):
            vm.eval(bad)


#: the reference engine, chaos on and OSR-in early: what the generated code
#: trusts is asserted on hop-seeded and OSR-entered registers too
_ORACLE_CFG = dict(threaded_dispatch=False, compile_threshold=1, osr_threshold=5,
                   enable_deoptless=True, chaos_rate=1e-2, chaos_seed=5)


def test_the_reference_engine_asserts_what_the_emitter_trusts():
    """Every registry program at ``n_test`` on the reference engine, whose
    ``VLOAD`` / ``VSTORE`` assert that an int-flagged index is an ``int``
    and that a guard-proven vector has its kind: the results are the
    interpreter's, and OSR-ins, hops and both facts were all reached."""
    seen = {"osr_ins": 0, "osr_hops": 0, "int": 0, "dbl": 0, "vkind": 0}
    for name in REGISTRY.names():
        w = REGISTRY.get(name)
        runs = []
        for cfg in (dict(enable_jit=False), _ORACLE_CFG):
            vm = make_vm(**cfg)
            vm.eval(w.source)
            vm.eval(w.setup_code(w.n_test))
            runs.append([repr(from_r(vm.eval(w.call_code(w.n_test)))) for _ in range(3)])
        assert runs[1] == runs[0][:1] * 3, name
        s = vm.state
        assert s.compile_failures == 0, name
        seen["osr_ins"] += s.osr_ins
        seen["osr_hops"] += s.osr_hops
        for unit in vm.code_cache.entries.values():
            for op in unit.ncode.ops:
                if op[0] in (N.VLOAD, N.VSTORE):
                    seen["int" if int_index(op) else "dbl"] += 1
                    seen["vkind"] += op[0] == N.VSTORE and op[7] is not None
    assert all(seen.values()), seen
