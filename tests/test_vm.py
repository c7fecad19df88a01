"""Tests for the VM: tiering policy, argument matching for the native
calling convention, telemetry, and the public API."""

import pytest

from conftest import make_vm
from repro import Config, RVM, from_r, to_r
from repro.deoptless.context import MAX_STACK
from repro.runtime.values import RError


def test_compile_threshold_respected():
    vm = make_vm(compile_threshold=5)
    vm.eval("f <- function(x) x + 1")
    for _ in range(5):
        vm.eval("f(1)")
    assert vm.state.compiles == 0
    vm.eval("f(1)")
    assert vm.state.compiles == 1


def test_jit_disabled_never_compiles():
    vm = make_vm(enable_jit=False)
    vm.eval("f <- function(x) x + 1")
    for _ in range(20):
        vm.eval("f(1)")
    assert vm.state.compiles == 0


def test_native_call_with_named_args():
    vm = make_vm(compile_threshold=1)
    vm.eval("f <- function(a, b) a - b")
    for _ in range(3):
        r = vm.eval("f(b = 1, a = 10)")
    assert from_r(r) == 9.0
    assert vm.state.compiles == 1


def test_native_call_with_constant_default():
    vm = make_vm(compile_threshold=1)
    vm.eval("f <- function(a, b = 100) a + b")
    for _ in range(3):
        r = vm.eval("f(1)")
    assert from_r(r) == 101.0


def test_non_constant_default_forces_env_mode():
    vm = make_vm(compile_threshold=1)
    vm.eval("f <- function(a, b = a * 2) a + b")
    for _ in range(3):
        r = vm.eval("f(3)")
    assert from_r(r) == 9.0
    ev = vm.state.events_of("compile")
    assert ev and ev[0].details["env_elided"] is False


def test_compile_failure_blacklists():
    # read-before-assign on a path makes the function uncompilable
    vm = make_vm(compile_threshold=1)
    vm.eval("f <- function(c) { if (c) x <- 1\nx }")
    for _ in range(4):
        vm.eval("f(TRUE)")
    assert vm.state.compile_failures == 1  # tried once, then blacklisted
    clo = vm.global_env.get("f")
    assert clo.jit.cant_compile


def test_call_api_and_conversions():
    vm = make_vm()
    vm.eval("f <- function(v) length(v)")
    assert from_r(vm.call("f", to_r([1, 2, 3]))) == 3


def test_get_set_global():
    vm = make_vm()
    vm.set_global("x", to_r(42))
    assert from_r(vm.eval("x + 1L")) == 43


def test_output_capture():
    vm = make_vm()
    vm.eval('cat("hello")')
    assert vm.output == ["hello"]


def test_cycles_monotone():
    vm = make_vm()
    c0 = vm.cycles()
    vm.eval("s <- 0\nfor (i in 1:100) s <- s + i")
    assert vm.cycles() > c0


def test_telemetry_snapshot_keys():
    vm = make_vm()
    vm.eval("1 + 1")
    snap = vm.state.snapshot()
    for key in ("interp_ops", "native_ops", "compiles", "deopts",
                "deoptless_dispatches", "allocations", "code_size"):
        assert key in snap


def test_code_size_tracks_retirement():
    # ctxdispatch off: the dbl call must deopt and retire the generic
    # version, not dispatch to a specialized sibling that stays resident
    vm = make_vm(compile_threshold=1, ctxdispatch=False)
    vm.eval("f <- function(v, n) { s <- 0\nfor (i in 1:n) s <- s + v[[i]]\ns }")
    vm.eval("xi <- c(1L, 2L)")
    for _ in range(3):
        vm.eval("f(xi, 2L)")
    assert vm.state.code_size > 0
    vm.eval("f(c(1.5), 1L)")  # deopt retires the version
    assert vm.state.code_size == 0


def test_deopt_resets_warmup_counter():
    # ctxdispatch off: the dbl call must deopt in the generic version (a
    # specialized entry version would handle it without re-warming)
    vm = make_vm(compile_threshold=3, ctxdispatch=False)
    vm.eval("f <- function(v, n) { s <- 0\nfor (i in 1:n) s <- s + v[[i]]\ns }")
    vm.eval("xi <- c(1L, 2L)")
    for _ in range(5):
        vm.eval("f(xi, 2L)")
    vm.eval("f(c(1.5), 1L)")
    clo = vm.global_env.get("f")
    assert clo.jit.call_count == 0, "deopt re-warms before recompiling"


def test_rerror_propagates_from_all_tiers():
    for cfg in (dict(enable_jit=False), dict(compile_threshold=1)):
        vm = make_vm(**cfg)
        vm.eval("f <- function(v) v[[10]]")
        for _ in range(2):
            with pytest.raises(RError, match="subscript out of bounds"):
                vm.eval("f(c(1L, 2L))")


def test_config_dataclass_defaults_match_paper():
    cfg = Config()
    assert cfg.deoptless_max_continuations == 5
    assert MAX_STACK == 16
    assert cfg.deoptless_max_env == 32


def test_every_config_field_has_a_reader():
    """A field that only the cache key reads changes nothing that runs: it
    is a constant next to its reader, not a ``Config`` field.  Every field
    is read (an attribute load, or a ``getattr`` name) somewhere in the
    package outside ``codecache.config_key``."""
    import ast
    import dataclasses
    import pathlib

    import repro

    read = set()
    for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
        tree = ast.parse(path.read_text())
        key_nodes = {id(n) for fn in ast.walk(tree)
                     if isinstance(fn, ast.FunctionDef) and fn.name == "config_key"
                     for n in ast.walk(fn)}
        for node in ast.walk(tree):
            if id(node) in key_nodes:
                continue
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    assert [f.name for f in dataclasses.fields(Config) if f.name not in read] == []


def test_promise_argument_into_native_code():
    vm = make_vm(compile_threshold=1)
    vm.eval("g <- function() 21\nf <- function(x) x * 2")
    for _ in range(4):
        r = vm.eval("f(g())")  # g() is an effectful arg: passed as promise
    assert from_r(r) == 42.0


def test_unused_lazy_argument_never_forced_in_native_code():
    vm = make_vm(compile_threshold=1)
    vm.eval("""
count <- 0
bump <- function() { count <<- count + 1\ncount }
f <- function(a, b) a
""")
    for _ in range(5):
        vm.eval("f(1, bump())")
    assert from_r(vm.eval("count")) == 0.0


#: the phase-change workload's programs and the calls that flip them (the
#: phaseflip programs flip inside every call of their own)
_PHASE_CALLS = {
    "sum_phases": (
        "sum()",
        "data <- numeric(length)\nfor (i in 1:length) data[[i]] <- i * 1.5\nsum()",
        "data <- complex(length)\nfor (i in 1:length) data[[i]] <- complex(i * 1.0, 1.0)\nsum()",
    ),
    "colsum": ("f(1L, tbl)", "f(2L, tbl)"),
    "reopt_rsa": ("rsa_run(rsa_msgs, rsa_n, rsa_key_int, rsa_mod, 1L)",
                  "rsa_run(rsa_msgs, rsa_n, rsa_key_dbl, rsa_mod, 1L)"),
    "phaseflip_sum": (None,),
    "phaseflip_dot": (None,),
    "phaseflip_twice": (None,),
}


def _installed_units(vm):
    """Every generic version, entry version and deoptless continuation a
    global closure has installed."""
    for _, fn in vm.global_env.items():
        st = getattr(fn, "jit", None)
        if st is None:
            continue
        if st.version is not None:
            yield st.version
        if st.versions is not None:
            yield from (code for _, code in st.versions.entries)
        yield from (code for _, code in st.deoptless_table.entries)


@pytest.mark.parametrize("deoptless", [True, False])
def test_no_installed_unit_is_invalidated(deoptless):
    """``invalidated`` is set only as a unit leaves its closure's slot or
    table, which is why dispatch never re-checks it: after every deopt of
    the phase-change programs, nothing installed carries the flag."""
    from repro.bench.programs import REGISTRY

    vm = make_vm(enable_deoptless=deoptless)
    checked = []
    deopt = vm.deopt

    def checking_deopt(*args, **kw):
        result = deopt(*args, **kw)
        checked.append(sum(code.invalidated for code in _installed_units(vm)))
        return result

    vm.deopt = checking_deopt
    for name, calls in _PHASE_CALLS.items():
        w = REGISTRY.get(name)
        vm.eval(w.source)
        vm.eval(w.setup_code(w.n_test))
        for _ in range(2):
            for call in calls:
                for _ in range(4):
                    vm.eval(call or w.call_code(w.n_test))
    assert len(checked) == vm.state.deopts > 0
    assert vm.state.invalidations > 0 or deoptless
    assert not any(checked)
