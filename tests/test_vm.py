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


def test_compile_failure_blacklists(monkeypatch):
    # a build that raises makes the function uncompilable (read-before-assign
    # on a path no longer does: the unit keeps its environment)
    from repro.ir.builder import CompilationFailure, GraphBuilder

    def build(self):
        raise CompilationFailure("refused")

    monkeypatch.setattr(GraphBuilder, "build", build)
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
    "volcano": ("volcano_frame(hm_dbl, vw, vh, 1.0, 0.6, interp_bilinear)",
                "volcano_frame(hm_dbl, vw, vh, 1.0, 0.6, interp_nearest)",
                "volcano_frame(hm_int, vw, vh, 1.0, 0.6, interp_bilinear)"),
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


def _run_phases(vm, after_call=lambda: None):
    from repro.bench.programs import REGISTRY

    for name, calls in _PHASE_CALLS.items():
        w = REGISTRY.get(name)
        vm.eval(w.source)
        vm.eval(w.setup_code(w.n_test))
        for _ in range(2):
            for call in calls:
                for _ in range(4):
                    vm.eval(call or w.call_code(w.n_test))
                    after_call()


@pytest.mark.parametrize("deoptless", [True, False])
def test_no_installed_unit_is_invalidated(deoptless):
    """``invalidated`` is set only as a unit leaves its closure's slot or
    table, which is why dispatch never re-checks it: after every deopt of
    the phase-change programs, nothing installed carries the flag.  After
    every top-level call, ``code_size`` is the size of what is installed:
    ``RVM.retire`` takes out of it exactly what leaves a slot or table.
    Without chaos, deoptless retires nothing; with it, units leave all three
    places."""
    for chaos in (0.0, 1e-3):
        vm = make_vm(enable_deoptless=deoptless, chaos_rate=chaos, chaos_seed=1)
        checked, sizes = [], []
        deopt = vm.deopt

        def checking_deopt(*args, **kw):
            result = deopt(*args, **kw)
            checked.append(sum(code.invalidated for code in _installed_units(vm)))
            return result

        vm.deopt = checking_deopt
        _run_phases(vm, after_call=lambda: sizes.append(
            (vm.state.code_size, sum(code.size for code in _installed_units(vm)))))
        assert len(checked) == vm.state.deopts > 0
        assert vm.state.invalidations > 0 or deoptless
        assert not any(checked)
        assert all(counted == installed for counted, installed in sizes), (chaos, sizes)


# ---------------------------------------------------------------------------
# the deopt tail: RVM.refute, then RVM.recover (DESIGN.md)
# ---------------------------------------------------------------------------

_KINDS = ("continuation", "hop", "interpreter")


def _check_recoveries(vm, resumes):
    """Every ``deopt`` event says where control went, once, and the records
    reconcile with what ran there."""
    events = vm.state.events_of("deopt")
    assert len(events) == vm.state.deopts > 0
    assert all(e.details["recovery"] in _KINDS for e in events)
    by_kind = {k: sum(e.details["recovery"] == k for e in events) for k in _KINDS}
    assert by_kind["continuation"] == vm.state.deoptless_dispatches
    assert by_kind["interpreter"] == len(resumes)
    assert by_kind["hop"] == sum(e.details["via"] == "deopt"
                                 for e in vm.state.events_of("osr_hop"))
    for e in events:
        options = [option for option, _ in e.details["refused"]]
        assert options == list(_KINDS[:_KINDS.index(e.details["recovery"])])
    return by_kind


def _spy_resumes(monkeypatch):
    from repro.osr import osr_out

    resumes, resume = [], osr_out.resume_in_interpreter
    monkeypatch.setattr(osr_out, "resume_in_interpreter",
                        lambda vm, fs: resumes.append(fs) or resume(vm, fs))
    return resumes


@pytest.mark.parametrize("threaded", [True, False])
def test_every_phase_change_deopt_gets_one_recovery(threaded, monkeypatch):
    resumes = _spy_resumes(monkeypatch)
    vm = make_vm(enable_deoptless=True, threaded_dispatch=threaded)
    _run_phases(vm)
    assert _check_recoveries(vm, resumes)["continuation"] > 0


@pytest.mark.parametrize("threaded", [True, False])
def test_every_chaos_deopt_gets_one_recovery(threaded, monkeypatch):
    from repro.bench.programs import REGISTRY

    resumes = _spy_resumes(monkeypatch)
    vm = make_vm(enable_deoptless=True, threaded_dispatch=threaded,
                 chaos_rate=1e-2, chaos_seed=3)
    w = REGISTRY.get("nbody")
    vm.eval(w.source)
    vm.eval(w.setup_code(w.n_test))
    for _ in range(6):
        vm.eval(w.call_code(w.n_test))
    by_kind = _check_recoveries(vm, resumes)
    assert by_kind["continuation"] > 0 and by_kind["interpreter"] > 0


#: a global read at the loop header: every unit guards it there, at the pc
#: of its OSR entry, so a chaos draw at that guard may hop
HEADER_GUARD = """
hsum <- function(v) {
  s <- 0
  i <- 1L
  while (hn >= i) { s <- s + v[[i]]; i <- i + 1L }
  s
}
hn <- 12L
hv <- c(1L, 2L, 3L, 4L, 5L, 6L, 7L, 8L, 9L, 10L, 11L, 12L)
"""


def test_a_failure_inside_a_continuation_hops_back_into_the_function(monkeypatch):
    """Draw 0 fails the header guard in ``hsum``'s unit: a continuation
    takes over.  Draw 1 fails the same guard inside it: no recursive
    deoptless, and a chaos deopt retires nothing but the continuation, so
    control hops into the function's unit at the header."""
    from conftest import on_engines

    resumes = _spy_resumes(monkeypatch)
    for vm in on_engines(HEADER_GUARD, ["hsum(hv)"], fire=(0, 1), chaos_rate=0.5,
                         enable_deoptless=True, ctxdispatch=False):
        assert _check_recoveries(vm, resumes) == {
            "continuation": 1, "hop": 1, "interpreter": 0}
        hop = vm.state.events_of("deopt")[1]
        assert hop.details["refused"] == (("continuation", "from-continuation"),)
        assert vm.state.osr_hops == 1


_COUNTERS = ("deoptless_dispatches", "deoptless_misses", "deoptless_bailouts",
             "dispatch_refusals")


@pytest.mark.parametrize("why, fire, config, moved", [
    ("off", (0,), dict(enable_deoptless=False), ()),
    ("from-continuation", (0, 1), {}, ("deoptless_dispatches",)),
    ("context-bound", (0,), dict(deoptless_max_env=1), ("deoptless_bailouts",)),
    # draw 15 fails another guard (``v[[i]]``'s) in the function's unit
    ("table-full", (0, 15), dict(deoptless_max_continuations=1),
     ("deoptless_dispatches", "deoptless_bailouts", "dispatch_refusals")),
    ("compile-failed", (0,), {}, ("deoptless_misses",)),
])
@pytest.mark.parametrize("threaded", [True, False])
def test_each_refusal_is_named_and_counted_once(why, fire, config, moved, threaded,
                                                monkeypatch):
    """One deopt refuses a continuation for ``why``: its event names it, and
    the counters ``moved`` (each by one) are all that moved."""
    from conftest import FireAt
    from repro.deoptless import engine

    if why == "compile-failed":
        monkeypatch.setattr(engine, "deoptless_compile", lambda *args: None)
    vm = make_vm(**dict(dict(compile_threshold=1, chaos_rate=0.5, enable_deoptless=True,
                             ctxdispatch=False, threaded_dispatch=threaded), **config))
    vm.chaos_rng = FireAt(*fire)
    vm.eval(HEADER_GUARD)
    for _ in range(4):
        assert from_r(vm.eval("hsum(hv)")) == 78.0
    refused = [e.details["refused"][0] for e in vm.state.events_of("deopt")
               if e.details["recovery"] != "continuation"]
    assert refused == [("continuation", why)]
    assert {c: getattr(vm.state, c) for c in _COUNTERS} == {
        c: int(c in moved) for c in _COUNTERS}
