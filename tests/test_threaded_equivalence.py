"""Differential proof that the execution engines are equivalent.

The two execution engines — the if/elif reference loops
(``RERPO_REF_EXEC=1``) and the default fast engines (opcode-ordered bytecode
loop + per-unit Python codegen) — must be observationally identical: same
results, same deopt event stream, and the exact same op/guard telemetry
(the cost model's inputs).  Every workload in the benchmark registry is run
under both engines across tier configurations, including chaos mode with
fixed seeds, and the full dispatch signatures are compared.
"""

import pytest
from hypothesis import given, settings, strategies as st

import test_differential_fuzz as fuzz
from conftest import engine_signature, make_vm
from repro import from_r
from repro.bench.figures import FIG6_SUITE
from repro.bench.programs import REGISTRY

#: engine-equivalence must hold in every execution mode, including chaos
#: (which additionally proves the engines consume the chaos RNG in the same
#: sequence: any extra or missing guard check would desynchronize it)
ENGINE_CONFIGS = {
    "interp": dict(enable_jit=False),
    "jit": dict(compile_threshold=1, osr_threshold=50),
    "deoptless": dict(compile_threshold=1, osr_threshold=50, enable_deoptless=True),
    "chaos": dict(
        compile_threshold=1,
        osr_threshold=50,
        enable_deoptless=True,
        chaos_rate=0.05,
        chaos_seed=1234,
    ),
}

#: the two execution engines, as Config overrides.  ``reference`` is the
#: semantic spec; ``codegen`` must match it bit-for-bit.
ENGINES = {
    "reference": dict(threaded_dispatch=False),
    "codegen": dict(threaded_dispatch=True),
}


def run_workload(name, cfg, engine, repeats=2):
    w = REGISTRY.get(name)
    vm = make_vm(**ENGINES[engine], **cfg)
    vm.eval(w.source)
    vm.eval(w.setup_code(w.n_test))
    results = [from_r(vm.eval(w.call_code(w.n_test))) for _ in range(repeats)]
    return results, engine_signature(vm)


@pytest.mark.parametrize("mode", sorted(ENGINE_CONFIGS))
@pytest.mark.parametrize("name", REGISTRY.names())
def test_engine_matches_reference(name, mode):
    cfg = ENGINE_CONFIGS[mode]
    t_results, t_sig = run_workload(name, cfg, "codegen")
    r_results, r_sig = run_workload(name, cfg, "reference")
    assert t_results == r_results, "%s[%s]: results diverged" % (name, mode)
    for key in r_sig:
        assert t_sig[key] == r_sig[key], (
            "%s[%s]: %s diverged: codegen=%r reference=%r"
            % (name, mode, key, t_sig[key], r_sig[key])
        )


# -- the baseline tier: interpreter.run against interpreter.run_ref ------------

def _code_objects(vm):
    """Every CodeObject reachable from the closures bound at top level:
    bodies, default-argument thunks, promise thunks and nested closures."""
    from repro.bytecode.compiler import CodeObject
    from repro.runtime.values import RClosure

    seen, out = set(), []

    def visit(x):
        if isinstance(x, RClosure):
            visit(x.code)
            visit(x.formals)
        elif isinstance(x, CodeObject):
            if id(x) not in seen:
                seen.add(id(x))
                out.append(x)
                visit(x.consts)
        elif isinstance(x, (list, tuple)):
            for y in x:
                visit(y)

    for name in sorted(vm.global_env.bindings):
        visit(vm.global_env.bindings[name])
    return out


def _observed(o):
    return (sorted(o.kinds), o.all_scalar, o.saw_na, o.count)


def _slot_profile(fb):
    from repro.bytecode.feedback import BinopFeedback, CallFeedback, ObservedType

    if isinstance(fb, ObservedType):
        return ("obs",) + _observed(fb)
    if isinstance(fb, BinopFeedback):
        return ("binop", _observed(fb.lhs), _observed(fb.rhs))
    if isinstance(fb, CallFeedback):
        return ("call", [(type(t).__name__, t.name) for t in fb.targets],
                fb.megamorphic, fb.count, fb.arg_profiles)
    return ("branch", fb.taken, fb.not_taken)


def baseline_observation(src, setup, calls, threaded):
    """Everything the profiling tier is specified by: results (or the error
    raised), ops retired, vectors allocated, and the recorded profile."""
    from repro.runtime.values import RVector

    vm = make_vm(enable_jit=False, threaded_dispatch=threaded)
    vm.eval(src)
    if setup:
        vm.eval(setup)
    allocs = RVector.allocations
    results = []
    for call in calls:
        try:
            results.append(from_r(vm.eval(call)))
        except Exception as e:  # noqa: BLE001 - error identity is the point
            results.append((type(e).__name__, str(e)))
    profile = [
        (code.name, pc, _slot_profile(code.feedback[pc]))
        for code in _code_objects(vm) for pc in sorted(code.feedback)
    ]
    return results, vm.state.interp_ops, RVector.allocations - allocs, profile


def assert_baseline_loops_agree(src, setup, calls):
    fast = baseline_observation(src, setup, calls, threaded=True)
    ref = baseline_observation(src, setup, calls, threaded=False)
    assert fast[0] == ref[0], "results diverged"
    assert fast[1] == ref[1], "interp_ops diverged"
    assert fast[2] == ref[2], "allocations diverged"
    assert len(ref[3]) > 0
    for got, want in zip(fast[3], ref[3]):
        assert got == want, "feedback diverged: run=%r run_ref=%r" % (got, want)
    assert len(fast[3]) == len(ref[3])


@pytest.mark.parametrize("name", FIG6_SUITE)
def test_baseline_loop_matches_reference_on_suite(name):
    """``run`` takes memoized feedback records, inlined bindings and scalar
    fast returns; ``run_ref`` takes none of them.  Same results, op counts,
    allocations and per-pc profile on the ten suite programs."""
    w = REGISTRY.get(name)
    assert_baseline_loops_agree(
        w.source, w.setup_code(w.n_test), [w.call_code(w.n_test)] * 2)


#: what the inlined arms of ``run`` must still get right: NAMED bookkeeping
#: under aliasing, scope-chain and promise loads, unbound names, and every
#: shape of argument matching (positional, defaults, named, too many)
DIRECTED_SRC = """
alias <- function(n) {
  x <- c(1L, 2L, 3L)
  y <- x
  for (i in 1:n) x[[i]] <- x[[i]] + 10L
  z <- x
  z[[1]] <- 0L
  x[[1]] + y[[1]] + z[[1]]
}
g0 <- 5L
scope <- function(a, b = a * 2L, c = g0) {
  inner <- function() a + b + c + g0
  inner()
}
lazy <- function(p, q) if (p > 0L) p else q
unbound <- function() nosuchvar + 1L
"""

DIRECTED_CALLS = [
    "alias(3L)", "alias(2L)",
    "scope(1L)", "scope(1L, 2L)", "scope(1L, c = 7L)", "scope(c = 1.5, a = 2L)",
    "scope(1L, 2L, 3L, 4L)", "scope(1L, zz = 2L)", "scope(a = 1L, a = 2L)",
    "lazy(1L, unbound())", "lazy(0L, scope(1L))", "lazy(0L, unbound())", "unbound()",
]


def test_baseline_loop_matches_reference_on_directed_cases():
    assert_baseline_loops_agree(DIRECTED_SRC, None, DIRECTED_CALLS)
    results = baseline_observation(DIRECTED_SRC, None, DIRECTED_CALLS, True)[0]
    assert results[0] == 11 + 1 + 0
    assert results[2:6] == [13, 13, 15, 12.5]
    assert [r[0] for r in results[6:9]] == ["RError"] * 3
    assert results[9:11] == [1, 13]
    assert [r[0] for r in results[11:]] == ["RError"] * 2


@st.composite
def baseline_script(draw):
    """(source, calls) from the differential-fuzz program strategies, with
    the type and call-target phase changes their own tests drive."""
    xs = draw(fuzz.vectors)
    n = len(xs)
    ivec = "c(%s)" % ", ".join("%dL" % x for x in xs)
    dvec = "c(%s)" % ", ".join("%d.5" % x for x in xs)
    lvec = "c(%s)" % ", ".join("TRUE" if x > 0 else "FALSE" for x in xs)
    which = draw(st.integers(0, 6))
    if which == 0:
        src = draw(fuzz.loop_program())
        calls = ["kernel(%s, %dL)" % (v, n) for v in (ivec, ivec, dvec, ivec)]
    elif which == 1:
        src = draw(fuzz.call_chain_program())
        calls = ["drive(%s, %dL)" % (g, n) for g in ("h1", "h1", "h2", "h1")]
    elif which == 2:
        src = draw(fuzz.inline_program())
        calls = ["drive(%dL)" % n] * 2
    elif which == 3:
        src = draw(fuzz.polymorphic_entry_program())
        calls = ["pksum(%s, %dL, 2L)" % (v, n) for v in (ivec, dvec, lvec, ivec)]
    elif which == 4:
        src = draw(fuzz.nested_loop_program())
        calls = ["nest(%s, %dL, %dL)" % (ivec, draw(st.integers(1, 4)), n)] * 2
    elif which == 5:
        # the last subscript may be out of bounds: the raising op counts too
        idx = [1 + j % n for j in range(n)] + [draw(st.integers(1, n + 3))]
        src = draw(fuzz.gather_program())
        calls = ["gsum(%s, c(%s), %dL)"
                 % (ivec, ", ".join("%dL" % j for j in idx), len(idx))] * 2
    else:
        src = draw(fuzz.envcapture_program())
        calls = ["ecap(2L, %dL)" % n] * 2
    return src, calls


@given(baseline_script())
@settings(max_examples=60, deadline=None)
def test_baseline_loop_matches_reference_on_fuzz(script):
    src, calls = script
    assert_baseline_loops_agree(src, None, calls)


def test_ref_exec_env_var_selects_reference(monkeypatch):
    from repro.jit.config import Config

    monkeypatch.setenv("RERPO_REF_EXEC", "1")
    assert Config().threaded_dispatch is False
    monkeypatch.delenv("RERPO_REF_EXEC")
    assert Config().threaded_dispatch is True
