"""Loop vectorization: equivalence, mid-kernel deopt exactness, legality.

The vectorizer's contract is *decline-or-be-exact*: bulk kernels may refuse
to run (zero observable effect — the scalar loop takes over), but whenever
they do run they must be indistinguishable from the scalar execution in
results, deopt event stream, and per-element op/guard accounting.  These
tests pin the contract from four sides:

* differential equivalence of vectorized vs scalar execution over the whole
  benchmark registry, including chaos mode (same RNG consumption order);
* a mid-kernel chaos trip at a deterministic element must materialize the
  exact interpreter frame (loop index, partial accumulator, environment)
  the scalar loop would have had at that element, for every kernel kind
  on both engines, and the kernel's draw helper makes exactly the draws of
  the per-element loop it replaced;
* an ``NA`` at a fixed element ends bulk coverage at the element boundary
  and the retained scalar loop reproduces the reference NA deopt;
* illegal loops — unrecognized cross-iteration dependences, closure calls,
  writing the vector being read, branches, elementwise maps — are rejected
  at match time: the pass
  annotates nothing, the lowered code is bit-identical to a scalar compile,
  and the IR still verifies;
* repeated mid-kernel trips take the deoptless path: a context keyed on the
  in-loop pc lands in the dispatch table and a continuation resumes the
  remaining elements.
"""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import engine_signature, make_vm
from repro import from_r
from repro.bench.programs import REGISTRY
from repro.ir.verifier import verify
from repro.jit import unit
from repro.native import kernels, pycodegen
from repro.native import ops as N
from repro.native.kernels import run_kernel
from repro.native.lower import lower
from repro.osr.framestate import DeoptReasonKind

#: vectorized-vs-scalar equivalence must hold in plain JIT mode and under
#: chaos (which also proves both engines draw from the chaos RNG in the
#: same per-element order: a kernel covering k elements must consume
#: exactly the draws the scalar loop would have)
MODES = {
    "jit": dict(compile_threshold=1, osr_threshold=50),
    "chaos": dict(
        compile_threshold=1,
        osr_threshold=50,
        enable_deoptless=True,
        chaos_rate=0.05,
        chaos_seed=1234,
    ),
}

SUM_SRC = """
f <- function(v, n) {
  total <- 0
  for (i in 1:n) total <- total + v[[i]]
  total
}
"""


#: programs whose hot loops must run as bulk kernels: a planner decline here
#: falls back to the scalar loop with identical results and signature, so
#: only this count would notice
KERNELIZED = {"sum_phases", "colsum", "spectralnorm", "dotprod"}


def run_workload(name, cfg, vectorize, repeats=2):
    w = REGISTRY.get(name)
    vm = make_vm(vectorize=vectorize, **cfg)
    vm.eval(w.source)
    vm.eval(w.setup_code(w.n_test))
    results = [from_r(vm.eval(w.call_code(w.n_test))) for _ in range(repeats)]
    return results, engine_signature(vm), vm


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", REGISTRY.names())
def test_vectorized_matches_scalar(name, mode):
    cfg = MODES[mode]
    v_results, v_sig, v_vm = run_workload(name, cfg, vectorize=True)
    s_results, s_sig, s_vm = run_workload(name, cfg, vectorize=False)
    assert v_results == s_results, "%s[%s]: results diverged" % (name, mode)
    assert v_vm.chaos_rng.getstate() == s_vm.chaos_rng.getstate(), name
    for key in s_sig:
        assert v_sig[key] == s_sig[key], (
            "%s[%s]: %s diverged: vectorized=%r scalar=%r"
            % (name, mode, key, v_sig[key], s_sig[key])
        )
    # kernel_elements is the one engine-dependent counter, by design
    assert s_vm.state.kernel_elements == 0
    if name in KERNELIZED:
        assert v_vm.state.kernel_elements > 0, "%s[%s]: no kernel ran" % (name, mode)


# -- mid-kernel deopt: exact frame at element k ---------------------------------


def _env_of(fs):
    items = fs.env_values if fs.env_values is not None else fs.env.bindings
    # compiler-internal temporaries (the for-loop's hidden index/sequence
    # slots) are gensym'd from a process-global counter, so their *names*
    # differ between two VM instances; normalize the numeric suffix away
    return {re.sub(r"\d+$", "#", name): v for name, v in items.items()}


def _capture_deopts(vm, frames):
    orig = vm.deopt

    def spy(fs, reason, origin=None):
        frames.append((fs.pc, reason.kind, _env_of(fs)))
        return orig(fs, reason, origin=origin)

    vm.deopt = spy


def _assert_same_frames(v_frames, s_frames):
    assert len(v_frames) == len(s_frames)
    for (v_pc, v_kind, v_env), (s_pc, s_kind, s_env) in zip(v_frames, s_frames):
        assert v_pc == s_pc
        assert v_kind == s_kind
        assert sorted(v_env) == sorted(s_env)
        for name in s_env:
            assert from_r(v_env[name]) == from_r(s_env[name]), (
                "frame slot %r diverged at pc %d" % (name, v_pc)
            )


def _chaos_sum_run(vectorize, calls=40, n=400):
    vm = make_vm(
        compile_threshold=1,
        osr_threshold=100000,
        vectorize=vectorize,
        chaos_rate=0.01,
        chaos_seed=99,
        enable_deoptless=False,
    )
    frames = []
    _capture_deopts(vm, frames)
    vm.eval(SUM_SRC)
    vm.eval("v <- 1.5 * (1:%d)" % n)
    results = [from_r(vm.eval("f(v, %d)" % n)) for _ in range(calls)]
    return results, frames, vm


def test_chaos_midkernel_frame_matches_scalar():
    """Chaos fires inside the bulk kernel at deterministic elements; the
    materialized frame (loop index, partial accumulator, env) must equal
    the one the scalar loop builds at the same guard of the same element."""
    v_results, v_frames, v_vm = _chaos_sum_run(vectorize=True)
    s_results, s_frames, s_vm = _chaos_sum_run(vectorize=False)

    assert v_vm.state.kernel_elements > 0, "bulk kernel never ran"
    assert v_vm.state.deopts > 0, "chaos never fired mid-kernel"
    assert v_results == s_results
    _assert_same_frames(v_frames, s_frames)
    # the accounting contract holds through the deopts too
    v_sig, s_sig = engine_signature(v_vm), engine_signature(s_vm)
    for key in s_sig:
        assert v_sig[key] == s_sig[key], "%s diverged" % key


NEST_SRC = """
f <- function(v, m, n) {
  total <- 0
  for (o in 1:m) {
    s <- 0
    for (i in 1:n) s <- s + v[[i]] * o
    total <- total + s
  }
  total
}
"""


def _chaos_nest_run(vectorize, calls=30, m=25, n=60):
    vm = make_vm(
        compile_threshold=1,
        osr_threshold=100000,
        vectorize=vectorize,
        chaos_rate=0.01,
        chaos_seed=424242,
        enable_deoptless=False,
    )
    frames = []
    _capture_deopts(vm, frames)
    vm.eval(NEST_SRC)
    vm.eval("v <- 1.5 * (1:%d)" % n)
    results = [from_r(vm.eval("f(v, %d, %d)" % (m, n))) for _ in range(calls)]
    return results, frames, vm


def test_chaos_midkernel_nested_frame_matches_scalar():
    """Chaos fires inside the *inner* kernel of a loop nest: the
    materialized frame must carry the exact two-level iteration state —
    the outer driver's index and partial total alongside the inner loop's
    index and partial accumulator — as the scalar nest would have built at
    that same (outer, inner) element."""
    v_results, v_frames, v_vm = _chaos_nest_run(vectorize=True)
    s_results, s_frames, s_vm = _chaos_nest_run(vectorize=False)

    assert v_vm.state.kernel_elements > 0, "inner kernel never ran"
    assert v_vm.state.deopts > 0, "chaos never fired mid-kernel"
    assert v_results == s_results
    _assert_same_frames(v_frames, s_frames)
    # at least one trip landed mid-nest: outer iteration > 1 AND inner
    # element index > 1 — the two-level (outer-iter, inner-iter-k) case
    def midnest(env):
        o, i = from_r(env.get("o")), from_r(env.get("i"))
        return isinstance(o, int) and isinstance(i, int) and o > 1 and i > 1

    assert any(midnest(env) for _, _, env in v_frames), (
        "no chaos trip materialized a mid-nest (outer>1, inner>1) frame"
    )
    v_sig, s_sig = engine_signature(v_vm), engine_signature(s_vm)
    for key in s_sig:
        assert v_sig[key] == s_sig[key], "%s diverged" % key


#: one program per kernel kind whose chaos draws fire inside the kernel:
#: (source, setup, call)
MIDKERNEL = {
    "sum": (SUM_SRC, "v <- 1.5 * (1:400)", "f(v, 400)"),
    "fsum-unit": ("""
f <- function(v, y, n) {
  s <- 0
  for (i in 1:n) s <- s + v[[i]] * y[[i]]
  s
}
""", "v <- 1.5 * (1:400); y <- 0.5 * (1:400)", "f(v, y, 400)"),
    # v reaches the NA at i = 31: the prescan stops the kernel there, so
    # only the first 30 iterations' draws are the kernel's.  Some calls fire
    # before it, others reach it: a kernel that drew for i = 31 as well
    # would leave the RNG ahead of the scalar loop
    "fsum-na": ("""
f <- function(v, y, n) {
  s <- 0
  for (i in 1:n) s <- s + v[[i]] * y[[i]]
  s
}
""", "v <- 1.5 * (1:100); v[[31]] <- NA; y <- 0.5 * (1:100)", "f(v, y, 61)"),
    "fill": ("""
f <- function(n) {
  out <- numeric(n)
  for (i in 1:n) out[[i]] <- 2.5
  out
}
""", "", "f(400)"),
    # `out` is read again after the store: its guard is a store_before event
    "copy": ("""
f <- function(v, n) {
  out <- numeric(n)
  for (i in 1:n) {
    out[[i]] <- v[[i]]
    out
  }
  out
}
""", "v <- 1.5 * (1:400)", "f(v, 400)"),
}


@pytest.mark.parametrize("threaded", [True, False], ids=["codegen", "execute_ref"])
@pytest.mark.parametrize("case", sorted(MIDKERNEL))
def test_every_kind_fires_mid_vector(case, threaded, monkeypatch):
    """Each kernel kind takes a chaos deopt from inside the kernel, and the
    deopt frames, results and signature are the scalar loop's."""
    fired = []

    def spy(kd, regs, vm, closure_env):
        res = run_kernel(kd, regs, vm, closure_env)
        if res[0] == "deopt":
            fired.append((kd.kind, next(e for e in kd.events if e.did == res[1]).store_before))
        return res

    monkeypatch.setattr(kernels, "run_kernel", spy)
    monkeypatch.setattr(pycodegen, "run_kernel", spy)
    monkeypatch.setattr(pycodegen, "_ENV_CACHE", None)  # rebuilt around the spy
    src, setup, call = MIDKERNEL[case]
    runs = []
    for vectorize in (True, False):
        vm = make_vm(compile_threshold=1, osr_threshold=100000, vectorize=vectorize,
                     chaos_rate=0.01, chaos_seed=5, enable_deoptless=False,
                     threaded_dispatch=threaded)
        frames = []
        _capture_deopts(vm, frames)
        vm.eval(src)
        vm.eval(setup)
        results = [from_r(vm.eval(call)) for _ in range(8)]
        runs.append((results, frames, engine_signature(vm), vm.chaos_rng.getstate()))
    (v_results, v_frames, v_sig, v_rng), (s_results, s_frames, s_sig, s_rng) = runs
    assert case.split("-")[0] in {kind for kind, _ in fired}, fired
    if case == "copy":
        assert any(store_before for _, store_before in fired)
    if case == "fsum-na":
        assert any(kind == DeoptReasonKind.NA_CHECK for _, kind, _ in v_frames)
    assert v_results == s_results
    _assert_same_frames(v_frames, s_frames)
    assert v_sig == s_sig
    assert v_rng == s_rng


def _first_draw_loop(rng, rate, events, n):
    """The per-element draw loop ``_first_draw`` replaced."""
    for jd in range(n):
        for ev in events:
            if rng.random() < rate:
                return jd, ev
    return None


@given(st.integers(0, 2**32), st.floats(0.0, 1.0), st.integers(1, 4), st.integers(0, 300))
@settings(max_examples=300, deadline=None)
def test_first_draw_matches_the_loop(seed, rate, nev, n):
    events = tuple("ev%d" % e for e in range(nev))
    a, b = random.Random(seed), random.Random(seed)
    assert kernels._first_draw(a, rate, events, n) == _first_draw_loop(b, rate, events, n)
    assert a.getstate() == b.getstate()


def _na_sum_run(vectorize, na_at=250, n=400, calls=6):
    vm = make_vm(compile_threshold=1, osr_threshold=100000, vectorize=vectorize)
    frames = []
    _capture_deopts(vm, frames)
    vm.eval(SUM_SRC)
    vm.eval("v <- 1.5 * (1:%d)" % n)
    vm.eval("v[[%d]] <- NA" % na_at)
    results = [from_r(vm.eval("f(v, %d)" % n)) for _ in range(calls)]
    return results, frames, vm


def test_na_at_element_k_stops_at_boundary():
    """An NA at element k is *not* a mid-iteration exit: the kernel covers
    the NA-free prefix, declines the rest at the element boundary, and the
    retained scalar loop reproduces the reference NA deopt exactly."""
    v_results, v_frames, v_vm = _na_sum_run(vectorize=True)
    s_results, s_frames, s_vm = _na_sum_run(vectorize=False)

    assert v_results == s_results
    assert all(r is None for r in v_results), "NA must propagate to the result"
    assert v_vm.state.kernel_elements > 0, "the NA-free prefix was not covered"
    # the scalar loop reproduces the NA deopt stream bit-identically
    assert [(pc, kind) for pc, kind, _ in v_frames] == [
        (pc, kind) for pc, kind, _ in s_frames
    ]
    assert any(kind == DeoptReasonKind.NA_CHECK for _, kind, _ in v_frames)
    v_sig, s_sig = engine_signature(v_vm), engine_signature(s_vm)
    for key in s_sig:
        assert v_sig[key] == s_sig[key], "%s diverged" % key


# -- legality: illegal loops must be rejected at match time ---------------------

#: loops the vectorizer must refuse: the annotation pass leaves
#: ``graph.vector_loops`` empty, so the lowered code is bit-identical to a
#: ``vectorize=False`` compile
ILLEGAL = {
    # cross-iteration dependence that is not a recognized reduction
    # (acc on the right of '-': order-dependent alternating sum)
    "unrecognized-recurrence": """
f <- function(v, n) {
  s <- 0
  for (i in 1:n) s <- v[[i]] - s
  s
}
""",
    # second-order recurrence across two loop-carried variables
    "two-accumulators": """
f <- function(v, n) {
  a <- 0
  b <- 1
  for (i in 1:n) {
    t <- a + v[[i]]
    a <- b
    b <- t
  }
  b
}
""",
    # writes the vector it reads (loop-carried memory dependence): a copy
    # onto itself, the one store shape the copy kernel's alias check sees
    "write-read-alias": """
f <- function(v, n) {
  for (i in 1:n) v[[i]] <- v[[i]]
  v
}
""",
    # compare-select min over an integer vector (the shape a compare-select
    # kernel would take): a branch in the body
    "compare-select-min": """
f <- function(v, n) {
  w <- 64:1
  s <- w[[1]]
  for (i in 1:n) if (w[[i]] < s) s <- w[[i]]
  s
}
""",
    # elementwise map: a stored value computed from the element
    "elementwise-map": """
f <- function(v, n) {
  out <- numeric(n)
  for (i in 1:n) out[[i]] <- v[[i]] * 2
  out
}
""",
    # computed subscripts (gather addressing): the scalar loop checks each
    # index itself
    "gather": """
idx <- rep(1:32, 2)
f <- function(v, n) {
  s <- 0
  for (i in 1:n) s <- s + v[[idx[[i]]]]
  s
}
""",
    "strided": """
f <- function(v, n) {
  s <- 0
  for (i in 1:32) s <- s + v[[2 * i - 1]]
  s
}
""",
    # the generic boxed reduce over the columns of a list (Listing 8's
    # shape): one double and one integer column make `col` generic
    "gsum": """
t <- list(1.5 * (1:64), 1:64)
f <- function(v, n) {
  total <- 0
  for (k in 1:2) {
    col <- t[[k]]
    for (i in 1:n) total <- total + col[[i]]
  }
  total
}
""",
}


#: loop-nest / fusion shapes the planner must now *accept*: each fuses a
#: map→reduce chain into one kernel (closure bodies arrive pre-inlined under
#: an identity guard; a product of bare elements is an fsum whose
#: expression is the element)
FUSED = {
    "closure-call": """
g <- function(x) x * 2
f <- function(v, n) {
  s <- 0
  for (i in 1:n) s <- s + g(v[[i]])
  s
}
""",
    "dot": """
y <- 0.5 * (1:64)
f <- function(v, n) {
  s <- 0
  for (i in 1:n) s <- s + v[[i]] * y[[i]]
  s
}
""",
    "prod": """
f <- function(v, n) {
  s <- 1
  for (i in 1:n) s <- s * v[[i]]
  s
}
""",
}


#: computed-subscript shapes that once kernelized as gathers: they now run
#: as the compiled scalar loop, with vectorization on as with it off
SCALAR_SUBSCRIPTS = ("gather", "strided")


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("shape", sorted(FUSED) + list(SCALAR_SUBSCRIPTS))
def test_fused_loops_vectorize_and_match(shape, mode):
    """The fused shapes kernelize (kernel_elements > 0), the computed
    subscripts plan nothing, and both stay bit-identical to the scalar
    execution in results and signature, in plain JIT mode and under
    chaos."""
    cfg = MODES[mode]
    src = ILLEGAL[shape] if shape in SCALAR_SUBSCRIPTS else FUSED[shape]
    results = {}
    vms = {}
    for vec in (True, False):
        vm = make_vm(vectorize=vec, **cfg)
        vm.eval(src)
        vm.eval("v <- 1.5 * (1:64)")
        results[vec] = [from_r(vm.eval("f(v, 64)")) for _ in range(6)]
        vms[vec] = vm
    assert results[True] == results[False]
    if mode == "jit":
        plans = vms[True].state.vec_plans
        if shape in SCALAR_SUBSCRIPTS:
            assert vms[True].state.kernel_elements == 0
            assert [kind for fn, _pc, kind, _o in plans if fn == "f"] == [], plans
        else:
            assert vms[True].state.kernel_elements > 0, "fused loop never kernelized"
            assert [kind for fn, _pc, kind, _o in plans if fn == "f"] == ["fsum"], plans
    assert vms[False].state.kernel_elements == 0
    v_sig = engine_signature(vms[True])
    s_sig = engine_signature(vms[False])
    for key in s_sig:
        assert v_sig[key] == s_sig[key], "%s[%s]: %s diverged" % (shape, mode, key)


def _op_shape(ops):
    prim = (int, float, bool, str, bytes, type(None), tuple)
    return [
        tuple(a if isinstance(a, prim) else type(a).__name__ for a in op)
        for op in ops
    ]


def _compile_f(src, vectorize, monkeypatch=None, graphs=None):
    vm = make_vm(compile_threshold=1, osr_threshold=100000, vectorize=vectorize)
    if monkeypatch is not None:
        import repro.opt.pipeline as pp

        orig = pp.vectorize_loops

        def traced(graph, config=None, state=None):
            out = orig(graph, config, state=state)
            graphs.append(graph)
            return out

        monkeypatch.setattr(pp, "vectorize_loops", traced)
    vm.eval(src)
    vm.eval("v <- 1.5 * (1:64)")
    results = [from_r(vm.eval("f(v, 64)")) for _ in range(4)]
    clo = vm.get_global("f")
    assert clo.jit is not None and clo.jit.version is not None, "f never compiled"
    return results, clo.jit.version


@pytest.mark.parametrize("shape", sorted(ILLEGAL))
def test_illegal_loops_rejected(shape, monkeypatch):
    src = ILLEGAL[shape]
    graphs = []
    v_results, v_nc = _compile_f(src, vectorize=True, monkeypatch=monkeypatch, graphs=graphs)
    s_results, s_nc = _compile_f(src, vectorize=False)

    # the pass annotated nothing, and the IR it saw still verifies
    assert graphs, "pipeline never reached the vectorizer"
    for g in graphs:
        assert g.vector_loops == [], "%s: loop was wrongly vectorized" % shape
        verify(g)

    # rejected means bit-identical lowering: same ops, no kernels (op
    # operands may embed runtime objects — e.g. a speculated callee — whose
    # identities differ between two VMs, so compare them by type)
    assert v_nc.kernels == []
    assert not any(op[0] == N.KERNEL for op in v_nc.ops)
    assert _op_shape(v_nc.ops) == _op_shape(s_nc.ops), (
        "%s: lowered code diverged" % shape
    )
    assert v_results == s_results


#: illegal shape -> the decline reason the pass must record for it
DECLINE_REASONS = {
    "write-read-alias": "aliasing",
    "two-accumulators": "multiple-accumulators",
    "unrecognized-recurrence": "unrecognized-arith",
    "compare-select-min": "unrecognized-compare",
    "elementwise-map": "unrecognized-store-value",
    "gather": "gather-index",
    "strided": "gather-index",
    "gsum": "boxed-accumulator",
}


@pytest.mark.parametrize("shape", sorted(DECLINE_REASONS))
def test_decline_reason_recorded(shape):
    """A rejected loop is not silent: the reason and the loop's pc land in
    the vec_decline telemetry and in snapshot()."""
    vm = make_vm(compile_threshold=1, osr_threshold=100000, vectorize=True)
    vm.eval(ILLEGAL[shape])
    vm.eval("v <- 1.5 * (1:64)")
    for _ in range(4):
        vm.eval("f(v, 64)")
    reason = DECLINE_REASONS[shape]
    assert vm.state.vec_declines > 0
    assert vm.state.vec_decline_reasons.get(reason, 0) > 0, (
        "expected %r, recorded %r" % (reason, vm.state.vec_decline_reasons)
    )
    assert any(fn == "f" and r == reason and pc >= 0
               for fn, pc, r, _count in vm.state.vec_decline_log)
    snap = vm.state.snapshot()
    assert snap["vec_declines"] == vm.state.vec_declines
    assert snap["vec_decline_reasons"].get(reason, 0) > 0


def test_decline_log_dedupes_repeat_sites():
    """Recompiling the same rejected loop must not spam the log: one entry
    per (fn, pc, reason) with an occurrence count, however many times the
    pipeline sees the site."""
    # codecache off: a cache hit skips the whole pipeline (vectorizer
    # included), which would hide the repeat visit this test provokes
    vm = make_vm(
        compile_threshold=1, osr_threshold=100000, vectorize=True, codecache=False
    )
    vm.eval(ILLEGAL["write-read-alias"])
    # force repeated compiles of the same site: invalidate by redefining
    for _ in range(3):
        vm.eval("v <- 1.5 * (1:64)")
        for _ in range(4):
            vm.eval("f(v, 64)")
        vm.eval(ILLEGAL["write-read-alias"])
    sites = [(fn, pc, r) for fn, pc, r, _ in vm.state.vec_decline_log]
    assert len(sites) == len(set(sites)), (
        "duplicate (fn, pc, reason) entries: %r" % vm.state.vec_decline_log
    )
    assert any(
        fn == "f" and r == "aliasing" and count >= 2
        for fn, _pc, r, count in vm.state.vec_decline_log
    ), "repeat occurrences were not counted: %r" % vm.state.vec_decline_log
    # the counter telemetry still counts every occurrence
    assert vm.state.vec_decline_reasons["aliasing"] >= 2


def test_call_declines_without_inlining():
    """The closure-call loop is only fusable *after* the inliner has spliced
    the callee; with inlining off the CALL survives into the loop body and
    the vectorizer must still decline it."""
    vm = make_vm(
        compile_threshold=1, osr_threshold=100000, vectorize=True, inline=False
    )
    vm.eval(FUSED["closure-call"])
    vm.eval("v <- 1.5 * (1:64)")
    for _ in range(4):
        vm.eval("f(v, 64)")
    assert vm.state.kernel_elements == 0
    assert vm.state.vec_decline_reasons.get("call", 0) > 0


def test_legal_loop_records_no_decline():
    vm = make_vm(compile_threshold=1, osr_threshold=100000, vectorize=True)
    vm.eval(SUM_SRC)
    vm.eval("v <- 1.5 * (1:64)")
    for _ in range(4):
        vm.eval("f(v, 64)")
    assert vm.state.kernel_elements > 0, "sum loop was not kernelized"
    assert vm.state.vec_declines == 0
    assert vm.state.vec_decline_reasons == {}


def test_spectralnorm_vectorizes_as_loop_nest():
    """The workload that motivated the loop-nest planner: spectralnorm's
    hot loops (a closure call per element under a scalar outer driver) now
    fuse into bulk kernels — kernel_elements must be positive and the plan
    telemetry must record the recognized nests, outer driver included."""
    from repro.bench.programs import REGISTRY

    w = REGISTRY.get("spectralnorm")
    vm = make_vm(compile_threshold=1, osr_threshold=50, vectorize=True)
    vm.eval(w.source)
    vm.eval(w.setup_code(8))
    vm.eval(w.call_code(8))
    assert vm.state.kernel_elements > 0, (
        "spectralnorm no longer kernelizes: declines=%r"
        % (vm.state.vec_decline_reasons,)
    )
    plans = vm.state.vec_plans
    assert any(
        fn in ("eval_A_times_u", "eval_At_times_u") and kind == "fsum"
        and outer_pc is not None
        for fn, _pc, kind, outer_pc in plans
    ), "no nest plan with an outer driver recorded: %r" % (plans,)
    # the outer drivers themselves are diagnosed, not mistaken for failures
    assert vm.state.vec_decline_reasons.get("call", 0) == 0
    assert vm.state.vec_decline_reasons.get("outer-driver", 0) > 0
    assert vm.state.snapshot()["vec_plans"] == len(plans)


def test_legal_loop_is_annotated(monkeypatch):
    """Sanity for the rejection tests: the same harness *does* vectorize the
    canonical reduction, so empty ``vector_loops`` above means rejection,
    not a broken probe."""
    graphs = []
    _, nc = _compile_f(SUM_SRC, vectorize=True, monkeypatch=monkeypatch, graphs=graphs)
    assert any(g.vector_loops for g in graphs), "sum loop was not recognized"
    assert nc.kernels, "no kernel descriptor was built"
    assert any(op[0] == N.KERNEL for op in nc.ops)


@pytest.mark.parametrize("name", sorted(KERNELIZED))
def test_each_kernel_has_one_op(name, monkeypatch):
    """Every ``NativeCode.kernels[i]`` is the operand of exactly one
    ``KERNEL`` op, in every unit the program compiled — installed versions,
    continuations and OSR-in units alike (colsum's one kernel runs in an
    OSR-in unit: its generic reduce stays scalar)."""
    units = []

    def spy(graph, **kw):
        nc = lower(graph, **kw)
        units.append(nc)
        return nc

    monkeypatch.setattr(unit, "lower", spy)
    run_workload(name, MODES["jit"], vectorize=True)
    assert any(nc.kernels for nc in units), name
    for nc in units:
        refs = sorted(op[1] for op in nc.ops if op[0] == N.KERNEL)
        assert refs == list(range(len(nc.kernels))), nc.name
        assert nc.size == len(nc.ops) - len(nc.kernels)


# -- deoptless recovery from mid-kernel exits -----------------------------------


def test_midkernel_deopt_takes_deoptless_path():
    """Repeated chaos trips inside the bulk kernel must flow through the
    standard deoptless machinery: a context keyed on the in-loop resume pc
    (reason CHAOS, observed element type) lands in the closure's dispatch
    table, a continuation is compiled for it, and later trips dispatch to
    it instead of falling back to the interpreter."""
    vm = make_vm(
        compile_threshold=1,
        osr_threshold=100000,
        vectorize=True,
        chaos_rate=0.004,
        chaos_seed=7,
        enable_deoptless=True,
    )
    vm.eval(SUM_SRC)
    vm.eval("v <- 1.5 * (1:400)")
    expected = sum(1.5 * k for k in range(1, 401))
    for _ in range(30):
        assert from_r(vm.eval("f(v, 400)")) == pytest.approx(expected)

    st = vm.state
    assert st.kernel_elements > 0, "bulk kernel never ran"
    assert st.deopts > 0, "chaos never tripped the kernel"
    assert st.deoptless_dispatches > 0, "mid-kernel exits never dispatched"

    clo = vm.get_global("f")
    entries = clo.jit.deoptless_table.entries
    assert entries, "no context in the dispatch table"
    ctx, cont = entries[0]
    assert ctx.reason.kind == DeoptReasonKind.CHAOS
    assert ctx.reason.observed_type is not None, "context not keyed on element type"
    # the continuation is real compiled code resuming mid-loop
    assert cont.ctx == ctx
    assert any(name == "total" for name, _ in ctx.env_types), (
        "partial accumulator missing from the context environment"
    )
    assert any(name == "i" for name, _ in ctx.env_types), (
        "loop index missing from the context environment"
    )
