"""The one way to obtain a compiled unit (``repro/jit/unit.py``): what both
unit kinds — a whole function, a continuation — must have in common,
whichever of the four callers asked for one."""

import pytest

from conftest import COMPILE_COUNTERS, make_vm
from repro import from_r
from repro.deoptless.context import CallContext, ContinuationContext, DeoptContext
from repro.ir.builder import CompilationFailure
from repro.jit import unit
from repro.serve import FleetCompileQueue, SharedCodeCache

SRC = """
add <- function(a, b) a + b
sumfn <- function(data, len) {
  total <- 0
  for (i in 1:len) total <- add(total, data[[i]])
  total
}
xi <- c(1L, 2L, 3L)
xd <- c(1.5, 2.5, 3.0)
xl <- numeric(200); for (i in 1:200) xl[[i]] <- i * 1.0
"""

WARM = ["sumfn(xi, 3L)"] * 4

#: caller -> (config on top of BASE, calls that make the VM want its unit).
#: The callers are ``RVM.compile_closure`` (fn), ``RVM._compile_context_version``
#: (ctxfn), ``osr_in.try_osr_in`` (osr) and ``engine.deoptless_compile`` (cont)
SCENARIOS = {
    "fn": (dict(), WARM),
    # a second entry context shows up: specialized at the call boundary
    "ctxfn": (dict(ctxdispatch=True), WARM + ["sumfn(xd, 3L)"] * 2),
    "osr": (dict(compile_threshold=10**9, osr_threshold=50), ["sumfn(xl, 200L)"]),
    # `len` turns double: the guard at the loop set-up fails, data stays int
    "cont": (dict(enable_deoptless=True), WARM + ["sumfn(xi, 3)"]),
}
BASE = dict(compile_threshold=2, ctxdispatch=False, osr_hop=False)
#: the two kinds: what each caller's unit is
KIND = {"fn": "fn", "ctxfn": "fn", "osr": "cont", "cont": "cont"}


def _caller(spec):
    """Which caller asked for ``spec``, read off its context."""
    return {type(None): "fn", CallContext: "ctxfn", ContinuationContext: "osr",
            DeoptContext: "cont"}[type(spec.ctx)]


# -- a failed compile is counted once, whatever the path ---------------------------

#: the continuation dispatched three times asks for an entry version: the one
#: ``ctxfn`` request that goes through the compile queue
PROMOTION = (dict(enable_deoptless=True, osr_hop=True), WARM + ["sumfn(xi, 3)"] * 4)


@pytest.mark.parametrize("mode", ["sync", "fleet"])
@pytest.mark.parametrize("kind", sorted(SCENARIOS))
def test_failed_compile_is_counted_once(kind, mode, monkeypatch):
    real_build = unit.build

    def build(vm, spec):
        if _caller(spec) == kind and spec.code.name == "sumfn":
            raise CompilationFailure("boom")
        return real_build(vm, spec)

    monkeypatch.setattr(unit, "build", build)
    extra, calls = PROMOTION if kind == "ctxfn" else SCENARIOS[kind]
    ref = make_vm(enable_jit=False)
    ref.eval(SRC)
    vm = make_vm(**dict(BASE, **extra))
    if mode == "fleet":
        vm.compile_queue.attach(FleetCompileQueue(0))
    vm.eval(SRC)
    for call in calls * 2:
        assert from_r(vm.eval(call)) == from_r(ref.eval(call))
        if mode == "fleet":
            vm.compile_queue.fleet.drain()
            vm.compile_queue.install_ready()
    if mode == "fleet" and kind in ("fn", "ctxfn"):
        assert any(e.fn_name == "sumfn" and e.details["ctx"] == (kind == "ctxfn")
                   for e in vm.state.events_of("tierup_enqueue")), "built by the queue"
    st = vm.global_env.get("sumfn").jit
    assert vm.state.compile_failures == 1, "counted once, never retried"
    failed = [(e.kind, e.details["unit"]) for e in vm.state.events if e.kind.endswith("_failed")]
    assert failed == [("compile_failed", KIND[kind])]
    # what a failure stops is the caller's
    if kind == "fn":
        assert st.cant_compile
    elif kind == "ctxfn":
        assert st.ctx_fail_counts and not st.cant_compile
        assert st.version is not None, "the generic version is not poisoned"
    elif kind == "osr":
        assert vm.global_env.get("sumfn").code.osr_disabled
    else:
        assert vm.state.deoptless_misses == 1 and vm.state.deoptless_dispatches == 0


# -- a shared-cache hit is counted as a hit, per caller -------------------------------

def _obtain_deltas(kind, shared, tenant, monkeypatch):
    """Run the caller's scenario on a tenant of ``shared``; the counters each
    ``obtain`` call moved, in order, with the caller that asked."""
    real_obtain, deltas = unit.obtain, []

    def obtain(vm, spec, probe_only=False):
        before = vm.state.snapshot()
        ncode = real_obtain(vm, spec, probe_only)
        after = vm.state.snapshot()
        assert spec.kind == KIND[_caller(spec)]
        deltas.append((_caller(spec), {k: after[k] - before[k] for k in after
                                       if isinstance(after[k], int) and after[k] != before[k]}))
        return ncode

    extra, calls = SCENARIOS[kind]
    vm = make_vm(**dict(BASE, **extra, codecache=True))
    vm.code_cache.shared, vm.code_cache.tenant = shared, tenant
    with monkeypatch.context() as patch:
        patch.setattr(unit, "obtain", obtain)
        vm.eval(SRC)
        results = [from_r(vm.eval(c)) for c in calls]
    return vm, results, deltas


@pytest.mark.parametrize("kind", sorted(SCENARIOS))
def test_cache_hit_and_fresh_compile_agree(kind, monkeypatch):
    """Tenant a compiles every unit, tenant b rebinds every one from the
    shared cache: same results, same ``dispatch_signature``.  The hit is
    counted as a hit — no compile counter moves — so b's compiles plus its
    shared-cache hits are a's compiles."""
    shared = SharedCodeCache(budget=100_000)
    a, res_a, fresh = _obtain_deltas(kind, shared, "a", monkeypatch)
    b, res_b, hits = _obtain_deltas(kind, shared, "b", monkeypatch)
    assert res_a == res_b
    assert a.state.dispatch_signature() == b.state.dispatch_signature()
    assert [k for k, _ in fresh] == [k for k, _ in hits] and kind in dict(fresh)
    for (k, built), (_, hit) in zip(fresh, hits):
        assert built["compiles"] == 1 and built["lowered_instrs"] == built["compiled_instrs"]
        assert built["ir_verifies"] >= 2 and built.get("deoptless_compiles", 0) == (k == "cont")
        assert hit["shared_cache_hits"] == hit["shared_rebinds"] == 1
        assert not set(COMPILE_COUNTERS + ("lowered_instrs", "ir_verifies")) & set(hit)
    assert sum(d.get("inlined_frames", 0) for _, d in fresh) >= 1
    assert a.state.compiles == b.state.compiles + b.state.shared_cache_hits
