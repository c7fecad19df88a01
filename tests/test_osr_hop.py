"""Dispatched OSR between optimized versions — entry maps, hops, tier-up.

Unit tests for ``osr/osr_hop.py`` and the OSR entry maps emitted by
``native/lower.py``: the per-(version, pc) slot tables that let a
materialized mid-loop frame re-enter a *different* compiled version at the
equivalent pc.  The end-to-end tests run the fig6-style phase-flip workload
under chaos mode (deterministic seed), where mis-speculations inside
deoptless continuations force real version hops; slot-for-slot frame
identity is witnessed by the running sum (every live variable feeds the
result, so a mis-seeded or dropped slot changes it) plus the later
deopt-outs from the hopped-into version, which rebuild the interpreter
frame from the same slots in reverse.
"""

import pytest

from conftest import make_vm
from repro import from_r
from repro.osr import osr_hop

FLIP_SRC = """
hop_step <- function(v, k) v + k
hop_flip <- function(a, b, n) {
  s <- 0
  x <- a
  h <- n %/% 2L
  i <- 1L
  while (i <= n) {
    if (i == h) x <- b
    s <- s + hop_step(x[[i]], 1L)
    i <- i + 1L
  }
  s
}
"""

SETUP = """
hn <- %dL
hai <- integer(hn)
for (i in 1:hn) hai[[i]] <- i
hbr <- numeric(hn)
for (i in 1:hn) hbr[[i]] <- i * 1.0
"""

WARM = "hop_flip(hai, hai, hn)"
FLIP = "hop_flip(hai, hbr, hn)"


def _warm_vm(n=2000, **overrides):
    cfg = dict(compile_threshold=1, enable_deoptless=True, ctxdispatch=False,
               osr_hop=True)
    cfg.update(overrides)
    vm = make_vm(**cfg)
    vm.eval(FLIP_SRC)
    vm.eval(SETUP % n)
    for _ in range(3):
        vm.eval(WARM)
    return vm


def _closure(vm, name="hop_flip"):
    return vm.global_env.get(name)


# ---------------------------------------------------------------------------
# the entry map (native/lower.py)
# ---------------------------------------------------------------------------

def test_entry_map_emitted_for_loop_header():
    vm = _warm_vm()
    st = _closure(vm).jit
    nc = st.version
    assert nc is not None and nc.osr_entries, "generic version has no OSR entries"
    for pc, entry in nc.osr_entries.items():
        assert entry.pc == pc
        # the entry index must be a real instruction boundary in the unit
        assert 0 <= entry.index < len(nc.ops)
        # while-loop headers have an empty operand stack by construction
        assert entry.stack_slots == ()
        names = [s[0] for s in entry.var_slots]
        assert names == sorted(names), "var slots must be name-sorted"
        assert len(names) == len(set(names))
        # loop-carried state must be present and mapped
        assert "i" in names and "s" in names
        for _name, reg, kind, rtype in entry.var_slots:
            assert 0 <= reg < nc.n_regs
            assert rtype is not None
            if kind is not None:
                assert rtype.kind == kind
    # at least one slot is register-promoted (unboxed) on this loop
    entry = next(iter(nc.osr_entries.values()))
    assert any(kind is not None for _, _, kind, _ in entry.var_slots)


def test_entry_map_survives_install_clone():
    vm = _warm_vm()
    nc = _closure(vm).jit.version
    clone = nc.clone_for_install()
    assert clone.osr_entries == nc.osr_entries


# ---------------------------------------------------------------------------
# version selection
# ---------------------------------------------------------------------------

def test_select_versions_offers_generic_last_and_skips_invalidated():
    vm = _warm_vm()
    st = _closure(vm).jit
    pc = next(iter(st.version.osr_entries))
    cands = list(osr_hop.select_versions(st, pc, None))
    assert cands == [st.version], "generic must be offered even with no live ctx"
    st.version.invalidated = True
    assert list(osr_hop.select_versions(st, pc, None)) == []
    st.version.invalidated = False
    # the just-retired origin is never offered back
    assert list(osr_hop.select_versions(st, pc, None, exclude=st.version)) == []
    # a pc with no entry yields nothing
    assert list(osr_hop.select_versions(st, 10**6, None)) == []


# ---------------------------------------------------------------------------
# register seeding: strict validation, counted declines
# ---------------------------------------------------------------------------

def test_seed_registers_declines_are_counted_and_logged():
    vm = _warm_vm()
    st = _closure(vm).jit
    nc = st.version
    pc, entry = next(iter(nc.osr_entries.items()))
    before = vm.state.osr_hop_declines

    # stack shape mismatch
    assert osr_hop.seed_registers(vm, nc, entry, {}, [None], lambda: None,
                                  "f", pc) is None
    # missing variable
    assert osr_hop.seed_registers(vm, nc, entry, {}, [], lambda: None,
                                  "f", pc) is None
    assert vm.state.osr_hop_declines == before + 2
    reasons = {why for (_f, _pc, why, _count) in vm.state.osr_hop_decline_log}
    assert "stack-shape" in reasons
    assert any(r.startswith("missing-var:") for r in reasons)


def test_seed_registers_declines_type_mismatch():
    vm = _warm_vm()
    st = _closure(vm).jit
    nc = st.version
    pc, entry = next(iter(nc.osr_entries.items()))
    # a full set of live values, but with the wrong (double) vector bound to
    # every vector slot the int-specialized unit assumed
    ai = vm.eval("hai")
    br = vm.eval("hbr")
    n_val = vm.eval("hn")
    one = vm.eval("1L")
    zero = vm.eval("0")
    values = {"a": br, "b": br, "x": br, "n": n_val,
              "h": vm.eval("hn %/% 2L"), "i": one, "s": zero}
    before = vm.state.osr_hop_declines
    assert osr_hop.seed_registers(vm, nc, entry, values, [], lambda: None,
                                  "f", pc) is None
    assert vm.state.osr_hop_declines == before + 1
    assert any(why.startswith("var-type:")
               for (_f, _pc, why, _count) in vm.state.osr_hop_decline_log)
    # the correctly-typed frame seeds cleanly
    good = dict(values, a=ai, b=ai, x=ai)
    regs = osr_hop.seed_registers(vm, nc, entry, good, [], lambda: None,
                                  "f", pc)
    assert regs is not None and len(regs) == nc.n_regs


def test_seed_slot_refuses_promises():
    from repro.runtime.values import RPromise

    vm = _warm_vm()
    nc = _closure(vm).jit.version
    entry = next(iter(nc.osr_entries.values()))
    name, reg, kind, rtype = entry.var_slots[0]
    regs = list(nc.reg_init)
    p = RPromise.__new__(RPromise)
    assert osr_hop._seed_slot(regs, reg, kind, rtype, p) is False


# ---------------------------------------------------------------------------
# end-to-end: hops fire, results and signatures are engine-identical
# ---------------------------------------------------------------------------

CHAOS = dict(chaos_rate=2e-3, chaos_seed=42)


def test_hops_fire_and_preserve_results():
    """Hop-in then deopt-out round trip: under chaos the hopped-into generic
    itself deopts again later, so every hop's register seeding is re-read by
    a frame materialization — any slot mismatch would corrupt the sum."""
    vm_ref = make_vm(enable_jit=False)
    vm_ref.eval(FLIP_SRC)
    vm_ref.eval(SETUP % 2000)
    expected = [from_r(vm_ref.eval(FLIP)) for _ in range(8)]

    vm = _warm_vm(**CHAOS)
    got = [from_r(vm.eval(FLIP)) for _ in range(8)]
    assert got == expected
    assert vm.state.osr_hops > 0, "scenario produced no version hops"
    assert vm.state.deopts > 0


def test_hop_telemetry_in_snapshot_not_signature():
    vm = _warm_vm(**CHAOS)
    for _ in range(8):
        vm.eval(FLIP)
    snap = vm.state.snapshot()
    assert snap["osr_hops"] == vm.state.osr_hops > 0
    assert "cont_tierups" in snap and "osr_hop_declines" in snap
    # counters follow the ctx_* precedent: snapshot-only, never in the
    # cross-engine dispatch signature
    sig = vm.state.dispatch_signature()
    assert "osr_hops" not in sig and "cont_tierups" not in sig


def test_hops_are_engine_identical():
    runs = []
    for threaded in (True, False):
        vm = _warm_vm(threaded_dispatch=threaded, **CHAOS)
        results = [from_r(vm.eval(FLIP)) for _ in range(8)]
        runs.append((results, vm.state.osr_hops, vm.state.cont_tierups,
                     vm.state.dispatch_signature()))
    assert runs[0][1] > 0, "no hops in the codegen leg"
    assert runs[0] == runs[1]


def test_continuation_tier_up_installs_entry_version():
    vm = _warm_vm(**CHAOS)
    for _ in range(8):
        vm.eval(FLIP)
    assert vm.state.cont_tierups > 0, "no continuation tiered up"
    st = _closure(vm).jit
    vt = st.versions
    assert vt is not None and len(vt) > 0
    promoted = [e.code for e in vt.iter_entries()]
    assert any(c.is_context_version for c in promoted)
    # promoted versions are full entry versions carrying their own entry maps
    assert any(c.osr_entries for c in promoted)


def test_tier_up_skips_non_discriminating_contexts():
    """A zero-formal closure's call context matches every call: promoting
    its continuation would shadow the generic unconditionally, get deopted
    right back out by the next phase, and evict the useful continuation.
    The demo's global-reading sum is the canonical shape."""
    vm = make_vm(compile_threshold=1, enable_deoptless=True,
                 ctxdispatch=False, osr_hop=True)
    vm.eval("""
gsum <- function() {
  s <- 0
  for (i in 1:gn) s <- s + gd[[i]]
  s
}
""")
    vm.eval("gn <- 300L")
    vm.eval("gd <- integer(gn); for (i in 1:gn) gd[[i]] <- i")
    for _ in range(3):
        vm.eval("gsum()")
    expected_dbl = sum(i * 1.0 for i in range(1, 301))
    vm.eval("gd <- numeric(gn); for (i in 1:gn) gd[[i]] <- i * 1.0")
    for _ in range(8):
        got = from_r(vm.eval("gsum()"))
    assert got == expected_dbl
    assert vm.state.deoptless_dispatches > 0
    assert vm.state.cont_tierups == 0, (
        "an information-free context must never tier up"
    )
    vt = vm.global_env.get("gsum").jit.versions
    assert vt is None or len(vt) == 0


def test_escape_hatch_disables_hops_and_preserves_results():
    vm_on = _warm_vm(**CHAOS)
    on = [from_r(vm_on.eval(FLIP)) for _ in range(8)]
    vm_off = _warm_vm(osr_hop=False, **CHAOS)
    off = [from_r(vm_off.eval(FLIP)) for _ in range(8)]
    assert on == off
    assert vm_on.state.osr_hops > 0
    assert vm_off.state.osr_hops == 0
    assert vm_off.state.cont_tierups == 0
