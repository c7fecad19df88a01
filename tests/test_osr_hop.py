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

from conftest import engine_signature, make_vm
from repro import from_r
from repro.bytecode import opcodes as O
from repro.bytecode.compiler import Compiler
from repro.native.lower import OsrEntry
from repro.osr import osr_hop
from repro.runtime.values import RPromise

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


# ---------------------------------------------------------------------------
# what a hop may drop: liveness at a header (CodeObject.live_at)
# ---------------------------------------------------------------------------

LIVENESS_SRC = """
nest <- function(n) {
  s <- 0
  for (i in 1:n) {
    for (j in 1:i) s <- s + j
  }
  t <- s
  t
}
wloop <- function(n) {
  i <- 0L
  p <- 1
  while (i < n) { i <- i + 1L; p <- p * 2 }
  p
}
arms <- function(n) {
  s <- 0
  for (i in 1:n) {
    if (i > 2L) t <- 1 else t <- 2
    if (i > 3L) u <- 1
    s <- s + t
  }
  s + u
}
after <- function(n) {
  r <- 5
  s <- 0
  for (i in 1:n) s <- s + i
  s + r
}
carried <- function(n) {
  prev <- 0
  s <- 0
  for (i in 1:n) { s <- s + prev; prev <- i }
  s
}
local_fn <- function(n) {
  g <- function(x) x + 1
  s <- 0
  for (i in 1:n) s <- g(s)
  s
}
"""

#: one `for` loop's hidden sequence, length and index, numbered from 1
FOR1 = {".fs1", ".fn2", ".fi3"}


def _live_at_headers(name):
    vm = make_vm(enable_jit=False)
    vm.eval(LIVENESS_SRC)
    code = vm.global_env.get(name).code
    heads = sorted({ins[1] for pc, ins in enumerate(code.code)
                    if ins[0] == O.BR and ins[1] <= pc})
    return [set(code.live_at(h)) for h in heads]


@pytest.mark.parametrize("name, live", [
    # the inner loop's hidden names are dead at the outer header (they are
    # set again before they are read), live at its own; `n`, `i`, `j`, `t`
    # are assigned before any read on every path from either header
    ("nest", [FOR1 | {"s"}, FOR1 | {".fs4", ".fn5", ".fi6", "s"}]),
    ("wloop", [{"i", "n", "p"}]),
    # `t` is assigned in both arms before its read, `u` in one arm only
    ("arms", [FOR1 | {"s", "u"}]),
    # read only after the loop: every path from the header reaches it
    ("after", [FOR1 | {"r", "s"}]),
    # read by the next iteration before it is assigned again
    ("carried", [FOR1 | {"prev", "s"}]),
    # a call by name reads the binding (LD_FUN)
    ("local_fn", [FOR1 | {"g", "s"}]),
])
def test_live_names_at_each_loop_header(name, live):
    assert _live_at_headers(name) == live


def test_a_closure_or_promise_reads_what_its_code_mentions():
    """A closure or a promise made at a pc may read any name its code (or a
    function inside it) mentions, whenever it runs."""
    code = Compiler.compile_program("""
k <- 1
f <- function() function() k + m
h(g(p, q))
""")
    mk = next(pc for pc, ins in enumerate(code.code) if ins[0] == O.MK_CLOSURE)
    promise = next(pc for pc, ins in enumerate(code.code) if ins[0] == O.MK_PROMISE)
    assert {"k", "m"} <= code.live_at(mk)
    assert {"p", "q"} <= code.live_at(promise)
    assert "k" not in code.live_at(promise)


def _flip_values(vm):
    return {"a": vm.eval("hai"), "b": vm.eval("hai"), "x": vm.eval("hai"),
            "n": vm.eval("hn"), "h": vm.eval("hn %/% 2L"), "i": vm.eval("1L"),
            "s": vm.eval("0")}


def test_seed_registers_drops_a_dead_binding_and_declines_a_live_one():
    vm = _warm_vm()
    nc = _closure(vm).jit.version
    pc, entry = next(iter(nc.osr_entries.items()))
    assert entry.env_reg is None
    values = _flip_values(vm)
    extra = vm.eval("c(7, 8)")
    regs = osr_hop.seed_registers(vm, nc, entry, dict(values, zz=extra), [],
                                  lambda: None, "f", pc)
    assert regs is not None and all(r is not extra for r in regs)
    # `a` is read only before the loop: an entry without its slot admits the
    # frame; one without `s`, which the loop reads, does not
    before = vm.state.osr_hop_declines
    for drop, admitted in (("a", True), ("s", False)):
        cut = OsrEntry(entry.pc, entry.index,
                       tuple(sl for sl in entry.var_slots if sl[0] != drop),
                       entry.stack_slots, None, entry.const_slots)
        regs = osr_hop.seed_registers(vm, nc, cut, values, [], lambda: None, "f", pc)
        assert (regs is not None) == admitted, drop
    assert vm.state.osr_hop_declines == before + 1
    assert ("f", pc, "live-binding:s", 1) in vm.state.osr_hop_decline_log


CONST_SRC = """
cf <- function(n) {
  dt <- 0.5
  k <- 2L
  s <- 0
  i <- 0L
  while (i < n) { i <- i + 1L; s <- s + dt * k }
  s
}
"""


def test_seed_registers_checks_folded_constants_by_kind_and_value():
    vm = make_vm(compile_threshold=1, ctxdispatch=False)
    vm.eval(CONST_SRC)
    for _ in range(3):
        vm.eval("cf(100L)")
    nc = vm.global_env.get("cf").jit.version
    pc, entry = next(iter(nc.osr_entries.items()))
    assert [name for name, _reg, _kind in entry.const_slots] == ["dt", "k"]
    good = {"n": vm.eval("100L"), "i": vm.eval("3L"), "s": vm.eval("1.5"),
            "dt": vm.eval("0.5"), "k": vm.eval("2L")}
    assert osr_hop.seed_registers(vm, nc, entry, good, [], lambda: None, "cf", pc) is not None
    unforced = RPromise(Compiler.compile_program("0.5"), vm.global_env)
    for name, value in (("dt", vm.eval("0.25")), ("k", vm.eval("2.0")), ("dt", unforced)):
        before = vm.state.osr_hop_declines
        assert osr_hop.seed_registers(vm, nc, entry, dict(good, **{name: value}), [],
                                      lambda: None, "cf", pc) is None
        assert vm.state.osr_hop_declines == before + 1
        assert any(why == "const:" + name for _f, _pc, why, _count
                   in vm.state.osr_hop_decline_log)


def test_a_version_refuted_since_it_was_placed_is_stale():
    """A guard site whose deopt count grew after ``RVM.place`` stamped it
    makes the version stale: it is not offered, and the decline names the
    site."""
    vm = _warm_vm()
    st = _closure(vm).jit
    pc = next(iter(st.version.osr_entries))
    code, site, count = st.version.guard_sites[0]
    assert osr_hop.stale_site(st.version) is None
    code.deopt_sites[site] = count + 1
    why = []
    assert list(osr_hop.select_versions(st, pc, None, decline=why.append)) == []
    assert why == ["stale:%s@%d" % (code.name, site)]


def test_seed_slot_refuses_promises():
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
                     engine_signature(vm)))
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
    promoted = [code for _, code in vt.entries]
    assert any(c == code.ctx for c, code in vt.entries)
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
