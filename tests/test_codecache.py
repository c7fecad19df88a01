"""Tests for the context-keyed code cache (jit/codecache.py).

Covers the acceptance checklist: LRU eviction under a budget, sharing of
compiled code across closures with identical CodeObjects, invalidation when
feedback repair widens a speculation context, warm-start persistence, and
bit-identical dispatch behaviour with the cache on versus off.
"""

from __future__ import annotations

import pytest

from conftest import make_vm
from repro import from_r
from repro.jit import codecache

SUM_SRC = """
sumfn <- function(data, len) {
  total <- 0
  for (i in 1:len) total <- total + data[[i]]
  total
}
"""

SETUP = (
    "xi <- c(1L, 2L, 3L)",
    "xd <- c(1.5, 2.5, 3.0)",
)


def cache_vm(**kw):
    # ctxdispatch off: these scenarios drive mixed-type calls into the
    # *generic* version to provoke deopts/recoveries; contextual dispatch
    # would hand them a specialized entry version first (tested separately
    # in test_context_dispatch.py).  osr_hop off for the same reason: the
    # dispatched-OSR path re-enters compiled code right after a deopt and
    # inserts fresh (valid) continuations under the same code hash, which
    # the invalidation assertions here would misread as stale survivors.
    cfg = dict(compile_threshold=2, enable_deoptless=True,
               ctxdispatch=False, osr_hop=False)
    cfg.update(kw)
    vm = make_vm(**cfg)
    vm.eval(SUM_SRC)
    for s in SETUP:
        vm.eval(s)
    return vm


def warm(vm, fn="sumfn", n=5):
    for _ in range(n):
        vm.eval("%s(xi, 3L)" % fn)


# ---------------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------------

def test_stable_code_hash_ignores_name():
    """f and g with identical bodies must share one content hash."""
    vm = make_vm()
    vm.eval("f <- function(x) x + 1")
    vm.eval("g <- function(x) x + 1")
    f = vm.global_env.get("f")
    g = vm.global_env.get("g")
    assert codecache.stable_code_hash(f.code) == codecache.stable_code_hash(g.code)


def test_stable_code_hash_differs_on_body():
    vm = make_vm()
    vm.eval("f <- function(x) x + 1")
    vm.eval("g <- function(x) x + 2")
    f = vm.global_env.get("f")
    g = vm.global_env.get("g")
    assert codecache.stable_code_hash(f.code) != codecache.stable_code_hash(g.code)


def test_feedback_signature_reflects_observed_kinds():
    # deoptless off: the dbl calls deopt back to the profiling interpreter,
    # which widens the recorded feedback (with deoptless on, the dispatched
    # continuation handles them and feedback — intentionally — stays put;
    # likewise contextual dispatch would hand them a dbl entry version
    # before the generic code ever deopts, so it is off here too)
    vm = cache_vm(enable_deoptless=False, ctxdispatch=False)
    clo = vm.global_env.get("sumfn")
    warm(vm)
    sig_int = codecache.feedback_signature(clo.code, vm.config)
    vm.eval("sumfn(xd, 3L)")
    vm.eval("sumfn(xd, 3L)")
    sig_mixed = codecache.feedback_signature(clo.code, vm.config)
    assert sig_int != sig_mixed, "widened type feedback must change the key"


def test_config_key_distinguishes_speculation_flags():
    vm1 = make_vm()
    vm2 = make_vm(enable_speculation=False)
    assert codecache.config_key(vm1.config) != codecache.config_key(vm2.config)


# ---------------------------------------------------------------------------
# sharing across closures with identical code
# ---------------------------------------------------------------------------

def test_cross_closure_sharing_identical_source():
    """A sibling closure with an identical body is served from the cache
    (stable layer): compiles does not increase."""
    vm = cache_vm()
    vm.eval(SUM_SRC.replace("sumfn", "sumfn2"))
    warm(vm)
    assert vm.state.compiles == 1
    warm(vm, "sumfn2")
    assert from_r(vm.eval("sumfn2(xi, 3L)")) == 6
    assert vm.state.compiles == 1, "sibling must reuse the cached unit"
    assert vm.state.codecache_stable_hits >= 1


def test_reevaluated_program_hits_cache():
    """Re-defining the same function (fresh CodeObject, same content) reuses
    the compiled unit."""
    vm = cache_vm()
    warm(vm)
    assert vm.state.compiles == 1
    vm.eval(SUM_SRC)  # rebind sumfn to a brand-new CodeObject
    warm(vm)
    assert vm.state.compiles == 1
    assert vm.state.codecache_stable_hits >= 1


def test_shared_install_is_per_closure():
    """Cache hits install a per-closure clone: invalidating one closure's
    installed copy must not invalidate the sibling's."""
    vm = cache_vm()
    vm.eval(SUM_SRC.replace("sumfn", "sumfn2"))
    warm(vm)
    warm(vm, "sumfn2")
    a = vm.global_env.get("sumfn").jit.version
    b = vm.global_env.get("sumfn2").jit.version
    assert a is not None and b is not None and a is not b
    a.invalidated = True
    assert not b.invalidated


def test_continuation_cache_shared_across_siblings():
    """The expensive deoptless recovery path: a sibling hitting the same
    mis-speculation context recovers from the cache without recompiling."""
    vm = cache_vm()
    vm.eval(SUM_SRC.replace("sumfn", "sumfn2"))
    warm(vm)
    assert from_r(vm.eval("sumfn(xd, 3L)")) == 7.0
    assert vm.state.deoptless_compiles == 1
    warm(vm, "sumfn2")
    assert from_r(vm.eval("sumfn2(xd, 3L)")) == 7.0
    assert vm.state.deoptless_compiles == 1, "continuation must come from cache"
    assert vm.state.deoptless_dispatches == 2


# ---------------------------------------------------------------------------
# eviction
# ---------------------------------------------------------------------------

def test_lru_eviction_under_budget():
    vm = cache_vm(codecache_budget=1)  # too small for anything
    warm(vm)
    assert vm.state.compiles == 1
    assert vm.state.codecache_evictions >= 1
    assert len(vm.code_cache.entries) == 0
    assert vm.code_cache.total_size == 0


def test_eviction_is_lru_ordered():
    vm = make_vm(compile_threshold=2, codecache=True)
    vm.eval("f <- function(x) x + 1")
    vm.eval("g <- function(x) x * 2")
    vm.eval("h <- function(x) x - 3")
    for _ in range(5):
        vm.eval("f(1L)")
        vm.eval("g(1L)")
    assert len(vm.code_cache.entries) == 2
    f = vm.global_env.get("f")
    g = vm.global_env.get("g")
    # touch f so g becomes least-recently-used, then shrink the budget so
    # compiling h forces exactly one eviction
    assert vm.code_cache.lookup(codecache.entry_key(f, vm.config), vm, f.code)
    vm.code_cache.budget = vm.code_cache.total_size
    for _ in range(5):
        vm.eval("h(1L)")
    hashes = [e.code_hash for e in vm.code_cache.entries.values()]
    assert codecache.stable_code_hash(g.code) not in hashes, "LRU victim"
    assert codecache.stable_code_hash(f.code) in hashes, "recently used survives"


def test_stable_rebind_does_not_double_count_budget():
    """Regression: re-evaluating a program creates fresh closures whose
    feedback embeds new identities — a new *exact* key with the *same*
    stable digest.  Admitting the rebind must release the stale same-digest
    entry's budget charge, not charge the unit twice."""
    vm = cache_vm()
    warm(vm)
    assert vm.state.compiles == 1
    size_one = vm.code_cache.total_size
    assert size_one > 0
    for _ in range(3):
        vm.eval(SUM_SRC)  # fresh CodeObject each time -> new exact key
        warm(vm)
    assert vm.state.codecache_stable_hits >= 3
    assert vm.code_cache.total_size == size_one, \
        "one stable form must hold exactly one budget charge"
    # and the digest index points at the live key only
    digests = [e.digest for e in vm.code_cache.entries.values()
               if e.digest is not None]
    assert len(digests) == len(set(digests)), "duplicate digests resident"


# ---------------------------------------------------------------------------
# invalidation
# ---------------------------------------------------------------------------

def test_real_deopt_invalidates_cached_entries():
    """A genuine deopt means the feedback the entry was built from is stale:
    the entry must not be served to new claimants."""
    vm = cache_vm(enable_deoptless=False)
    warm(vm)
    assert len(vm.code_cache.entries) == 1
    vm.eval("sumfn(xd, 3L)")  # real deopt (deoptless off)
    assert vm.state.deopts >= 1
    assert vm.state.codecache_invalidations >= 1
    assert all(
        e.code_hash != codecache.stable_code_hash(vm.global_env.get("sumfn").code)
        for e in vm.code_cache.entries.values()
    )


def test_widened_feedback_produces_new_key():
    """After re-profiling, the recompile uses a different key, so the stale
    cached unit (if any) is never served."""
    vm = cache_vm(enable_deoptless=False, max_deopts_per_function=10)
    warm(vm)
    clo = vm.global_env.get("sumfn")
    key1 = codecache.entry_key(clo, vm.config)
    vm.eval("sumfn(xd, 3L)")
    for _ in range(6):  # re-profile + recompile with widened feedback
        vm.eval("sumfn(xd, 3L)")
    key2 = codecache.entry_key(clo, vm.config)
    assert key1 != key2


def test_chaos_recompile_hits_cache():
    """Chaos deopts do not change feedback, so the identical recompile is
    exactly the case the cache should catch."""
    vm = make_vm(compile_threshold=2, codecache=True, chaos_rate=0.2, chaos_seed=7,
                 max_deopts_per_function=10_000)
    vm.eval(SUM_SRC)
    for s in SETUP:
        vm.eval(s)
    for _ in range(60):
        vm.eval("sumfn(xi, 3L)")
    s = vm.state
    assert s.deopts > 0, "chaos must have fired for this test to mean anything"
    assert s.codecache_hits + s.codecache_stable_hits > 0, \
        "chaos recompiles should be served from the cache"


# ---------------------------------------------------------------------------
# persistence (warm start)
# ---------------------------------------------------------------------------

def test_warm_start_roundtrip(tmp_path):
    d = str(tmp_path / "cc")
    vm1 = cache_vm(codecache_dir=d)
    warm(vm1)
    cold_result = from_r(vm1.eval("sumfn(xd, 3L)"))
    cold_instrs = vm1.state.compiled_instrs
    assert cold_instrs > 0
    vm1.save_code_cache()

    vm2 = cache_vm(codecache_dir=d)
    warm(vm2)
    warm_result = from_r(vm2.eval("sumfn(xd, 3L)"))
    assert warm_result == cold_result
    assert vm2.state.codecache_disk_hits >= 2, "fn and continuation from disk"
    assert vm2.state.compiled_instrs <= cold_instrs * 0.2, \
        "warm start must compile >= 80%% fewer instructions"


def test_persisted_units_keyed_on_source_hash(tmp_path):
    """A different program must not be served another program's units."""
    d = str(tmp_path / "cc")
    vm1 = cache_vm(codecache_dir=d)
    warm(vm1)
    vm1.save_code_cache()

    vm2 = make_vm(compile_threshold=2, codecache=True, codecache_dir=d)
    vm2.eval(SUM_SRC.replace("total + data[[i]]", "total + 2 * data[[i]]")
             .replace("sumfn", "other"))
    for s in SETUP:
        vm2.eval(s)
    for _ in range(5):
        vm2.eval("other(xi, 3L)")
    assert vm2.state.codecache_disk_hits == 0
    assert vm2.state.compiles == 1
    assert from_r(vm2.eval("other(xi, 3L)")) == 12


def test_save_is_atomic_and_mergeable(tmp_path):
    """Two VMs saving into the same directory must not clobber each other's
    buckets (merge-on-save)."""
    d = str(tmp_path / "cc")
    vm1 = cache_vm(codecache_dir=d)
    warm(vm1)
    vm1.save_code_cache()
    # ctxdispatch/osr_hop pinned to match cache_vm: config_key is part of
    # every cache key, so vm3 only disk-hits entries saved under the same flags
    vm2 = make_vm(compile_threshold=2, codecache=True, codecache_dir=d,
                  ctxdispatch=False, osr_hop=False)
    vm2.eval("twice <- function(x) x * 2")
    for _ in range(5):
        vm2.eval("twice(21L)")
    vm2.save_code_cache()

    vm3 = cache_vm(codecache_dir=d)
    vm3.eval("twice <- function(x) x * 2")
    warm(vm3)
    for _ in range(5):
        vm3.eval("twice(21L)")
    assert vm3.state.codecache_disk_hits >= 2
    assert vm3.state.compiles == 0


# ---------------------------------------------------------------------------
# determinism: cache on vs off
# ---------------------------------------------------------------------------

CALLS = (["sumfn(xi, 3L)"] * 8 + ["sumfn(xd, 3L)"] * 8
         + ["sumfn(xi, 3L)"] * 4 + ["sumfn(xd, 3L)"] * 4)


def _run_sequence(**kw):
    vm = cache_vm(**kw)
    results = [repr(vm.eval(c)) for c in CALLS]
    vm.state.reset_counters()
    steady = [repr(vm.eval(c)) for c in CALLS]
    return results, steady, vm.state.steady_signature()


def test_results_and_steady_signature_identical_cache_on_off():
    """The cache is invisible to execution: program results and the
    steady-state dispatch signature are bit-identical with it on or off."""
    on = _run_sequence()
    off = _run_sequence(codecache=False)
    assert on[0] == off[0], "warmup results differ"
    assert on[1] == off[1], "steady-state results differ"
    assert on[2] == off[2], "steady-state dispatch signatures differ"


def test_cache_disabled_via_flag():
    vm = cache_vm(codecache=False)
    assert vm.code_cache is None
    vm.eval(SUM_SRC.replace("sumfn", "sumfn2"))
    for name in ("sumfn", "sumfn2"):
        warm(vm, name)
        assert from_r(vm.eval("%s(xd, 3L)" % name)) == 7.0
    assert vm.state.codecache_hits == 0
    assert vm.state.codecache_misses == 0
    # the sibling of test_continuation_cache_shared_across_siblings: with no
    # cache every closure pays for its own unit and its own continuation
    assert vm.state.compiles - vm.state.deoptless_compiles == 2
    assert vm.state.deoptless_compiles == 2


# ---------------------------------------------------------------------------
# verification skipping
# ---------------------------------------------------------------------------

def test_cache_hit_skips_reverification():
    """IR is verified once per distinct key; hits skip the verifier."""
    vm = cache_vm()
    vm.eval(SUM_SRC.replace("sumfn", "sumfn2"))
    warm(vm)
    verifies_after_first = vm.state.ir_verifies
    assert verifies_after_first > 0
    warm(vm, "sumfn2")
    assert vm.state.ir_verifies == verifies_after_first, \
        "cache hit must not re-run IR verification"


# ---------------------------------------------------------------------------
# one digest per miss
# ---------------------------------------------------------------------------

def test_a_miss_digests_its_key_once(monkeypatch):
    """The probe that misses takes the key's stable digest; the insert of
    the unit built for it reuses that digest (nothing ran in between).  An
    exact hit takes none."""
    taken = []
    digest = codecache.stable_digest
    monkeypatch.setattr(codecache, "stable_digest",
                        lambda key, resolver: taken.append(key) or digest(key, resolver))
    vm = cache_vm()
    warm(vm)
    assert vm.state.compiles == 1 and vm.state.codecache_misses == 1
    assert len(taken) == 1
    (entry,) = vm.code_cache.entries.values()
    assert entry.digest == digest(taken[0], codecache.WorldResolver(vm))
    assert entry.digest in vm.code_cache.stable_bytes
