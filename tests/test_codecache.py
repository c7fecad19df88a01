"""Tests for the context-keyed code cache (jit/codecache.py).

Covers the acceptance checklist: LRU eviction under a budget, sharing of
compiled code across closures with identical CodeObjects, invalidation when
feedback repair widens a speculation context, warm-start persistence, and
bit-identical dispatch behaviour with the cache on versus off.
"""

from __future__ import annotations

import contextlib
import hashlib
import marshal
import pickle
from unittest import mock

import pytest

from conftest import make_vm
from repro import from_r
from repro.bench.programs import REGISTRY
from repro.deoptless.context import CallContext, ContinuationContext, DeoptContext
from repro.jit import codecache, persist, unit
from repro.native import pycodegen
from repro.serve import SharedCodeCache

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
    vm2 = make_vm(inline=False)
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
    assert vm.code_cache.lookup(codecache.function_key(f, None, vm.config), vm, f.code)
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
    key1 = codecache.function_key(clo, None, vm.config)
    vm.eval("sumfn(xd, 3L)")
    for _ in range(6):  # re-profile + recompile with widened feedback
        vm.eval("sumfn(xd, 3L)")
    key2 = codecache.function_key(clo, None, vm.config)
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
    clo = vm.global_env.get("sumfn")
    assert vm.code_cache.lookup(entry.key, vm, clo.code) is entry.ncode
    assert vm.state.codecache_hits == 1 and len(taken) == 1


def _walked_stabilize(value, resolver, out):
    """How a key was rendered before the C pickler did it: a Python walk
    over every node (the oracle)."""
    if isinstance(value, codecache.Ident):
        codecache._canon(resolver.stable_ref(value.obj), out)
    elif isinstance(value, DeoptContext):
        out.append("ctx(")
        codecache._canon(value.stable_parts(resolver.stable_ref), out)
        out.append(")")
    elif isinstance(value, ContinuationContext):
        out.append("cont(")
        codecache._canon(value.stable_parts(), out)
        out.append(")")
    elif isinstance(value, CallContext):
        out.append("callctx(")
        codecache._canon(value.stable_parts(), out)
        out.append(")")
    elif isinstance(value, (tuple, list)):
        out.append("(")
        for v in value:
            _walked_stabilize(v, resolver, out)
        out.append(")")
    else:
        codecache._canon(value, out)


def _walked_digest(key, resolver):
    out = []
    try:
        _walked_stabilize(key, resolver, out)
    except codecache.Unstable:
        return None
    return hashlib.sha256("".join(out).encode("utf-8", "surrogatepass")).hexdigest()


def _four_kind_key(spec, config):
    """The key the four constructors two replaced gave ``spec`` (the oracle):
    ``entry_key``, ``context_entry_key``, ``osr_key``, ``continuation_key``."""
    code, closure, ctx = spec.code, spec.closure, spec.ctx
    h, cfg = codecache.stable_code_hash(code), codecache.config_key(config)
    sig = codecache.feedback_signature(code, config, spec.feedback)
    if isinstance(ctx, DeoptContext):
        return ("cont", h, ctx, sig, cfg)
    formals = codecache._formals_sig(closure) if closure is not None else "top"
    if isinstance(ctx, ContinuationContext):
        return ("osr", h, formals, ctx.pc, ctx.env_types, sig, cfg)
    if ctx is None:
        return ("fn", h, formals, sig, cfg)
    return ("ctxfn", h, formals, ctx, sig, cfg)


@pytest.fixture(scope="module")
def registry_keys():
    """One sweep for two oracles: the 32 registry programs, twice each,
    under chaos, where every caller obtains units.  Returns (walked digest,
    digest) per key the VM digested, and per unit obtained the (four-kind
    key, key, key with a continuation's formals blanked) triple and the
    digests of the three, each taken in the world the unit was obtained in."""
    pairs, exact, digests = set(), set(), set()
    digest, obtain = codecache.stable_digest, unit.obtain

    def both(key, resolver):
        new = digest(key, resolver)
        pairs.add((_walked_digest(key, resolver), new))
        return new

    def keyed(vm, spec, probe_only=False):
        resolver = codecache.WorldResolver(vm)
        old, new = _four_kind_key(spec, vm.config), spec.key(vm.config)
        blank = new[:2] + ("formals",) + new[3:] if new[0] == "cont" else new
        exact.add((old, new, blank))
        digests.add(tuple(digest(k, resolver) for k in (old, new, blank)))
        return obtain(vm, spec, probe_only)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codecache, "stable_digest", both)
        patch.setattr(unit, "obtain", keyed)
        for name in REGISTRY.names():
            w = REGISTRY.get(name)
            vm = make_vm(compile_threshold=1, osr_threshold=25, enable_deoptless=True,
                         chaos_rate=0.02, chaos_seed=7)
            for src in (w.source, w.setup_code(w.n_test)):
                vm.eval(src)
            for _ in range(2):
                vm.eval(w.call_code(w.n_test))
    return pairs, exact, digests


def _same_classes(pairs):
    """Two labellings of the same items, as (a, b) pairs, make the same
    equality classes."""
    return len({a for a, _ in pairs}) == len({b for _, b in pairs}) == len(pairs)


def test_key_digests_split_keys_as_the_walked_rendering_did(registry_keys):
    """Every key digested over the 32 registry programs under chaos, each
    digested both ways in the world it was taken in: the two renderings
    put the keys in the same equality classes, so hits, misses and disk
    hits cannot move, and a key with no stable form has none either way."""
    pairs, _, _ = registry_keys
    assert len(pairs) > 500 and _same_classes(pairs)
    assert all((old is None) == (new is None) for old, new in pairs)


#: continuation classes of the four keys that the formals split in two: the
#: wrong-result sharing `test_regressions.py::test_a_continuation_is_not_
#: shared_across_formals` reproduces; the 32 registry programs make none
FORMALS_SPLITS = 0


def test_two_key_shapes_split_units_as_the_four_did(registry_keys):
    """Every unit the 32 registry programs obtain under chaos, keyed both
    ways in the world it was obtained in: the exact keys and the stable
    digests of ``function_key``/``continuation_key`` put the units in the
    classes the four constructors did, but for one allowed refinement — a
    continuation's key carries its closure's formals, which the deoptless
    key did not.  With the formals blanked the classes are the same; with
    them no two classes merge, and ``FORMALS_SPLITS`` classes split."""
    _, exact, digests = registry_keys
    kinds = {(old[0], new[0]) for old, new, _ in exact}
    assert kinds == {("fn", "fn"), ("ctxfn", "fn"), ("osr", "cont"), ("cont", "cont")}
    assert all(len({d is None for d in ds}) == 1 for ds in digests)
    stable = {ds for ds in digests if ds[0] is not None}
    assert len(exact) > 500 and len(stable) > 200
    for triples in (exact, stable):
        assert _same_classes({(old, blank) for old, _, blank in triples})
        assert len({new for _, new, _ in triples}) == len({(old, new) for old, new, _ in triples})
        splits = len({new for _, new, _ in triples}) - len({old for old, _, _ in triples})
        assert splits == FORMALS_SPLITS


# ---------------------------------------------------------------------------
# two places, one rule: bytes are made only where a store can keep them
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _counted():
    """Mocks counting ``persist.serialize`` and ``CodeCache.insert`` calls."""
    insert = codecache.CodeCache.insert
    with mock.patch.object(persist, "serialize", wraps=persist.serialize) as ser, \
            mock.patch.object(codecache.CodeCache, "insert", autospec=True,
                              side_effect=insert) as ins:
        yield ser, ins


def _interp(sources, calls):
    vm = make_vm(enable_jit=False)
    for src in sources:
        vm.eval(src)
    return [from_r(vm.eval(c)) for c in calls]


def test_no_store_no_bytes():
    """With no directory and no fleet nobody can read a unit's bytes, and a
    chaos run — tier-ups, deopts, continuations, recompiles — makes none."""
    w = REGISTRY.get("binarytrees")
    sources = (w.source, w.setup_code(w.n_test))
    calls = [w.call_code(w.n_test)] * 3
    vm = make_vm(codecache_dir=None, enable_deoptless=True, chaos_rate=0.01,
                 chaos_seed=3, max_deopts_per_function=10_000)
    with _counted() as (ser, ins):
        for src in sources:
            vm.eval(src)
        results = [from_r(vm.eval(c)) for c in calls]
    assert results == _interp(sources, calls)
    assert vm.state.deopts > 0 and vm.state.deoptless_compiles > 0
    assert ins.call_count >= 10 and ser.call_count == 0


def test_a_directory_takes_each_unit_once_and_warm_starts(tmp_path):
    """With a directory attached every insert serializes once, at insert;
    ``save_code_cache()`` then a fresh VM is ``test_warm_start_roundtrip``."""
    d = str(tmp_path / "cc")
    vm1 = cache_vm(codecache_dir=d)
    with _counted() as (ser, ins):
        warm(vm1)
        cold_result = from_r(vm1.eval("sumfn(xd, 3L)"))
    assert ins.call_count == ser.call_count == 2, "fn and continuation"
    assert vm1.save_code_cache() == 1 and vm1.save_code_cache() == 0

    vm2 = cache_vm(codecache_dir=d)
    with _counted() as (ser, _):
        warm(vm2)
        assert from_r(vm2.eval("sumfn(xd, 3L)")) == cold_result
    assert vm2.state.codecache_disk_hits == 2 and vm2.state.compiles == 0
    assert ser.call_count == 0, "a unit read from the directory is not written back"
    assert vm2.save_code_cache() == 0


def test_the_fleet_store_is_asked_before_the_directory(tmp_path):
    """Both stores attached: each takes the unit at insert; a claimant asks
    the shared one first and its hit is not a disk hit as well."""
    d = str(tmp_path / "cc")
    shared = SharedCodeCache(budget=100_000)

    def tenant(name):
        vm = cache_vm(codecache_dir=d)
        vm.code_cache.shared, vm.code_cache.tenant = shared, name
        return vm

    a = tenant("a")
    warm(a)
    assert shared.puts == 1 and a.save_code_cache() == 1

    b = tenant("b")
    with mock.patch.object(persist, "load_bucket", wraps=persist.load_bucket) as read:
        warm(b)
    assert from_r(b.eval("sumfn(xi, 3L)")) == 6
    assert (b.state.shared_cache_hits, b.state.codecache_disk_hits) == (1, 0)
    assert shared.hits_by_tenant == {"b": 1} and read.call_count == 0

    shared = SharedCodeCache(budget=100_000)  # a fleet that never saw the unit
    c = tenant("c")
    warm(c)
    assert (c.state.shared_cache_hits, c.state.codecache_disk_hits) == (0, 1)


def test_an_evicted_unit_with_no_store_is_recompiled():
    """Nothing outlives eviction when no store is attached: the sibling's
    request is a miss and an honest, correct recompile."""
    vm = cache_vm(codecache_budget=1, codecache_dir=None)
    vm.eval(SUM_SRC.replace("sumfn", "sumfn2"))
    warm(vm)
    assert vm.state.compiles == 1 and len(vm.code_cache.entries) == 0
    warm(vm, "sumfn2")
    assert from_r(vm.eval("sumfn2(xi, 3L)")) == 6
    assert from_r(vm.eval("sumfn2(xd, 3L)")) == 7.0
    s = vm.state
    assert s.compiles - s.deoptless_compiles == 2 and s.codecache_misses >= 2
    assert s.codecache_stable_hits == s.codecache_hits == 0


DOT_SRC = "dot <- function(x, y, n) { s <- 0; for (i in 1:n) s <- s + x[[i]] * y[[i]]; s }"
DOT_SETUP = "x <- c(1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5); y <- c(2, 3, 4, 5, 6, 7, 8, 9)"


@pytest.mark.parametrize("declined", [False, True])
def test_a_unit_that_ran_still_rebinds(declined, monkeypatch):
    """The in-VM rebind serializes a unit that may have run: its ``fsum``
    kernel has compiled its Python loop by then, which does not pickle, and
    a unit codegen declined has ``pysrc is False``.  Both rebind — the bytes
    carry neither — where a naive serializer turns the hit into a recompile.
    The bytes made after the runs are the bytes a store would have taken at
    insert, before the first run, code object included."""
    engine = {}
    if declined:  # the sentinel is the codegen engine's: pinned under the oracle's leg too
        def refuse(ncode):
            raise NotImplementedError("declined")
        monkeypatch.setattr(pycodegen, "_emit", refuse)
        engine = {"threaded_dispatch": True}
    at_insert = []
    insert = codecache.CodeCache.insert

    def insert_and_serialize(self, key, ncode, vm, root_code):
        insert(self, key, ncode, vm, root_code)
        at_insert.append(persist.serialize(ncode, root_code, codecache.WorldResolver(vm)))

    monkeypatch.setattr(codecache.CodeCache, "insert", insert_and_serialize)
    vm = make_vm(codecache_dir=None, **engine)
    calls = ["dot(x, y, 8L)"] * 6
    for src in (DOT_SETUP, DOT_SRC):
        vm.eval(src)
    first = [from_r(vm.eval(c)) for c in calls]
    (entry,) = vm.code_cache.entries.values()
    (kernel,) = entry.ncode.kernels
    assert kernel.kind == "fsum" and kernel.pyfn, "the unit ran its kernel"
    assert (entry.ncode.pysrc is False) == declined and vm.state.pycodegen_failures == declined
    after = persist.serialize(entry.ncode, entry.root_code, codecache.WorldResolver(vm))
    assert at_insert == [after]
    code = entry.ncode.pycode
    assert (code is None) == (declined or not vm.config.threaded_dispatch)
    assert code is None or marshal.dumps(code) in after
    vm.eval(DOT_SRC)  # a fresh CodeObject, the same digest
    again = [from_r(vm.eval(c)) for c in calls]
    assert first == again == _interp((DOT_SETUP, DOT_SRC), calls)
    s = vm.state
    assert (s.compiles, s.codecache_stable_hits, s.codecache_persist_failures) == (1, 1, 0)
    assert s.pycodegen_failures == declined, "a decline rides in the bytes"
    (entry,) = vm.code_cache.entries.values()
    assert entry.ncode.kernels[0].pyfn, "the rebound unit compiled its own loop"


def _dot_vm(**kw):
    vm = make_vm(threaded_dispatch=True, **kw)
    for src in (DOT_SETUP, DOT_SRC):
        vm.eval(src)
    return vm


def test_a_compile_that_fails_at_serialize_time_declines_once(tmp_path, monkeypatch):
    """A store takes a unit's bytes at insert, so that is where its source is
    compiled.  When ``compile()`` raises there the unit is declined once: not
    again at its first run, not when its bytes are rebound in this VM or
    read by the next.  It still stores and rebinds, and runs on the
    reference loop."""
    def refuse(ncode):
        raise SyntaxError("refused")

    monkeypatch.setattr(pycodegen, "_compile", refuse)
    d = str(tmp_path / "cc")
    calls = ["dot(x, y, 8L)"] * 6
    vm = _dot_vm(codecache_dir=d)
    first = [from_r(vm.eval(c)) for c in calls]
    (entry,) = vm.code_cache.entries.values()
    assert entry.ncode.pysrc is False and vm.state.pycodegen_failures == 1
    vm.eval(DOT_SRC)  # a fresh CodeObject: rebound from the live entry's bytes
    again = [from_r(vm.eval(c)) for c in calls]
    assert vm.save_code_cache() == 1
    warm = _dot_vm(codecache_dir=d)
    read = [from_r(warm.eval(c)) for c in calls]
    assert first == again == read == _interp((DOT_SETUP, DOT_SRC), calls)
    s, w = vm.state, warm.state
    assert (s.compiles, s.codecache_stable_hits, s.pycodegen_failures) == (1, 1, 1)
    assert (w.compiles, w.codecache_disk_hits, w.pycodegen_failures) == (0, 1, 0)


@pytest.mark.parametrize("store", ["directory", "fleet"])
def test_a_unit_that_came_as_bytes_is_not_compiled_again(store, tmp_path, monkeypatch):
    """A VM warm-starting from the directory, and a second tenant rebinding
    from the fleet's cache, bind the unit by an ``exec`` of the code object
    that came in its bytes: no emitter walk, no ``compile()``."""
    compiled = []
    compile_unit = pycodegen._compile
    monkeypatch.setattr(pycodegen, "_compile",
                        lambda ncode: compiled.append(ncode.name) or compile_unit(ncode))
    d, shared = str(tmp_path / "cc"), SharedCodeCache(budget=100_000)

    def tenant(name):
        vm = cache_vm(threaded_dispatch=True,
                      codecache_dir=d if store == "directory" else None)
        if store == "fleet":
            vm.code_cache.shared, vm.code_cache.tenant = shared, name
        return vm

    calls = ["sumfn(xi, 3L)"] * 5
    a = tenant("a")
    for c in calls:
        a.eval(c)
    assert len(compiled) == a.state.compiles == 1
    a.save_code_cache()
    del compiled[:]
    b = tenant("b")
    assert [from_r(b.eval(c)) for c in calls] == _interp((SUM_SRC,) + SETUP, calls)
    s = b.state
    assert (s.codecache_disk_hits, s.shared_cache_hits) == ((1, 0) if store == "directory" else (0, 1))
    assert compiled == [] and s.pycodegen_units == 0 and s.pycodegen_src_reuses == 1


# ---------------------------------------------------------------------------
# a bad artifact is a miss
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _address_space_capped(extra=1 << 30):
    """Corrupt pickles can ask the C unpickler for gigabytes (a memo index,
    a length prefix); under this cap such a request fails at once instead
    of being served by a machine other people share."""
    resource = pytest.importorskip("resource")
    try:
        with open("/proc/self/statm") as f:
            now = int(f.read().split()[0]) * resource.getpagesize()
    except OSError:
        pytest.skip("no /proc: cannot bound the sweep's memory")
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (now + extra, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


CORRUPT_CALLS = ["sumfn(xi, 3L)"] * 5 + ["sumfn(xd, 3L)"]


@contextlib.contextmanager
def _bad_artifact(tmp_path):
    """A real bucket file (``sumfn``'s unit and its continuation), open for
    damage: yields its directory, the file, its bytes, ``probe()`` — the
    lookup a warm start makes for the function's unit, on a cache that has
    not read the file yet, returning the unit and the failures counted —
    and the offset and length of that unit's entry in the file."""
    d = tmp_path / "cc"
    vm = cache_vm(codecache_dir=str(d))
    for c in CORRUPT_CALLS:
        vm.eval(c)
    assert vm.save_code_cache() == 1
    (path,) = d.rglob("*.ccache")
    warm_vm = _program_reads(str(d))
    assert warm_vm.state.codecache_disk_hits == 2 and warm_vm.state.compiles == 0

    vm = cache_vm(codecache_dir=str(d))
    warm(vm, n=1)
    clo = vm.global_env.get("sumfn")
    key = codecache.function_key(clo, None, vm.config)
    # the probe's digest is taken once: its world does not change, and it
    # is most of what a probe costs
    take = codecache.stable_digest
    digest = take(key, codecache.WorldResolver(vm))

    def probe():
        before = vm.state.codecache_persist_failures
        unit = codecache.CodeCache(vm.config).lookup(key, vm, clo.code)
        return unit, vm.state.codecache_persist_failures - before

    with _address_space_capped(), open(path, "r+b", buffering=0) as f, \
            mock.patch.object(codecache, "stable_digest",
                              lambda k, r: digest if k is key else take(k, r)):
        assert probe()[0] is not None
        good = path.read_bytes()
        entry = pickle.loads(good)["entries"][digest]
        yield str(d), f, good, probe, (good.index(entry), len(entry))


def _program_reads(d):
    """The program on a fresh VM warm-starting from ``d``: its results
    against the interpreter's, and the VM for its counters."""
    vm = cache_vm(codecache_dir=d)
    results = [from_r(vm.eval(c)) for c in CORRUPT_CALLS]
    assert results == _interp((SUM_SRC,) + SETUP, CORRUPT_CALLS)
    return vm


def test_a_flipped_byte_in_an_artifact_is_a_miss(tmp_path):
    """Every value at each of the first 140 and last 30 bytes of a real
    bucket file: ``CodeCache.lookup`` returns a unit or None, never raises,
    and counts an unreadable file once; then one whole program per way the
    file failed to read runs to the interpreter's results on a recompile."""
    ways = {}
    with _bad_artifact(tmp_path) as (d, f, good, probe, _):
        for pos in list(range(140)) + list(range(len(good) - 30, len(good))):
            for value in range(256):
                if value == good[pos]:
                    continue
                f.seek(pos)
                f.write(bytes([value]))
                unit, failures = probe()
                assert failures <= 1 and (unit is None or failures == 0), (pos, value)
                if failures:
                    bad = good[:pos] + bytes([value]) + good[pos + 1:]
                    try:
                        pickle.loads(bad)
                        way = "entry"  # the bucket reads, the unit's bytes do not
                    except Exception as e:
                        way = type(e).__name__
                    ways.setdefault(way, bad)
            f.seek(pos)
            f.write(good[pos:pos + 1])
        assert len(ways) >= 5, sorted(ways)
        for way, bad in ways.items():
            f.seek(0)
            f.write(bad)
            s = _program_reads(d).state
            assert s.codecache_persist_failures == 1 and s.compiles >= 1, way


def test_a_truncated_artifact_is_a_miss(tmp_path):
    """Cut at every 7th length the file is unreadable, counted once, never
    raised; a whole program at a few of them recompiles both units."""
    with _bad_artifact(tmp_path) as (d, f, good, probe, _):
        for length in range(0, len(good), 7):
            f.truncate(length)
            assert probe() == (None, 1), length
            if length % 1750 == 0:
                s = _program_reads(d).state
                assert (s.codecache_persist_failures, s.compiles) == (1, 2), length
            f.seek(0)
            f.write(good)


def test_every_flipped_byte_of_an_entry_is_a_miss(tmp_path):
    """Each byte of the function unit's entry, checksum and payload alike,
    flipped in turn: the checksum is checked before anything is unpickled
    or unmarshalled (``marshal.loads`` of damaged code may crash the
    interpreter instead of raising), so every flip is a miss counted once;
    a whole program at a stride of them runs to the interpreter's results
    on a recompile."""
    with _bad_artifact(tmp_path) as (d, f, good, probe, (start, size)):
        assert size > 1000, "the entry holds the unit's code object"
        for pos in range(start, start + size):
            f.seek(pos)
            f.write(bytes([good[pos] ^ 0xFF]))
            assert probe() == (None, 1), pos - start
            if (pos - start) % 1500 == 0:
                s = _program_reads(d).state
                assert s.codecache_persist_failures == 1 and s.compiles >= 1, pos - start
            f.seek(pos)
            f.write(good[pos:pos + 1])


def _saved_as(d, monkeypatch, **persist_attrs):
    """The program run and saved into ``d`` by a VM whose ``persist`` module
    has ``persist_attrs``: written the way another format or interpreter
    writes."""
    with monkeypatch.context() as other:
        for name, value in persist_attrs.items():
            other.setattr(persist, name, value)
        vm = cache_vm(codecache_dir=str(d))
        for c in CORRUPT_CALLS:
            vm.eval(c)
        assert vm.save_code_cache() == 1


def _read_as_misses(d):
    s = _program_reads(str(d)).state
    assert (s.codecache_disk_hits, s.codecache_persist_failures) == (0, 0)
    assert s.codecache_misses >= 2 and s.compiles == 2


def test_a_directory_of_the_previous_format_is_a_miss(tmp_path, monkeypatch):
    """Format 14's deopt descriptors held lists where format 15's hold shared
    tuples.  A directory written
    under 14 reads under 15 as counted misses — no disk hit, no persist
    failure — a recompile and the interpreter's results; an entry stamped 14
    handed to ``deserialize`` is refused on its version before any field is
    read."""
    d = tmp_path / "cc"
    _saved_as(d, monkeypatch, FORMAT_VERSION=14)
    assert persist.FORMAT_VERSION == 15
    _read_as_misses(d)
    vm = cache_vm()
    warm(vm)
    (entry,) = vm.code_cache.entries.values()
    with monkeypatch.context() as old:
        old.setattr(persist, "FORMAT_VERSION", 14)
        data = persist.serialize(entry.ncode, entry.root_code, codecache.WorldResolver(vm))
    with pytest.raises(persist.PersistError, match="format 14"):
        persist.deserialize(data, entry.root_code, codecache.WorldResolver(vm))


def test_a_directory_another_interpreter_wrote_is_a_miss(tmp_path, monkeypatch):
    """Marshalled code loads only under the bytecode version that made it:
    a directory stamped with another interpreter's magic number reads like
    one of another format."""
    d = tmp_path / "cc"
    _saved_as(d, monkeypatch, PYTHON_MAGIC=b"\x00\x00\r\n")
    _read_as_misses(d)
