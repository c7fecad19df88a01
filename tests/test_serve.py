"""Tests for the multi-tenant serving layer (repro/serve).

Covers the cross-tenant sharing semantics from the acceptance checklist:
content-identical closures in two sessions hit the shared cache; a
poisoned tenant's real deopt retires only its own versions, and a tenant
whose profile still names a published unit rebinds it; chaos deopts in
one tenant don't perturb another tenant's dispatch_signature; and serving
on/off is signature-neutral per tenant, with each shared-cache hit
counted as a hit in place of a compile.
"""

from __future__ import annotations

import threading

import pytest

from conftest import make_vm
from repro import Config, RVM, from_r
from repro.serve import FleetCompileQueue, Server, SharedCodeCache

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


def _cfg(**kw):
    # ctxdispatch/osr_hop off where deopt-retirement is asserted, for the
    # same reasons as test_codecache.cache_vm.
    cfg = dict(compile_threshold=2, enable_deoptless=True,
               ctxdispatch=False, osr_hop=False)
    cfg.update(kw)
    return Config(**cfg)


def _server(**kw):
    return Server(config_factory=lambda: _cfg(**kw))


def _warm(srv, tenant, n=5):
    srv.eval(tenant, SUM_SRC)
    for s in SETUP:
        srv.eval(tenant, s)
    out = None
    for _ in range(n):
        out = srv.eval(tenant, "sumfn(xi, 3L)")
    return out


# ---------------------------------------------------------------------------
# shared cache: cross-tenant sharing
# ---------------------------------------------------------------------------

def test_cross_tenant_shared_hit():
    """Content-identical closures in two sessions share one compile."""
    srv = _server()
    a = from_r(_warm(srv, "a"))
    b = from_r(_warm(srv, "b"))
    assert a == b == 6
    st = srv.stats()
    assert st["shared_cache"]["cross_tenant_hits"] >= 1
    ta, tb = st["per_tenant"]["a"], st["per_tenant"]["b"]
    # tenant a paid the pipeline; tenant b rebound the published form
    assert ta["compiled_instrs"] > 0
    assert tb["shared_cache_hits"] >= 1
    assert tb["compiled_instrs"] < ta["compiled_instrs"]
    assert tb["codecache_instrs_saved"] > 0
    srv.close()


def test_shared_rebind_preserves_signature_parity():
    """Two tenants running the same workload have identical signatures
    though only one of them ran the pipeline: the other's rebinds are
    shared-cache hits, each standing for one of the first's compiles."""
    srv = _server()
    _warm(srv, "a")
    _warm(srv, "b")
    a, b = srv.sessions["a"].vm.state, srv.sessions["b"].vm.state
    assert a.dispatch_signature() == b.dispatch_signature()
    assert b.shared_cache_hits >= 1
    assert a.compiles == b.compiles + b.shared_cache_hits
    srv.close()


def test_serve_on_off_signature_neutral():
    """Per-tenant dispatch_signature must be bit-identical whether the
    session ran inside a sharing fleet or as an isolated VM."""
    srv = _server()
    _warm(srv, "a")
    _warm(srv, "b")  # b is the interesting one: it rebound, not compiled

    def isolated():
        vm = make_vm(compile_threshold=2, enable_deoptless=True,
                     codecache=True, ctxdispatch=False, osr_hop=False)
        vm.eval(SUM_SRC)
        for s in SETUP:
            vm.eval(s)
        for _ in range(5):
            vm.eval("sumfn(xi, 3L)")
        return vm

    base = isolated()
    b = srv.sessions["b"].vm.state
    assert b.dispatch_signature() == base.state.dispatch_signature()
    assert srv.sessions["a"].vm.state.dispatch_signature() \
        == base.state.dispatch_signature()
    # ...and the saving is in the snapshot-only counters: a hit for a compile
    assert b.shared_cache_hits >= 1
    assert base.state.compiles == b.compiles + b.shared_cache_hits
    assert b.compiled_instrs < base.state.compiled_instrs
    srv.close()


def test_reference_engine_config_starts_no_fleet_pool():
    """The reference engine pins tier-up synchronous; what decides is the
    Config tenants are built from, not the process environment."""
    for threaded in (False, True):
        srv = Server(config_factory=lambda: _cfg(threaded_dispatch=threaded),
                     compile_workers=2)
        assert srv.shared is not None
        assert (srv.fleet is not None) == threaded
        srv.close()


def test_serve_off_is_fully_isolated():
    """Config.serve=False: same Server API, no
    shared infrastructure — every tenant pays its own pipeline."""
    srv = _server(serve=False)
    assert srv.shared is None and srv.fleet is None
    a = from_r(_warm(srv, "a"))
    b = from_r(_warm(srv, "b"))
    assert a == b == 6
    st = srv.stats()
    for t in ("a", "b"):
        pt = st["per_tenant"][t]
        assert pt["shared_cache_hits"] == 0
        assert pt["compiled_instrs"] > 0
    srv.close()


# ---------------------------------------------------------------------------
# isolation: deopts and chaos
# ---------------------------------------------------------------------------

def test_tenant_deopt_never_touches_other_tenants_installed_code():
    """Install separation: tenant b's real deopt retires b's own version;
    tenant a's installed version keeps running natively and a's telemetry
    does not move."""
    srv = _server(enable_deoptless=False)
    _warm(srv, "a")
    _warm(srv, "b")

    def snap_of(t):
        s = srv.sessions[t].vm.state.snapshot()
        # allocations is a process-global proxy (RVector.allocations class
        # counter minus a per-VM baseline): another tenant's activity moves
        # it.  Everything else in the snapshot is strictly per-VM.
        s.pop("allocations", None)
        return s

    snap_a = snap_of("a")
    # poison tenant b: dbl args refute the int speculation -> real deopt
    srv.eval("b", "sumfn(xd, 3L)")
    assert srv.sessions["b"].vm.state.deopts >= 1
    # a unaffected: telemetry identical, next call still native (the
    # installed version was not invalidated by b's deopt)
    assert snap_of("a") == snap_a
    native_before = srv.sessions["a"].vm.state.native_ops
    assert from_r(srv.eval("a", "sumfn(xi, 3L)")) == 6
    assert srv.sessions["a"].vm.state.native_ops > native_before
    assert srv.sessions["a"].vm.state.deopts == 0
    srv.close()


def test_a_fresh_tenant_with_the_pre_deopt_profile_rebinds_the_unit():
    """A real deopt refutes the publisher's speculation for the publisher
    only.  A fresh tenant warming with ints afterwards has the profile the
    unit was compiled from — its digest names that unit — so it rebinds it
    instead of compiling, and runs exactly as an isolated tenant does; a
    tenant fed doubles has another profile and compiles its own unit."""
    srv = _server(enable_deoptless=False)
    _warm(srv, "a")
    srv.eval("a", "sumfn(xd, 3L)")  # real deopt in the publisher itself
    assert srv.sessions["a"].vm.state.deopts == 1
    out = from_r(_warm(srv, "c"))
    c = srv.sessions["c"].vm.state
    assert (c.shared_cache_hits, c.compiles) == (1, 0)
    vm_iso = make_vm(compile_threshold=2, enable_deoptless=False,
                     codecache=True, ctxdispatch=False, osr_hop=False)
    vm_iso.eval(SUM_SRC)
    for s in SETUP:
        vm_iso.eval(s)
    for _ in range(5):
        iso = from_r(vm_iso.eval("sumfn(xi, 3L)"))
    assert out == iso == 6
    assert c.dispatch_signature() == vm_iso.state.dispatch_signature()

    srv.eval("d", SUM_SRC)
    for s in SETUP:
        srv.eval("d", s)
    for _ in range(5):
        assert from_r(srv.eval("d", "sumfn(xd, 3L)")) == 7.0
    d = srv.sessions["d"].vm.state
    assert (d.shared_cache_hits, d.compiles, d.deopts) == (0, 1, 0)
    srv.close()


def test_chaos_tenant_does_not_perturb_others():
    """Chaos-injected deopts in one tenant are invisible to the rest of
    the fleet: no shared-cache churn, and a well-behaved tenant's
    dispatch_signature matches an isolated run exactly."""
    srv = _server()
    _warm(srv, "a")
    # chaos tenant: same code, randomly failing assumptions
    srv.session("chaos", config=_cfg(chaos_rate=0.5))
    _warm(srv, "chaos", n=8)
    assert srv.sessions["chaos"].vm.state.deopts >= 1
    # another clean tenant after the chaos storm still shares cleanly
    _warm(srv, "b")
    vm_iso = make_vm(compile_threshold=2, enable_deoptless=True,
                     codecache=True, ctxdispatch=False, osr_hop=False)
    vm_iso.eval(SUM_SRC)
    for s in SETUP:
        vm_iso.eval(s)
    for _ in range(5):
        vm_iso.eval("sumfn(xi, 3L)")
    assert srv.sessions["b"].vm.state.dispatch_signature() \
        == vm_iso.state.dispatch_signature()
    srv.close()


# ---------------------------------------------------------------------------
# shared cache mechanics
# ---------------------------------------------------------------------------

def test_shared_cache_lru_eviction():
    cache = SharedCodeCache(budget=100)
    cache.put("d1", "h1", b"x", 60, "a")
    cache.put("d2", "h2", b"y", 60, "a")  # evicts d1 (LRU)
    assert cache.get("d1", "h1", "b") is None
    assert cache.get("d2", "h2", "b") == b"y"
    assert cache.evictions == 1
    assert cache.total_size == 60


def test_shared_cache_rejects_oversized_unit():
    cache = SharedCodeCache(budget=10)
    cache.put("d1", "h1", b"x", 50, "a")
    assert len(cache) == 0


def test_shared_cache_cross_tenant_attribution():
    cache = SharedCodeCache(budget=1000)
    cache.put("d1", "h1", b"x", 10, "a")
    assert cache.get("d1", "h1", "a") == b"x"   # self-hit: not cross-tenant
    assert cache.get("d1", "h1", "b") == b"x"   # cross-tenant
    assert cache.cross_tenant_hits == 1
    assert cache.hits == 2
    assert cache.hits_by_tenant == {"a": 1, "b": 1}


# ---------------------------------------------------------------------------
# fleet compile queue
# ---------------------------------------------------------------------------

def _manual_fleet_server(**kw):
    """Server with a deterministic (manually drained) fleet queue."""
    srv = _server(**kw)
    srv.fleet = FleetCompileQueue(0)
    srv.fleet.shared = srv.shared
    return srv


def test_fleet_coalesces_identical_builds():
    """Two tenants' identical tier-up requests: one build, one claim."""
    srv = _manual_fleet_server()
    for t in ("a", "b"):
        srv.eval(t, SUM_SRC)
        for s in SETUP:
            srv.eval(t, s)
    for _ in range(3):  # third call submits the tier-up request
        for t in ("a", "b"):
            srv.eval(t, "sumfn(xi, 3L)")
    assert srv.fleet.stats()["coalesced"] == 1
    srv.fleet.drain()
    assert srv.fleet.stats()["builds"] == 1
    # origin installs+publishes, claimant rebinds from the shared cache
    for _ in range(2):
        for t in ("a", "b"):
            assert from_r(srv.eval(t, "sumfn(xi, 3L)")) == 6
    sa, sb = srv.sessions["a"].vm.state, srv.sessions["b"].vm.state
    assert sb.batched_compiles >= 1
    assert sa.compiled_instrs > 0
    assert sb.compiled_instrs == 0 and sb.shared_cache_hits == sa.compiles
    assert sa.dispatch_signature() == sb.dispatch_signature()
    srv.close()


def test_fleet_skips_builds_already_published():
    """A group whose stable form is already in the shared cache is staged
    as claims without running the pipeline (published_skips)."""
    srv = _manual_fleet_server()
    _warm_t = "a"
    srv.eval(_warm_t, SUM_SRC)
    for s in SETUP:
        srv.eval(_warm_t, s)
    for _ in range(3):
        srv.eval(_warm_t, "sumfn(xi, 3L)")
    srv.fleet.drain()
    srv.eval(_warm_t, "sumfn(xi, 3L)")  # install + publish
    # a fresh tenant requests the same unit -> worker skips the build.
    # (Its inline probe would normally claim first; drain before it calls
    # again so the skip path itself is exercised.)
    srv.eval("b", SUM_SRC)
    for s in SETUP:
        srv.eval("b", s)
    # force the request through the queue: probe misses only until the
    # session's own stable layer is consulted, so issue calls until the
    # request lands or the version installs
    for _ in range(3):
        srv.eval("b", "sumfn(xi, 3L)")
    srv.fleet.drain()
    for _ in range(2):
        srv.eval("b", "sumfn(xi, 3L)")
    st_b = srv.sessions["b"].vm.state
    assert st_b.compiled_instrs == 0         # never ran the pipeline
    assert st_b.shared_cache_hits >= 1       # claimed the published form
    assert from_r(srv.eval("b", "sumfn(xi, 3L)")) == 6
    srv.close()


def test_fleet_threaded_join_and_close():
    """Threaded fleet: join() quiesces, results install on session threads,
    every tenant converges to native execution."""
    srv = Server(config_factory=lambda: _cfg(), compile_workers=2)
    tenants = ["t%d" % i for i in range(3)]
    for t in tenants:
        srv.eval(t, SUM_SRC)
        for s in SETUP:
            srv.eval(t, s)
    for _ in range(6):
        for t in tenants:
            srv.eval(t, "sumfn(xi, 3L)")
        srv.quiesce()
    for t in tenants:
        assert from_r(srv.eval(t, "sumfn(xi, 3L)")) == 6
        assert srv.sessions[t].vm.state.native_ops > 0
    srv.close()


# ---------------------------------------------------------------------------
# server front: batching, latency stats, dispatcher workers
# ---------------------------------------------------------------------------

def test_batch_returns_results_in_request_order():
    srv = _server()
    for t in ("a", "b"):
        srv.eval(t, SUM_SRC)
        for s in SETUP:
            srv.eval(t, s)
    out = srv.batch([("a", "sumfn(xi, 3L)"), ("b", "sumfn(xd, 3L)"),
                     ("a", "sumfn(xi, 2L)")])
    assert [from_r(v) for v in out] == [6, 7.0, 3]
    srv.close()


def test_request_errors_propagate_to_caller():
    srv = _server()
    with pytest.raises(Exception):
        srv.eval("a", "no_such_fn(1)")
    # the session survives its own error
    assert from_r(srv.eval("a", "1 + 1")) == 2
    srv.close()


def test_latency_stats_cold_vs_warm():
    srv = _server()
    _warm(srv, "a", n=6)
    st = srv.stats()
    assert st["latency_cold"]["n"] == 1      # first request of the tenant
    assert st["latency"]["n"] == st["latency_cold"]["n"] + st["latency_warm"]["n"]
    assert st["latency"]["p99_ms"] >= st["latency"]["p50_ms"] >= 0.0
    assert st["per_tenant"]["a"]["serve_requests"] == st["latency"]["n"]
    srv.close()


def test_dispatcher_workers_pin_sessions():
    """Threaded front: sessions shard deterministically across workers and
    concurrent tenant streams produce correct results."""
    srv = Server(config_factory=lambda: _cfg(), workers=2)
    tenants = ["t%d" % i for i in range(4)]
    for t in tenants:
        srv.eval(t, SUM_SRC)
        for s in SETUP:
            srv.eval(t, s)
    assert [srv.sessions[t].worker_idx for t in tenants] == [0, 1, 0, 1]
    for _ in range(4):
        out = srv.batch([(t, "sumfn(xi, 3L)") for t in tenants])
        assert [from_r(v) for v in out] == [6, 6, 6, 6]
    srv.close()


# ---------------------------------------------------------------------------
# telemetry under concurrency
# ---------------------------------------------------------------------------

def test_snapshot_includes_serve_counters():
    vm = make_vm()
    snap = vm.state.snapshot()
    for key in ("serve_requests", "shared_cache_hits", "shared_rebinds",
                "batched_compiles", "lowered_instrs"):
        assert key in snap
    # ...but none of them leak into the engine-equivalence invariant
    sig_keys = vm.state.dispatch_signature()
    for key in ("serve_requests", "shared_cache_hits", "shared_rebinds",
                "batched_compiles", "lowered_instrs", "compiles"):
        assert key not in sig_keys


def test_snapshot_consistent_under_concurrent_installs():
    """snapshot() taken from another thread while a session's threaded
    fleet compiles must see compiles/compiled_instrs move together
    (install-time counter groups are atomic under the queue lock)."""
    srv = _server(compile_threshold=1)
    srv.fleet = FleetCompileQueue(1)  # threaded under either engine
    srv.fleet.shared = srv.shared
    vm = srv.session("a").vm
    assert vm.state.snapshot_lock is vm.compile_queue.lock
    vm.eval(SUM_SRC)
    for s in SETUP:
        vm.eval(s)
    stop = threading.Event()
    bad = []

    def poll():
        while not stop.is_set():
            snap = vm.state.snapshot()
            if (snap["compiles"] == 0) != (snap["compiled_instrs"] == 0):
                bad.append(snap)  # pragma: no cover - only on torn reads

    t = threading.Thread(target=poll, daemon=True)
    t.start()
    for _ in range(30):
        vm.eval("sumfn(xi, 3L)")
    srv.fleet.join()
    vm.eval("sumfn(xi, 3L)")
    stop.set()
    t.join(timeout=2.0)
    srv.close()
    assert not bad
    assert vm.state.compiles >= 1
