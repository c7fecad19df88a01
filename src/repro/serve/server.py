"""The serving front door: sessions, sharding, batching, latency stats.

A :class:`Server` owns a fleet of tenant sessions.  Each session is a full
:class:`~repro.jit.vm.RVM` — its own global environment, type feedback,
telemetry and installed code versions (isolation is structural, not
policy) — wired into two fleet-wide structures when ``Config.serve`` is on:

* the :class:`~repro.serve.shared_cache.SharedCodeCache`, attached to the
  VM's own code cache as its first store (``code_cache.shared``), and
* optionally the :class:`~repro.serve.fleet_queue.FleetCompileQueue`
  (``compile_workers > 0``), attached to the session's compile queue so
  its tier-up requests are built there instead of inline.

Request execution has two shapes:

* ``workers=0`` (default) — :meth:`eval` runs inline on the caller's
  thread.  Fully deterministic: this is the mode the signature-parity
  tests and the CI benchmark leg use.
* ``workers=N`` — N dispatcher threads; each session is pinned to one
  worker (deterministic round-robin by creation order), so a tenant's
  requests always execute in order on one thread while tenants run
  concurrently.  :meth:`submit` returns a future; :meth:`batch` fans a
  list of requests out and collects results.

Every request's wall-clock latency is recorded; :meth:`stats` reports
p50/p99 overall and per tenant, plus shared-cache and fleet-queue
counters.  ``Config(serve=False)`` degrades the whole Server to isolated
per-tenant VMs — same API, no sharing — which is the baseline the serving
layer is measured against.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..jit.config import Config
from ..jit.vm import RVM
from .fleet_queue import FleetCompileQueue
from .shared_cache import SharedCodeCache


def _percentile(sorted_vals: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of an ascending sequence."""
    if not sorted_vals:
        return 0.0
    k = (len(sorted_vals) - 1) * q
    f = int(k)
    c = min(f + 1, len(sorted_vals) - 1)
    return sorted_vals[f] + (sorted_vals[c] - sorted_vals[f]) * (k - f)


class _Future:
    __slots__ = ("_event", "_value", "_error")

    def __init__(self):
        self._event = threading.Event()
        self._value = None
        self._error: Optional[BaseException] = None

    def _set(self, value: Any, error: Optional[BaseException] = None) -> None:
        self._value = value
        self._error = error
        self._event.set()

    def wait(self, timeout: Optional[float] = None) -> Any:
        if not self._event.wait(timeout=timeout):
            raise TimeoutError("request did not complete")
        if self._error is not None:
            raise self._error
        return self._value


class Session:
    """One tenant: a private VM pinned to one dispatcher worker."""

    __slots__ = ("tenant", "vm", "worker_idx", "requests", "created_seq")

    def __init__(self, tenant: str, vm: RVM, worker_idx: int, created_seq: int):
        self.tenant = tenant
        self.vm = vm
        self.worker_idx = worker_idx
        self.requests = 0
        self.created_seq = created_seq


class _Worker:
    """One dispatcher thread with its own FIFO of (session, source, future)."""

    def __init__(self, server: "Server", idx: int):
        self.server = server
        self.queue: deque = deque()
        self.lock = threading.Lock()
        self.wake = threading.Condition(self.lock)
        self.stopping = False
        self.thread = threading.Thread(target=self._loop,
                                       name="repro-serve-%d" % idx, daemon=True)
        self.thread.start()

    def push(self, item) -> None:
        with self.lock:
            self.queue.append(item)
            self.wake.notify()

    def depth(self) -> int:
        with self.lock:
            return len(self.queue)

    def _loop(self) -> None:  # pragma: no cover - exercised via threads
        while True:
            with self.lock:
                while not self.queue and not self.stopping:
                    self.wake.wait(timeout=0.5)
                if self.stopping and not self.queue:
                    return
                session, source, fut = self.queue.popleft()
            value, error = self.server._run(session, source)
            fut._set(value, error)

    def stop(self) -> None:
        with self.lock:
            self.stopping = True
            self.wake.notify_all()
        self.thread.join(timeout=1.0)


#: fleet-wide LRU budget of the shared code cache, in compiled instructions
#: across all tenants (one budget for the whole fleet, not per VM — the
#: point is bounding total resident shared code)
SHARED_BUDGET = 1_000_000


class Server:
    """Multi-tenant mini-R service over one shared-infrastructure fleet."""

    def __init__(self,
                 config_factory: Optional[Callable[[], Config]] = None,
                 workers: int = 0,
                 compile_workers: int = 0,
                 shared_budget: int = SHARED_BUDGET):
        self.config_factory = config_factory or Config
        probe = self.config_factory()
        #: serving infrastructure on/off — from Config.serve
        self.serve_enabled = bool(probe.serve)
        self.shared: Optional[SharedCodeCache] = None
        self.fleet: Optional[FleetCompileQueue] = None
        if self.serve_enabled:
            self.shared = SharedCodeCache(shared_budget)
            # the reference-executor leg pins everything synchronous; a
            # fleet pool would reintroduce drain-timing nondeterminism
            if compile_workers > 0 and probe.threaded_dispatch:
                self.fleet = FleetCompileQueue(compile_workers)
                self.fleet.shared = self.shared
        self.sessions: Dict[str, Session] = {}
        self._lock = threading.Lock()
        self._next_worker = 0
        self._session_seq = 0
        self._workers: List[_Worker] = [
            _Worker(self, i) for i in range(max(0, workers))]
        #: (tenant, seconds, was_cold) per completed request, in completion
        #: order; was_cold = first request the tenant ever ran
        self.latencies: List[Tuple[str, float, bool]] = []
        self.closed = False

    # ------------------------------------------------------------- sessions

    def session(self, tenant: str, config: Optional[Config] = None) -> Session:
        """Get or create the tenant's session (thread-safe, idempotent).
        ``config`` overrides the server's factory for this tenant only —
        e.g. a chaos-injected tenant in the isolation tests."""
        with self._lock:
            sess = self.sessions.get(tenant)
            if sess is not None:
                return sess
            cfg = config if config is not None else self.config_factory()
            vm = RVM(cfg)
            if self.serve_enabled and self.shared is not None \
                    and vm.code_cache is not None:
                vm.code_cache.shared = self.shared
                vm.code_cache.tenant = tenant
            if self.fleet is not None:
                vm.compile_queue.attach(self.fleet)
            idx = 0
            if self._workers:
                idx = self._next_worker
                self._next_worker = (self._next_worker + 1) % len(self._workers)
            sess = Session(tenant, vm, idx, self._session_seq)
            self._session_seq += 1
            self.sessions[tenant] = sess
            return sess

    # ------------------------------------------------------------- requests

    def submit(self, tenant: str, source: str) -> _Future:
        """Queue one eval request; returns a future.  With ``workers=0``
        the request runs inline before returning (already-resolved
        future) — deterministic mode."""
        if self.closed:
            raise RuntimeError("server is closed")
        sess = self.session(tenant)
        fut = _Future()
        if not self._workers:
            value, error = self._run(sess, source)
            fut._set(value, error)
            return fut
        self._workers[sess.worker_idx].push((sess, source, fut))
        return fut

    def eval(self, tenant: str, source: str) -> Any:
        """Run one request to completion and return its value."""
        return self.submit(tenant, source).wait()

    def batch(self, requests: Sequence[Tuple[str, str]],
              timeout: Optional[float] = None) -> List[Any]:
        """Fan a list of ``(tenant, source)`` requests out across the
        dispatcher workers; returns results in request order.  Exceptions
        propagate when the corresponding result is collected."""
        futures = [self.submit(tenant, source) for tenant, source in requests]
        return [f.wait(timeout=timeout) for f in futures]

    def _run(self, sess: Session, source: str):
        """Execute one request on the session's VM, recording latency."""
        was_cold = sess.requests == 0
        t0 = time.perf_counter()
        error = None
        value = None
        try:
            value = sess.vm.eval(source)
        except BaseException as e:
            error = e
        elapsed = time.perf_counter() - t0
        sess.requests += 1
        # serve_requests is snapshot-only (not in dispatch_signature):
        # request framing is a serving-layer concern, not engine behaviour
        sess.vm.state.serve_requests += 1
        with self._lock:
            self.latencies.append((sess.tenant, elapsed, was_cold))
        return value, error

    # ------------------------------------------------------------ lifecycle

    def quiesce(self, timeout: float = 5.0) -> None:
        """Wait out in-flight fleet builds, then install staged results on
        each session (call between load phases / before asserting stats)."""
        if self.fleet is not None:
            self.fleet.join(timeout)
        for sess in self.sessions.values():
            if sess.vm.queue_ready:
                sess.vm.compile_queue.install_ready()

    def close(self) -> None:
        self.closed = True
        for w in self._workers:
            w.stop()
        if self.fleet is not None:
            self.fleet.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ---------------------------------------------------------------- stats

    def stats(self) -> dict:
        """Fleet-wide observability snapshot: latency percentiles (overall,
        per tenant, cold vs warm), shared-cache and fleet-queue counters,
        and per-tenant engine aggregates."""
        with self._lock:
            lat = list(self.latencies)
            sessions = dict(self.sessions)
        all_s = sorted(t for _, t, _ in lat)
        cold_s = sorted(t for _, t, c in lat if c)
        warm_s = sorted(t for _, t, c in lat if not c)

        def pcts(vals):
            return {
                "n": len(vals),
                "p50_ms": _percentile(vals, 0.50) * 1e3,
                "p99_ms": _percentile(vals, 0.99) * 1e3,
                "mean_ms": (sum(vals) / len(vals) * 1e3) if vals else 0.0,
            }

        per_tenant = {}
        for tenant, sess in sessions.items():
            snap = sess.vm.state.snapshot()
            mine = sorted(t for tn, t, _ in lat if tn == tenant)
            per_tenant[tenant] = {
                "latency": pcts(mine),
                "serve_requests": snap.get("serve_requests", 0),
                "shared_cache_hits": snap.get("shared_cache_hits", 0),
                "batched_compiles": snap.get("batched_compiles", 0),
                "compiles": snap.get("compiles", 0),
                "compiled_instrs": snap.get("compiled_instrs", 0),
                "codecache_instrs_saved": snap.get("codecache_instrs_saved", 0),
            }
        out = {
            "serve": self.serve_enabled,
            "tenants": len(sessions),
            "requests": len(lat),
            "latency": pcts(all_s),
            "latency_cold": pcts(cold_s),
            "latency_warm": pcts(warm_s),
            "queue_depth": sum(w.depth() for w in self._workers),
            "per_tenant": per_tenant,
            "compiled_instrs": sum(
                t["compiled_instrs"] for t in per_tenant.values()),
            "codecache_instrs_saved": sum(
                t["codecache_instrs_saved"] for t in per_tenant.values()),
        }
        if self.shared is not None:
            out["shared_cache"] = self.shared.stats()
        if self.fleet is not None:
            out["fleet_queue"] = self.fleet.stats()
        return out
