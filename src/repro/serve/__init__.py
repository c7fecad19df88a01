"""Multi-tenant serving: one VM fleet, thousands of isolated sessions.

The paper's headline claim is that deoptless keeps *interactive* workloads
fast by turning speculation failure into re-dispatch instead of latency
spikes.  This package scales that property from one session to a fleet:

* :class:`~repro.serve.shared_cache.SharedCodeCache` — a process-wide,
  thread-safe L2 behind every tenant VM's own code cache, keyed on the
  world-independent stable digests of PR 4's persistence layer.  Tenant B's
  first request to a function tenant A already compiled is an O(lookup)
  stable-form rebind;
* :class:`~repro.serve.fleet_queue.FleetCompileQueue` — one background
  worker pool draining tier-up and continuation-promotion requests from
  *all* sessions, deduplicating identical in-flight builds across tenants;
* :class:`~repro.serve.server.Server` — the front door: accepts eval
  requests, shards sessions across worker threads, batches, and records
  per-request latency (p50/p99 in :meth:`Server.stats`).

Isolation model (see DESIGN.md, "Multi-tenant serving"): every session owns
its feedback, telemetry, environments and installed code versions; only
*stable compiled forms* flow between tenants, and a poisoned tenant's real
deopts retire only its own installed versions.
"""

from .server import Server, Session
from .shared_cache import SharedCodeCache
from .fleet_queue import FleetCompileQueue

__all__ = ["Server", "Session", "SharedCodeCache", "FleetCompileQueue"]
