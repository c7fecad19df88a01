"""Process-wide shared code cache: the fleet's L2.

One instance serves every tenant VM in a :class:`~repro.serve.server.Server`.
Each VM's own :class:`~repro.jit.codecache.CodeCache` has it attached as a
store (asked before the artifact directory): it takes each unit's bytes at
insert and is probed with the *stable digest* of the unit wanted — the
world-independent content hash from ``jit/persist.py`` that already encodes
the code's content hash, the specialization context, the feedback signature
and the config fingerprint.  Anything keyed that precisely is safe to hand
to another tenant: the claimant re-binds the serialized form against its own
world (its own ``CodeObject`` identities, its own globals) exactly as a
warm-start disk hit would.

Design points
-------------

* **Values are bytes, not objects.**  We store the serialized stable form,
  never live ``NativeCode``.  Deserialization allocates a fresh unit per
  claimant, so tenants cannot alias each other's installed code — a deopt
  in tenant A can retire *cache entries* but never code tenant B is running.
* **Single fleet-wide budget**, measured in compiled instructions (same
  currency as the per-VM caches), LRU over digests.  Eviction here is
  invisible to correctness: a victim's next claimant just re-lowers.
* **Invalidation fan-out.**  A *real* deopt in any tenant calls
  :meth:`invalidate_bucket` with the code's content hash: every shared
  entry derived from that code is retired fleet-wide, because the deopt is
  evidence the speculation baked into those forms is wrong for the world
  as observed — the next tenant to want one should re-compile against
  fresher feedback.  Narrow context invalidation retires precise digests.
  Chaos-injected deopts never reach here (``codecache.invalidate_code`` is
  only called on real deopt paths), so a chaos tenant cannot churn the
  fleet.
* **Thread-safety**: one lock around the whole structure.  Operations are
  dict/deque manipulations on bytes — no compilation, no VM access — so the
  critical sections are tiny.

All counters here are observability only; nothing in any tenant's
``dispatch_signature`` depends on shared-cache state (see
``Telemetry`` and the compile-parity accounting in ``RVM._account_shared_rebind``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Set, Tuple


class _SharedEntry:
    __slots__ = ("data", "size", "bucket", "origin")

    def __init__(self, data: bytes, size: int, bucket: str, origin: Optional[str]):
        self.data = data        # serialized stable form (persist.serialize)
        self.size = size        # compiled instructions — budget currency
        self.bucket = bucket    # code content hash this unit derives from
        self.origin = origin    # tenant that published it (attribution only)


class SharedCodeCache:
    """Thread-safe LRU of stable compiled forms, shared by a VM fleet."""

    hit_counter = "shared_cache_hits"  # the Telemetry field of a hit here

    def __init__(self, budget: int):
        self.budget = budget
        self.lock = threading.RLock()
        # digest -> entry; OrderedDict gives us LRU (move_to_end on hit)
        self.entries: "OrderedDict[str, _SharedEntry]" = OrderedDict()
        # code content hash -> digests derived from it (fan-out index)
        self.buckets: Dict[str, Set[str]] = {}
        self.total_size = 0
        # -- stats (snapshot-only, fleet observability) --
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self.invalidations = 0          # entries dropped by deopt fan-out
        self.hits_by_tenant: Dict[str, int] = {}
        self.puts_by_tenant: Dict[str, int] = {}
        self.invalidations_by_tenant: Dict[str, int] = {}
        # hits where the publisher was a *different* tenant — the number
        # the whole subsystem exists to make large
        self.cross_tenant_hits = 0

    # ------------------------------------------------------------------ api

    def get(self, digest: str, bucket: str, tenant: Optional[str]) -> Optional[bytes]:
        """Return the serialized stable form for ``digest``, or None.

        ``bucket`` is the claimant's code content hash; it must match the
        publisher's (same digest implies same hash by construction, so this
        is a consistency assertion more than a filter).
        """
        with self.lock:
            entry = self.entries.get(digest)
            if entry is None or entry.bucket != bucket:
                self.misses += 1
                return None
            self.entries.move_to_end(digest)
            self.hits += 1
            if tenant is not None:
                self.hits_by_tenant[tenant] = self.hits_by_tenant.get(tenant, 0) + 1
                if entry.origin is not None and entry.origin != tenant:
                    self.cross_tenant_hits += 1
            return entry.data

    def contains(self, digest: str) -> bool:
        """Non-claiming probe (no LRU touch, no stats): is this stable form
        published?  The fleet queue uses it to skip builds whose result is
        already available — invalidation removes entries, so a retired form
        is honestly rebuilt."""
        with self.lock:
            return digest in self.entries

    def put(self, digest: str, bucket: str, data: bytes,
            size: int, tenant: Optional[str]) -> None:
        """Publish a freshly compiled unit's stable form."""
        if size > self.budget:
            return  # would evict the whole fleet for one unit
        with self.lock:
            old = self.entries.pop(digest, None)
            if old is not None:
                self.total_size -= old.size
                self._unindex(digest, old.bucket)
            entry = _SharedEntry(data, size, bucket, tenant)
            self.entries[digest] = entry
            self.buckets.setdefault(bucket, set()).add(digest)
            self.total_size += size
            self.puts += 1
            if tenant is not None:
                self.puts_by_tenant[tenant] = self.puts_by_tenant.get(tenant, 0) + 1
            while self.total_size > self.budget and self.entries:
                victim_digest, victim = self.entries.popitem(last=False)
                self.total_size -= victim.size
                self._unindex(victim_digest, victim.bucket)
                self.evictions += 1

    def invalidate_bucket(self, code_hash: str, tenant: Optional[str]) -> int:
        """Real-deopt fan-out: retire every shared form of this code.

        Returns the number of entries dropped.  Installed per-VM versions
        are untouched (install separation) — only future *fetches* miss.
        """
        with self.lock:
            digests = self.buckets.pop(code_hash, None)
            if not digests:
                return 0
            dropped = 0
            for digest in digests:
                entry = self.entries.pop(digest, None)
                if entry is not None:
                    self.total_size -= entry.size
                    dropped += 1
            self.invalidations += dropped
            if tenant is not None and dropped:
                self.invalidations_by_tenant[tenant] = (
                    self.invalidations_by_tenant.get(tenant, 0) + dropped)
            return dropped

    def invalidate_digests(self, digests: List[str], code_hash: str,
                           tenant: Optional[str]) -> int:
        """Narrow fan-out: retire precise stable forms (ctxfn invalidation)."""
        with self.lock:
            dropped = 0
            for digest in digests:
                entry = self.entries.pop(digest, None)
                if entry is None:
                    continue
                self.total_size -= entry.size
                self._unindex(digest, entry.bucket)
                dropped += 1
            self.invalidations += dropped
            if tenant is not None and dropped:
                self.invalidations_by_tenant[tenant] = (
                    self.invalidations_by_tenant.get(tenant, 0) + dropped)
            return dropped

    # ---------------------------------------------------------------- stats

    def stats(self) -> dict:
        with self.lock:
            return {
                "entries": len(self.entries),
                "total_size": self.total_size,
                "budget": self.budget,
                "hits": self.hits,
                "misses": self.misses,
                "cross_tenant_hits": self.cross_tenant_hits,
                "puts": self.puts,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "hits_by_tenant": dict(self.hits_by_tenant),
                "puts_by_tenant": dict(self.puts_by_tenant),
                "invalidations_by_tenant": dict(self.invalidations_by_tenant),
            }

    # ------------------------------------------------------------- internal

    def _unindex(self, digest: str, bucket: str) -> None:
        digests = self.buckets.get(bucket)
        if digests is not None:
            digests.discard(digest)
            if not digests:
                del self.buckets[bucket]

    def __len__(self) -> int:
        with self.lock:
            return len(self.entries)
