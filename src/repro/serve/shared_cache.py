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
  in tenant A retires only A's own versions.
* **Single fleet-wide budget**, measured in compiled instructions (same
  currency as the per-VM caches), LRU over digests.  Eviction here is
  invisible to correctness: a victim's next claimant just re-lowers.
* **No invalidation.**  A digest holds everything the pipeline reads,
  the feedback signature included, so a unit is right for any tenant whose
  probe names it.  A real deopt changes the deopting tenant's feedback and
  with it every key that tenant asks for next; a tenant still holding the
  old profile rebinds the old unit, exactly what it would compile.
* **Thread-safety**: one lock around the whole structure.  Operations are
  dict/deque manipulations on bytes — no compilation, no VM access — so the
  critical sections are tiny.

All counters here are observability only; nothing in any tenant's
``dispatch_signature`` depends on shared-cache state.  A tenant's hit here
is counted as what it is — a ``shared_cache_hits`` in place of a compile —
so ``compiles`` of a session run alone equals its served ``compiles`` plus
its ``shared_cache_hits`` (see ``Telemetry``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional


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
        self.total_size = 0
        # -- stats (snapshot-only, fleet observability) --
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self.hits_by_tenant: Dict[str, int] = {}
        self.puts_by_tenant: Dict[str, int] = {}
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
        already available."""
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
            self.entries[digest] = _SharedEntry(data, size, bucket, tenant)
            self.total_size += size
            self.puts += 1
            if tenant is not None:
                self.puts_by_tenant[tenant] = self.puts_by_tenant.get(tenant, 0) + 1
            while self.total_size > self.budget and self.entries:
                _, victim = self.entries.popitem(last=False)
                self.total_size -= victim.size
                self.evictions += 1

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
                "hits_by_tenant": dict(self.hits_by_tenant),
                "puts_by_tenant": dict(self.puts_by_tenant),
            }

    def __len__(self) -> int:
        with self.lock:
            return len(self.entries)
