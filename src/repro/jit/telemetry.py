"""VM event log and counters.

Everything the evaluation harness reads comes through here: per-tier
operation counts (for the cost model), compile/deopt/deoptless event
streams, and memory proxies (vector allocations + compiled code size) for
the paper's section 5.1 memory experiment.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..runtime.values import RVector

#: bound on the deduped diagnostic logs (vectorizer declines, OSR hop
#: declines): compile-time detail, capped so pathological workloads cannot
#: grow telemetry without bound
_DEDUP_LOG_CAP = 200


def dedup_log(log: List[tuple], key: tuple, cap: int = _DEDUP_LOG_CAP) -> None:
    """Append ``key + (count,)`` to a bounded deduplicated log.

    Repeats of the same key bump its trailing count in place; new keys are
    appended until ``cap`` distinct entries exist, then dropped.  Shared by
    the vectorizer decline log and the OSR hop decline log.
    """
    for j, entry in enumerate(log):
        if entry[:-1] == key:
            log[j] = key + (entry[-1] + 1,)
            return
    if len(log) < cap:
        log.append(key + (1,))


@dataclass
class Event:
    kind: str
    fn_name: str
    details: Dict[str, Any] = field(default_factory=dict)
    at_ns: int = 0


class Telemetry:
    """Counters + event stream for one VM."""

    def __init__(self) -> None:
        #: optional lock :meth:`snapshot` acquires before reading.  Set to
        #: the compile queue's lock when a fleet queue is attached
        #: (``CompileQueue.attach``): a worker thread may be staging
        #: built units while a server stats thread snapshots, and install
        #: paths bump several related counters under that lock — reading
        #: them together keeps the snapshot internally consistent.  None
        #: (inline tier-up) keeps snapshot() lock-free.
        self.snapshot_lock = None
        self.events: List[Event] = []
        # -- what ran: dispatch_signature() -----------------------------------
        self.interp_ops = 0
        self.native_ops = 0
        #: subset of native_ops that execute generic (boxed) semantics;
        #: they carry an extra cost-model weight
        self.native_generic_ops = 0
        self.guards_executed = 0
        self.osr_ins = 0
        self.deopts = 0
        self.deoptless_dispatches = 0
        self.deoptless_misses = 0
        self.deoptless_bailouts = 0
        self.invalidations = 0
        # -- how the code that ran was obtained: snapshot() only.  The same
        # across engines, and across cache states when no store is shared:
        # a hit in another tenant's store is a hit, not a compile.
        #: fresh pipeline runs installed, and the instructions they lowered
        #: (snapshot()'s ``lowered_instrs`` too)
        self.compiles = 0
        self.compiled_instrs = 0
        self.deoptless_compiles = 0
        #: callee frames spliced by the speculative inliner (opt/inline.py)
        self.inlined_frames = 0
        self.compile_failures = 0
        #: elements covered by bulk vector kernels (opt/vectorize.py).
        #: Engine-dependent by design — scalar engines never run kernels —
        #: so it is excluded from dispatch_signature(); the covered ops and
        #: guards are charged to native_ops/guards_executed at scalar rates,
        #: which is what keeps the signature engine-identical.
        self.kernel_elements = 0
        #: entry contextual dispatch (a closure's version table).  Like
        #: kernel_elements, these describe how a call was dispatched / how
        #: code was obtained and stay out of dispatch_signature(); the ops
        #: they cause are already covered by the signature counters.
        self.ctx_dispatches = 0
        self.ctx_compiles = 0
        #: inserts refused because a dispatch/version table was full
        self.dispatch_refusals = 0
        #: context-keyed code cache (jit/codecache.py).  All cache counters
        #: are kept out of dispatch_signature(): hit/miss totals describe how
        #: code was *obtained*, and legitimately differ cache-on vs cache-off
        #: while the executed-op stream stays bit-identical.
        self.codecache_hits = 0
        self.codecache_misses = 0
        self.codecache_evictions = 0
        self.codecache_invalidations = 0
        #: hits served by rebinding a stable (world-independent) entry
        self.codecache_stable_hits = 0
        #: stable hits whose bytes came from the on-disk artifact store
        self.codecache_disk_hits = 0
        #: compiled instructions NOT re-lowered thanks to cache hits
        self.codecache_instrs_saved = 0
        self.codecache_persist_failures = 0
        #: Python-codegen tier (native/pycodegen.py).  Engine-dependent by
        #: nature (the reference loop never emits source) so all three stay
        #: out of dispatch_signature(): units is emitter walks performed,
        #: src_reuses counts units whose compiled code object rode in on
        #: their bytes (bound by an exec: no emitter walk, no compile()),
        #: failures counts fallbacks to the reference loop (emitter
        #: declined, compile()/exec failed, argument-count mismatch in a
        #: generated function).
        self.pycodegen_units = 0
        self.pycodegen_src_reuses = 0
        self.pycodegen_failures = 0
        #: vectorizer decline diagnostics (opt/vectorize.py): loops that
        #: structurally looked like candidates but were rejected, total and
        #: by reason, plus a bounded deduped (fn, pc, reason, count) log for
        #: inspectors.  Compile-time analysis detail — snapshot()-only.
        self.vec_declines = 0
        self.vec_decline_reasons: Dict[str, int] = {}
        self.vec_decline_log: List[tuple] = []
        #: recognized loop plans, deduped: (fn, pc, kind, outer_pc) —
        #: outer_pc is the scalar driver's pc for a nest, else
        #: None.  Compile-time analysis detail — excluded from
        #: dispatch_signature() like the decline log.
        self.vec_plans: List[tuple] = []
        #: dispatched OSR (osr/osr_hop.py): version-to-version hops taken at
        #: loop headers, deoptless continuations promoted to full entry
        #: versions, and hops declined by entry-map validation.  Like the
        #: ctx_* precedent these describe how execution re-entered compiled
        #: code and stay out of dispatch_signature(); the ops a hop saves or
        #: costs are already covered by the signature counters.
        self.osr_hops = 0
        self.cont_tierups = 0
        self.osr_hop_declines = 0
        #: bounded deduped (fn, pc, reason, count) log for inspectors
        self.osr_hop_decline_log: List[tuple] = []
        #: multi-tenant serving (repro/serve).  Fleet aggregates are
        #: snapshot()-only by design: they describe how the fleet obtained
        #: code and routed requests, never what this session executed, so
        #: ``dispatch_signature`` stays bit-identical per engine and per
        #: tenant whether the session runs isolated or in a fleet.
        #: Requests this session served through the Server front:
        self.serve_requests = 0
        #: probes answered by the process-shared cache (stable-form bytes
        #: produced by another tenant, or by this one via the shared layer),
        #: each rebound and installed in place of a compile
        #: (snapshot()'s ``shared_rebinds`` too)
        self.shared_cache_hits = 0
        #: compilations this session did not start because an identical
        #: in-flight build (same stable key, another tenant) was coalesced
        #: with ours in the fleet compile queue
        self.batched_compiles = 0
        #: tier-up through an attached fleet queue (jit/compile_queue.py)
        self.tierup_enqueues = 0
        self.tierup_installs = 0
        #: built units discarded at install time (closure already compiled
        #: or retired while the request was in flight)
        self.tierup_drops = 0
        #: IR verifier passes run by opt/pipeline.py — cache hits skip the
        #: whole build/verify/lower pipeline, so this visibly drops when
        #: contexts repeat ("verify once per distinct key")
        self.ir_verifies = 0
        self._alloc_mark = RVector.allocations
        #: live compiled code size in native ops (memory proxy)
        self.code_size = 0
        #: hot flags mirrored from the config by the VM (read per-op by the
        #: interpreter's backedge handling)
        self.osr_in_enabled = False
        self.osr_threshold = 1 << 30

    # -- events -------------------------------------------------------------------

    def emit(self, kind: str, fn_name: str, **details: Any) -> Event:
        event = Event(kind, fn_name, details, time.perf_counter_ns())
        self.events.append(event)
        return event

    def events_of(self, kind: str) -> List[Event]:
        return [e for e in self.events if e.kind == kind]

    # -- memory proxy ----------------------------------------------------------------

    def allocations(self) -> int:
        return RVector.allocations - self._alloc_mark

    def memory_proxy(self) -> float:
        """Max-RSS stand-in: allocation traffic plus live code size."""
        return self.allocations() + 64.0 * self.code_size

    # -- reset ----------------------------------------------------------------------

    def reset_counters(self) -> None:
        self.interp_ops = 0
        self.native_ops = 0
        #: subset of native_ops that execute generic (boxed) semantics;
        #: they carry an extra cost-model weight
        self.native_generic_ops = 0
        self.guards_executed = 0
        self._alloc_mark = RVector.allocations

    def dispatch_signature(self) -> Dict[str, Any]:
        """What this VM executed, whichever way its code was obtained.

        Everything here must be bit-identical between the default engines
        and the ``RERPO_REF_EXEC=1`` reference loops, and between a session
        served from a fleet's shared cache and the same session run alone:
        the exact op and guard counts, the deopts and what became of them
        (dispatches, misses, bailouts, invalidations), OSR entries, and the
        ordered deopt event stream (function, kind, pc).  How the code was
        obtained — compiles, cache hits — is :meth:`snapshot`'s.
        """
        return {
            "interp_ops": self.interp_ops,
            "native_ops": self.native_ops,
            "native_generic_ops": self.native_generic_ops,
            "guards_executed": self.guards_executed,
            "osr_ins": self.osr_ins,
            "deopts": self.deopts,
            "deoptless_dispatches": self.deoptless_dispatches,
            "deoptless_misses": self.deoptless_misses,
            "deoptless_bailouts": self.deoptless_bailouts,
            "invalidations": self.invalidations,
            "deopt_events": [
                (e.fn_name, e.details.get("reason"), e.details.get("pc"))
                for e in self.events
                if e.kind == "deopt"
            ],
        }

    def steady_signature(self) -> Dict[str, int]:
        """Executed-op signature over a measurement window.

        Call :meth:`reset_counters` at the window start.  This is the
        steady-state slice of :meth:`dispatch_signature`: exactly the
        counters that must stay bit-identical when only *how code was
        obtained* changes (cache hit vs fresh compile), while compile-side
        counters legitimately diverge.
        """
        return {
            "interp_ops": self.interp_ops,
            "native_ops": self.native_ops,
            "native_generic_ops": self.native_generic_ops,
            "guards_executed": self.guards_executed,
        }

    def snapshot(self) -> Dict[str, float]:
        if self.snapshot_lock is not None:
            # fleet tier-up: a worker may be staging installs concurrently;
            # take the queue lock so related counters are read consistently
            with self.snapshot_lock:
                return self._snapshot()
        return self._snapshot()

    def _snapshot(self) -> Dict[str, float]:
        return {
            "interp_ops": self.interp_ops,
            "native_ops": self.native_ops,
            "native_generic_ops": self.native_generic_ops,
            "guards": self.guards_executed,
            "compiles": self.compiles,
            "compiled_instrs": self.compiled_instrs,
            "osr_ins": self.osr_ins,
            "deopts": self.deopts,
            "deoptless_dispatches": self.deoptless_dispatches,
            "deoptless_compiles": self.deoptless_compiles,
            "kernel_elements": self.kernel_elements,
            "inlined_frames": self.inlined_frames,
            "ctx_dispatches": self.ctx_dispatches,
            "ctx_compiles": self.ctx_compiles,
            "dispatch_refusals": self.dispatch_refusals,
            "codecache_hits": self.codecache_hits,
            "codecache_misses": self.codecache_misses,
            "codecache_instrs_saved": self.codecache_instrs_saved,
            "pycodegen_units": self.pycodegen_units,
            "pycodegen_src_reuses": self.pycodegen_src_reuses,
            "pycodegen_failures": self.pycodegen_failures,
            "vec_declines": self.vec_declines,
            "vec_decline_reasons": dict(self.vec_decline_reasons),
            "vec_plans": len(self.vec_plans),
            "osr_hops": self.osr_hops,
            "cont_tierups": self.cont_tierups,
            "osr_hop_declines": self.osr_hop_declines,
            "serve_requests": self.serve_requests,
            "shared_cache_hits": self.shared_cache_hits,
            "shared_rebinds": self.shared_cache_hits,
            "batched_compiles": self.batched_compiles,
            "lowered_instrs": self.compiled_instrs,
            "tierup_enqueues": self.tierup_enqueues,
            "ir_verifies": self.ir_verifies,
            "allocations": self.allocations(),
            "code_size": self.code_size,
        }
