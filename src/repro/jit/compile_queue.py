"""Tier-up requests: compiled inline, or queued on an attached fleet.

``RVM.maybe_tier_up`` and continuation promotion route through here.  A
:class:`CompileQueue` compiles inline — exactly the pre-queue behaviour —
unless a :class:`repro.serve.FleetCompileQueue` is attached
(:meth:`CompileQueue.attach`).  Then a request is queued there, and the
pipeline runs over a *feedback snapshot* taken at enqueue time while the
bytecode tier keeps running (and profiling):

* ``Server.session`` attaches the server's process-wide fleet: one worker
  pool serves all tenants, and identical in-flight builds (same stable
  digest) are coalesced — one tenant compiles, the rest claim the published
  form from the shared code cache at install time (``batched_compiles``);
* a single VM that wants a background worker attaches
  ``FleetCompileQueue(1)``;
* a test that wants deterministic deferral attaches ``FleetCompileQueue(0)``:
  nothing is built until it calls the fleet's ``drain()``.

Built code is staged in ``ready`` and installed only on the owning VM's
thread, at its next closure call (``queue_ready``) — a fleet worker never
touches a VM's state directly.

Either way the code cache is consulted *before* a request is queued or
compiled — a context that was compiled before installs in O(lookup).

Telemetry discipline: a fleet worker only builds graphs; all counter bumps
and events happen on the session thread at install time, keeping event
order deterministic for equal workloads.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Optional, Tuple

from ..ir.builder import CompilationFailure
from . import codecache, unit

#: staged in ``ready`` for a request whose build was coalesced with another
#: tenant's identical in-flight build: at install time the session claims
#: the published unit from the shared cache instead of compiling.  Distinct
#: from None (= build failed / superseded).
COALESCED = object()


class CompileRequest:
    __slots__ = ("spec", "promote")

    def __init__(self, spec, promote=False):
        #: the :class:`~repro.jit.unit.UnitSpec` to build (a whole function:
        #: the generic version or an entry version).  Its ``feedback`` is a
        #: snapshot of the per-pc profile
        #: taken at enqueue time: a fleet worker compiles from it, immune to
        #: concurrent interpreter mutation
        self.spec = spec
        #: request came from continuation promotion — bumps cont_tierups at
        #: install so the counter means "promotions installed" either way
        self.promote = promote

    def key(self):
        return id(self.spec.closure), self.spec.ctx


class CompileQueue:
    """One VM's tier-up requests: built inline, or staged by a fleet."""

    def __init__(self, vm):
        self.vm = vm
        #: the serve.FleetCompileQueue requests go to; None compiles inline
        self.fleet = None
        #: keys of requests submitted to the fleet and not yet staged
        self.queued_ids: set = set()
        #: (request, ncode / None / COALESCED) staged by the fleet, awaiting install
        self.ready: "deque[Tuple[CompileRequest, Any]]" = deque()
        self.lock = threading.Lock()
        #: serializes pipeline runs against this VM (:meth:`build_off_thread`)
        self.build_lock = threading.Lock()

    def attach(self, fleet) -> None:
        """Queue every later request on ``fleet``.  ``snapshot()`` then
        takes this queue's lock, so it sees install-time counter groups
        whole while workers stage builds (serve stats threads poll it)."""
        self.fleet = fleet
        self.vm.state.snapshot_lock = self.lock

    def request(self, spec, promote=False):
        """Tier-up request for a whole-function unit: the generic version
        or, for continuation promotion, an entry-context version
        (``promote=True``).  Compiled inline when no fleet is attached
        (returns the installed NativeCode or None), else queued (returns
        None) — unless an equal request already is."""
        vm = self.vm
        if self.fleet is None:
            # under the names the benchmark's tracer resolves
            if spec.ctx is None:
                ncode = vm.compile_closure(spec.closure, spec.feedback)
            else:
                ncode = vm._compile_context_version(spec.closure, spec.ctx, spec.feedback)
            return self._installed(spec, promote, ncode)
        req = CompileRequest(spec, promote)
        if req.key() in self.queued_ids:
            return None
        if spec.feedback is None:
            spec.feedback = {pc: fb.copy() for pc, fb in spec.code.feedback.items()}
        with self.lock:
            self.queued_ids.add(req.key())
        vm.state.tierup_enqueues += 1
        vm.state.emit("tierup_enqueue", spec.closure.name,
                      queue_depth=len(self.fleet), ctx=spec.ctx is not None)
        # the stable digest — the cross-tenant dedup key — is computed here,
        # on the session thread: it walks this VM's global environment to
        # name the closures the key pins, which the fleet workers must not
        # do concurrently with the interpreter
        self.fleet.submit(self, req, self._fleet_digest(req))
        return None

    def _fleet_digest(self, req: CompileRequest) -> Optional[str]:
        """Stable digest of the unit this request would build, or None when
        the key pins world-local objects (then dedup is per-VM only)."""
        if self.vm.code_cache is None:
            return None
        return codecache.stable_digest(req.spec.key(self.vm.config),
                                       codecache.WorldResolver(self.vm))

    def _installed(self, spec, promote: bool, ncode):
        """Tail of every successful request, inline or queued: a promoted
        continuation is counted where its version got installed."""
        if promote and ncode is not None:
            self.vm.state.cont_tierups += 1
            self.vm.state.emit("cont_tierup", spec.closure.name, size=ncode.size,
                               specificity=spec.ctx.specificity())
        return ncode

    @staticmethod
    def _superseded(st, spec) -> bool:
        """The unit this request asks for got installed while it waited."""
        if spec.ctx is None:
            return st.version is not None
        return st.versions is not None and st.versions.lookup_exact(spec.ctx) is not None

    def build_off_thread(self, req: CompileRequest):
        """Run the pipeline for one request, as a fleet worker does; returns
        NativeCode or None.  A failure is counted and stops its unit
        (``RVM.stop``), never raised.  The interpreter may mutate a callee's feedback
        set under the builder mid-iteration (``RuntimeError``) — retry from
        a fresh read, give up after three.  Under ``build_lock``: the fleet
        pool may pick up two of this session's requests, and the pipeline
        reads shared per-VM state."""
        vm, spec = self.vm, req.spec
        st = vm.jit_state(spec.closure)
        with self.build_lock:
            for _ in range(3):
                if st.cant_compile:
                    return None
                if self._superseded(st, spec):
                    vm.state.tierup_drops += 1
                    return None
                try:
                    return unit.build(vm, spec)
                except CompilationFailure as e:
                    unit.failed(vm, spec, e)
                    vm.stop(spec)
                    return None
                except RuntimeError:
                    continue
        return None

    def _finish(self, req: CompileRequest, ncode):
        """Install point (session thread) for a staged result: a built
        unit, None (build failed or superseded), or ``COALESCED``.

        A coalesced request's build ran for another tenant, whose install
        published the unit's stable form to the shared cache; it is claimed
        from there (an O(lookup) rebind, counted as a shared-cache hit).  A
        miss — the origin's install hasn't happened yet, or the entry was
        evicted/invalidated in the window — drops the request: the closure
        is still hot, so the tier-up policy simply re-requests on its next
        call.  Never compiles inline."""
        vm, spec = self.vm, req.spec
        st = vm.jit_state(spec.closure)
        built = ncode is not COALESCED
        if not built:
            vm.state.batched_compiles += 1
            vm.state.emit("batched_compile", spec.closure.name,
                          ctx=spec.ctx is not None)
        if ncode is None or st.cant_compile or self._superseded(st, spec):
            if built and ncode is not None:
                vm.state.tierup_drops += 1
            return None
        if spec.ctx is not None and not vm.admits(st):
            return None  # the table filled up meanwhile: discarded uncounted
        if built:
            ncode = unit.install(vm, spec, ncode)
            if ncode is not None:
                vm.place(spec, ncode)
            else:
                vm.stop(spec)
        else:
            ncode = vm.tier_up(spec, probe_only=True)
        if ncode is not None:
            vm.state.tierup_installs += 1
        return self._installed(spec, req.promote, ncode)

    def install_ready(self) -> int:
        """Session-thread install point for fleet-built code.

        The whole install — version swap plus its telemetry counter group —
        runs under the queue lock, which ``Telemetry.snapshot`` (wired to
        this lock by :meth:`attach`) also takes: a concurrent snapshot sees
        compiles/compiled_instrs/code_size move together, never a torn
        install.  Workers staging new results block only for the µs-scale
        install, same as any ready-deque access."""
        installed = 0
        while True:
            with self.lock:
                if not self.ready:
                    self.vm.queue_ready = False
                    break
                req, ncode = self.ready.popleft()
                res = self._finish(req, ncode)
            if res is not None:
                installed += 1
        return installed
