"""Background tier-up: take compilation off the interpreter's critical path.

``RVM.maybe_tier_up`` routes through here.  Four modes
(``Config.tierup_mode``):

* ``sync`` (default) — compile inline, exactly the pre-queue behaviour.
* ``step`` — enqueue; nothing compiles until :meth:`CompileQueue.drain` is
  called with an instruction budget.  Deterministic by construction (the
  caller decides when compile pauses happen), which is what the tests and
  the budgeted-drain experiments use.
* ``bg`` — a daemon worker thread runs the pipeline over a *feedback
  snapshot* taken at enqueue time; finished code is staged and installed on
  the main thread at the next closure call.  The bytecode tier keeps running
  (and profiling) the whole time, so a compile pause never stalls execution.
* ``fleet`` — like ``bg``, but requests route to a *process-wide*
  :class:`repro.serve.FleetCompileQueue` shared by every session in a
  :class:`repro.serve.Server`.  One worker pool serves all tenants, and
  identical in-flight builds (same stable digest) are coalesced: one tenant
  compiles, the rest claim the published form from the shared code cache at
  install time (``batched_compiles``).  Installs still happen only on the
  owning session's thread, via the same ``ready``/``queue_ready`` protocol
  as ``bg`` — the fleet never touches another VM's state directly.

In every mode the code cache is consulted *before* a request is queued or
compiled — a context that was compiled before installs in O(lookup).

Telemetry discipline: the worker thread only builds graphs; all counter
bumps and events happen on the main thread at install time, keeping event
order deterministic for equal workloads.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Optional, Tuple

from ..ir.builder import CompilationFailure
from . import codecache, unit

#: staged in ``ready`` for a request whose build was coalesced with another
#: tenant's identical in-flight build (fleet mode): at install time the
#: session claims the published unit from the shared cache instead of
#: compiling.  Distinct from None (= build failed / superseded).
COALESCED = object()

#: compiled-instruction budget of a ``drain()`` call that names none
DRAIN_BUDGET = 2000


class CompileRequest:
    __slots__ = ("spec", "promote")

    def __init__(self, spec, promote=False):
        #: the :class:`~repro.jit.unit.UnitSpec` to build (``fn`` or
        #: ``ctxfn``).  Its ``feedback`` is a snapshot of the per-pc profile
        #: taken at enqueue time: bg mode compiles from it, immune to
        #: concurrent interpreter mutation
        self.spec = spec
        #: request came from continuation promotion — bumps cont_tierups at
        #: install so the counter means "promotions installed" in every mode
        self.promote = promote

    def key(self):
        return id(self.spec.closure), self.spec.ctx


class CompileQueue:
    """FIFO of tier-up requests with pluggable drain policy."""

    def __init__(self, vm):
        self.vm = vm
        self.mode = vm.config.tierup_mode
        self.pending: "deque[CompileRequest]" = deque()
        self.queued_ids: set = set()
        #: (request, ncode-or-None) built by the worker, awaiting install
        self.ready: "deque[Tuple[CompileRequest, Any]]" = deque()
        self.lock = threading.Lock()
        self.wake = threading.Condition(self.lock)
        self.idle = threading.Condition(self.lock)
        self.worker: Optional[threading.Thread] = None
        self.stopping = False
        #: requests popped by the worker but not yet staged to ``ready``
        self.inflight = 0
        #: serve.FleetCompileQueue when mode == "fleet" (Server wires it)
        self.fleet = None
        #: serializes pipeline runs against this VM (:meth:`build_off_thread`)
        self.build_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.pending)

    # ------------------------------------------------------------------
    # enqueue (main thread)
    # ------------------------------------------------------------------

    def request(self, spec, promote=False):
        """Tier-up request for a whole-function unit: the generic version
        (``fn``) or, for continuation promotion, an entry-context version
        (``ctxfn``, ``promote=True``).  Compiled inline in sync mode
        (returns the installed NativeCode or None), else queued (returns
        None) — unless an equal request already is."""
        vm = self.vm
        if self.mode == "sync":
            # under the names the benchmark's tracer resolves
            if spec.kind == "fn":
                ncode = vm.compile_closure(spec.closure, spec.feedback)
            else:
                ncode = vm._compile_context_version(spec.closure, spec.ctx, spec.feedback)
            return self._installed(spec, promote, ncode)
        req = CompileRequest(spec, promote)
        if req.key() in self.queued_ids:
            return None
        if spec.feedback is None:
            spec.feedback = {pc: fb.copy() for pc, fb in spec.code.feedback.items()}
        fleet = self.fleet if self.mode == "fleet" else None
        with self.lock:
            self.queued_ids.add(req.key())
            if fleet is None:
                self.pending.append(req)
                self.wake.notify()
        vm.state.tierup_enqueues += 1
        vm.state.emit("tierup_enqueue", spec.closure.name, mode=self.mode,
                      queue_depth=len(self.pending if fleet is None else fleet),
                      ctx=spec.ctx is not None)
        if fleet is not None:
            # the stable digest — the cross-tenant dedup key — is computed
            # here, on the session thread: it walks this VM's global
            # environment to name the closures the key pins, which the fleet
            # workers must not do concurrently with the interpreter
            fleet.submit(self, req, self._fleet_digest(req))
        elif self.mode == "bg":
            self._ensure_worker()
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

    # ------------------------------------------------------------------
    # drain (step mode / tests; also used by bg install path)
    # ------------------------------------------------------------------

    def drain(self, budget: Optional[int] = None) -> int:
        """Compile+install queued requests until ``budget`` compiled
        instructions are spent (default :data:`DRAIN_BUDGET`; pass 0 for
        unbounded).  Returns the number of installs."""
        if budget is None:
            budget = DRAIN_BUDGET
        installed = spent = 0
        while True:
            with self.lock:
                if not self.pending:
                    break
                req = self.pending.popleft()
                self.queued_ids.discard(req.key())
            ncode = self._finish(req, self._build(req))
            if ncode is not None:
                installed += 1
                spent += ncode.size
                if budget and spent >= budget:
                    break
        return installed

    @staticmethod
    def _superseded(st, spec) -> bool:
        """The unit this request asks for got installed while it waited."""
        if spec.kind == "fn":
            return st.version is not None
        return st.versions is not None and st.versions.lookup_exact(spec.ctx) is not None

    def build_off_thread(self, req: CompileRequest):
        """:meth:`_build` as bg and fleet workers run it: the interpreter
        may mutate a callee's feedback set under the builder mid-iteration
        (``RuntimeError``) — retry from a fresh read, give up after three.
        Under ``build_lock``: the fleet pool may pick up two of this
        session's requests, and the pipeline reads shared per-VM state."""
        with self.build_lock:
            for _ in range(3):
                try:
                    return self._build(req)
                except RuntimeError:
                    continue
        return None

    def _build(self, req: CompileRequest):
        """Run the pipeline for one request; returns NativeCode or None.
        Failures are recorded against the closure state, never raised."""
        vm, spec = self.vm, req.spec
        st = vm.jit_state(spec.closure)
        if st.cant_compile:
            return None
        if self._superseded(st, spec):
            vm.state.tierup_drops += 1
            return None
        try:
            return unit.build(vm, spec)
        except CompilationFailure as e:
            unit.failed(vm, spec, e)
            return None

    def _finish(self, req: CompileRequest, ncode):
        """Install point (session thread) for a staged result: a built
        unit, None (build failed or superseded), or ``COALESCED``.

        A coalesced request's build ran for another tenant, whose install
        published the unit's stable form to the shared cache; it is claimed
        from there (an O(lookup) rebind, accounted with compile parity).  A
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
        if spec.kind == "ctxfn" and not vm.admits(st):
            return None  # the table filled up meanwhile: discarded uncounted
        if built:
            ncode = unit.install(vm, spec, ncode)
            if ncode is not None:
                vm.place(spec, ncode)
        else:
            ncode = vm.tier_up(spec, probe_only=True)
        if ncode is not None:
            vm.state.tierup_installs += 1
        return self._installed(spec, req.promote, ncode)

    # ------------------------------------------------------------------
    # background worker (bg mode)
    # ------------------------------------------------------------------

    def _ensure_worker(self) -> None:
        if self.worker is not None and self.worker.is_alive():
            return
        self.worker = threading.Thread(
            target=self._worker_loop, name="repro-tierup", daemon=True
        )
        self.worker.start()

    def _worker_loop(self) -> None:  # pragma: no cover - timing dependent
        while True:
            with self.lock:
                while not self.pending and not self.stopping:
                    self.idle.notify_all()
                    self.wake.wait(timeout=0.5)
                if self.stopping:
                    return
                req = self.pending.popleft()
                self.queued_ids.discard(req.key())
                self.inflight += 1
            ncode = self.build_off_thread(req)
            with self.lock:
                self.ready.append((req, ncode))
                self.inflight -= 1
                self.idle.notify_all()
            self.vm.queue_ready = True

    def install_ready(self) -> int:
        """Main-thread install point for worker-built code.

        The whole install — version swap plus its telemetry counter group —
        runs under the queue lock, which ``Telemetry.snapshot`` (wired to
        this lock in bg/fleet modes) also takes: a concurrent snapshot sees
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

    def join(self, timeout: float = 5.0) -> bool:
        """Wait until the worker has no pending/unstaged work (tests)."""
        if self.mode == "fleet" and self.fleet is not None:
            return self.fleet.join(timeout)
        if self.mode != "bg":
            return not self.pending
        with self.lock:
            while self.pending or self.inflight:
                if not self.idle.wait(timeout=timeout):  # pragma: no cover
                    return False
        return True
